"""Groebner bases over Q: Buchberger's algorithm, membership, saturation.

Everything runs through the kernel's normal-form loop; orders are grevlex
(block == 0) or a block elimination order putting the first k variables in
front (block == k).

extend grows a Groebner basis held as (lead, terms) pairs: the lead is
found once, when an element enters, and its terms are monic and list the
lead first (a remainder from kernel.normal_form already does).  The given
basis goes in live with no pairs among its elements, so callers adding
generators grow one basis, never rebuild it; groebner_basis is extend
from [] with its minimal part interreduced.  Pairs wait in a heap keyed
(order_key(lcm), i, j), i < j the elements' entry indices, so the pair
with the smallest lcm goes first and ties go to the oldest pair: the
selection of a sorted scan over every pending pair.  It fixes the order
of the work, so every count repeats from run to run.  An S-polynomial
that vanishes before reduction is not reduced.  Entering an element h
updates the pending pairs the way of Gebauer and Moller (On an
installation of Buchberger's algorithm, J. Symb. Comp. 1988):

- new pairs (g, h) are grouped by lcm; a class whose lcm another class's
  lcm properly divides goes (chain criterion), a class holding a pair with
  coprime leads goes (Buchberger's criterion, which clears the class), so
  does a class holding a pair of two monomials, and every other class
  keeps one pair, the one with the oldest g;
- an old pair (i, j) goes when lead(h) divides its lcm L and L is neither
  lcm(lead(i), lead(h)) nor lcm(lead(j), lead(h));
- every basis element whose lead lead(h) divides leaves the basis that
  reduces and makes new pairs; its pending pairs stay.

A skipped pair's S-polynomial has a standard representation through the
pairs that are reduced, so what the run builds is a Groebner basis of the
ideal, as the all-pairs run's is.  A class goes on the strength of one
pair (g, h) whose S-polynomial is a sum of basis multiples each below the
class's lcm L: then so is that of every other pair (g', h) of the class,
as S(g', h) = S(g, h) - m S(g, g') with m = L / lcm(lead g, lead g').
Coprime leads give such a sum, and so does the S-polynomial of two
monomials, which is 0, the empty sum.  Why the output cannot change: its
minimal part with tails reduced is the reduced monic basis, which is
unique for the order; each element is a normal form, so its terms come
in decreasing order, lead first; and bases are sorted by lead.  Nor do
extend's unreduced bases change a remainder (the full normal form modulo
any Groebner basis is unique) or the leading-term ideal dimension reads.
The run stops at the first constant it meets, with [1], the reduced
basis of the unit ideal under every order.

Saturation of a principal ideal at a monomial is division, since k[x] is
a UFD and each variable is prime: (g) : m^inf = (g / x^e), x^e the largest
monomial in m's variables dividing g.  Products are saturated factor by
factor (saturate_at_variables): one elimination at the whole product
measured slower on the drop corpus.

Chart questions need no saturated ideal.  Write R_f for k[x] with the
named variables inverted (f their product).  Two theorems come first, in
this order, and need no basis: a generator c*x^a whose variables are all
named is a unit of R_f (k[x] is a UFD and each variable is prime, so the
units of R_f are exactly these terms), and the ring is zero; otherwise a
single generator is a nonzero nonunit of the affine domain R_f, which cuts
the dimension by exactly one (Krull's principal ideal theorem; affine
domains are catenary).

The yes/no questions (saturates_to_unit, its many-chart form
saturates_to_unit_on_charts, is_unit_ideal) look for a point before a
basis.  The chart's origin puts the named variables at 1 and the rest at
0, so a term there is its coefficient when every variable it involves is
named and 0 otherwise.  When every generator vanishes there, the origin
is a point of V(I) where f = 1, so (R/I)_f is not the zero ring and
I : f^inf is not the unit ideal; no basis is built.  Otherwise they ask
whether chart_dimensions finds a negative dimension, by the theorems
above or a basis that stops at its first constant.

Every other saturation and chart question goes through one lift,
(R/I)_f = R[w]/J with J = (I, w*f - 1): I : f^inf is J meet k[x], read
off a basis of J under the order eliminating w (block == 1), and the
dimension of (R/I)_f off a grevlex basis of J.  Both grow from one
grevlex basis G of I in k[x] (extend), which _lift gives a zero w exponent
and extend grows by w*f - 1.  This is sound for both orders because each
restricts to grevlex on x: a monomial free of w has the same degree in
both rings, grevlex breaks degree ties at the last variable that differs,
which for two w-free monomials is an x, and the block order compares two
w-free monomials by their x part alone.  So the lift of G keeps its leads,
the S-polynomial of two lifted elements is the lift of theirs, and its
standard representation over G lifts too: G is a Groebner basis of
I k[w, x] under either order, and extending it by w*f - 1 gives one of
the lift.  Neither answer depends on the basis it grew from: the reduced
basis for an order is unique, and so is the leading-term ideal.
chart_dimensions asks for many name sets, as a blow-up's charts do, and
builds G once for all of them; dimension is its one-set case.

Dimension is read off the leading-term ideal by maximal independent
variable sets, which is exact for a degree-compatible order like grevlex.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

from . import kernel
from .errors import AmbientMismatch, MwbError
from .poly import (
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    variable,
)


def leading_term(p: Polynomial, block: int = 0):
    if p.is_zero():
        raise MwbError("the zero polynomial has no leading term")
    lm = max(p.terms, key=lambda e: kernel.order_key(e, block))
    return lm, p.terms[lm]


def _monic_terms(terms: dict, lead) -> dict:
    lc = terms[lead]
    if lc == 1:
        return terms
    inv = Fraction(1) / lc
    return {e: c * inv for e, c in terms.items()}


def monic(p: Polynomial, block: int = 0) -> Polynomial:
    lm, lc = leading_term(p, block)
    if lc == 1:
        return p
    return Polynomial._trusted(p.ambient, _monic_terms(p.terms, lm))


def monic_remainder(p: Polynomial, pairs, block: int = 0) -> Polynomial:
    """The normal form of p against (lead, terms) pairs, made monic; the
    zero polynomial when p reduces to zero."""
    r = kernel.normal_form(p.terms, pairs, block)
    return Polynomial._trusted(p.ambient, _monic_terms(r, next(iter(r))) if r else r)


def _s_polynomial(a, b, lcm) -> dict:
    """S-polynomial of two monic (lead, terms) elements whose terms list
    the lead first, lcm their leads' lcm; the leads cancel and are skipped."""
    (la, ta), (lb, tb) = a, b
    qa = kernel.mono_div(lcm, la)
    qb = kernel.mono_div(lcm, lb)
    s = {kernel.mono_mul(qa, e): c for e, c in itertools.islice(ta.items(), 1, None)}
    for e, c in itertools.islice(tb.items(), 1, None):
        m = kernel.mono_mul(qb, e)
        nc = s.get(m, 0) - c
        if nc:
            s[m] = nc
        else:
            s.pop(m, None)
    return s


def _update(h: int, elements, live: list[int], pairs: dict, heap: list, block: int):
    """Enter element h: the Gebauer-Moller update of the pending pairs and
    of the basis indices in live."""
    mh, th = elements[h]
    lcm, divides = kernel.mono_lcm, kernel.mono_divides
    monomial = len(th) == 1
    # lcm -> [oldest g with that lcm, whether a pair of the class needs no
    # reduction: coprime leads, or two monomials]
    classes: dict = {}
    for g in live:
        mg, tg = elements[g]
        L = lcm(mg, mh)
        settled = (monomial and len(tg) == 1) or L == kernel.mono_mul(mg, mh)
        c = classes.get(L)
        if c is None:
            classes[L] = [g, settled]
        elif settled:
            c[1] = True
    for (i, j), L in list(pairs.items()):
        if (
            divides(mh, L)
            and L != lcm(elements[i][0], mh)
            and L != lcm(elements[j][0], mh)
        ):
            del pairs[i, j]
    for L, (g, settled) in classes.items():
        if settled or any(L2 != L and divides(L2, L) for L2 in classes):
            continue
        pairs[g, h] = L
        heapq.heappush(heap, (kernel.order_key(L, block), g, h))
    live[:] = [g for g in live if not divides(mh, elements[g][0])] + [h]


def extend(basis: list[tuple], gens, block: int = 0) -> list[tuple]:
    """A Groebner basis of basis + gens, basis being one already, as
    (lead, monic terms) pairs listing the lead first; neither reduced nor
    sorted, and [(1, {1: 1})] once a constant turns up."""
    elements = list(basis)  # (lead, monic terms, lead first), by entry
    live = list(range(len(elements)))  # indices of the basis that reduces
    pairs: dict = {}  # pending (i, j) -> lcm of the two leads
    heap: list = []  # (order_key(lcm), i, j); entries not in pairs are stale

    def enter(lead, terms) -> bool:
        """Add a monic element unless it is a constant; False if it is."""
        if not any(lead):
            return False
        elements.append((lead, terms))
        _update(len(elements) - 1, elements, live, pairs, heap, block)
        return True

    for g in gens:
        lead, lc = leading_term(g, block)
        if not enter(lead, _monic_terms({lead: lc, **g.terms}, lead)):
            return [(lead, {lead: Fraction(1)})]
    reducers = [elements[g] for g in live]
    while heap:
        _, i, j = heapq.heappop(heap)
        L = pairs.pop((i, j), None)
        if L is None:
            continue
        s = _s_polynomial(elements[i], elements[j], L)
        r = kernel.normal_form(s, reducers, block) if s else s
        if r:
            lead = next(iter(r))
            if not enter(lead, _monic_terms(r, lead)):
                return [(lead, {lead: Fraction(1)})]
            reducers = [elements[g] for g in live]
    return reducers


def _reduce(elements, block: int) -> list[dict]:
    """The reduced monic basis from a Groebner basis of (lead, monic terms)
    pairs, as term dicts sorted by increasing lead, each lead first."""
    # minimal part: drop elements whose lead another lead properly divides;
    # no two leads are equal, since an entering element's lead drops any
    # equal one, and a remainder's lead is irreducible by the basis
    kept = [
        a
        for a in elements
        if not any(b[0] != a[0] and kernel.mono_divides(b[0], a[0]) for b in elements)
    ]
    reduced = []
    for i, (lead, terms) in enumerate(kept):
        r = kernel.normal_form(terms, kept[:i] + kept[i + 1 :], block)
        reduced.append((kernel.order_key(lead, block), r))
    reduced.sort(key=lambda kr: kr[0])
    return [r for _, r in reduced]


def groebner_basis(ideal: PolyIdeal, block: int = 0) -> list[Polynomial]:
    """Reduced monic basis, sorted by increasing leading monomial; every
    element lists its terms in decreasing order, its lead first."""
    reduced = _reduce(extend([], ideal.generators, block), block)
    return [Polynomial._trusted(ideal.ambient, r) for r in reduced]


def normal_form(p: Polynomial, basis, block: int = 0) -> Polynomial:
    """The remainder of p against a list of polynomials, each made monic."""
    if any(g.ambient != p.ambient for g in basis):
        raise AmbientMismatch("reducing against polynomials over a different ambient")
    leads = [(leading_term(g, block)[0], g.terms) for g in basis if not g.is_zero()]
    pairs = [(lead, _monic_terms(terms, lead)) for lead, terms in leads]
    return Polynomial._trusted(p.ambient, kernel.normal_form(p.terms, pairs, block))


def member(p: Polynomial, ideal: PolyIdeal | list, block: int = 0) -> bool:
    """Whether p lies in the ideal, given as a PolyIdeal or as a Groebner
    basis for the order: the remainder against any basis decides it."""
    if isinstance(ideal, list):
        return normal_form(p, ideal, block).is_zero()
    if p.ambient != ideal.ambient:
        raise AmbientMismatch("membership of a polynomial over a different ambient")
    if p.is_zero():
        return True
    return not kernel.normal_form(p.terms, extend([], ideal.generators, block), block)


def is_unit_ideal(ideal: PolyIdeal) -> bool:
    return saturates_to_unit(ideal, ())


def ideal_equal(i1: PolyIdeal, i2: PolyIdeal) -> bool:
    if i1.ambient != i2.ambient:
        raise AmbientMismatch("comparing ideals over different ambients")
    return groebner_basis(i1) == groebner_basis(i2)


def _lift_ambient(amb: LogAmbient) -> LogAmbient:
    """k[w, x]: the ambient with a fresh ordinary variable w put first, w
    the first of w, w_, w__, ... that names no variable."""
    w = "w"
    while w in amb.names():
        w += "_"
    return LogAmbient(((w, ORDINARY),) + amb.variables)


def _lift(basis: list[tuple]) -> list[tuple]:
    """(lead, terms) pairs over k[x] as pairs over k[w, x], w exponent 0."""
    return [
        ((0,) + lead, {(0,) + e: c for e, c in terms.items()}) for lead, terms in basis
    ]


def _inverse_equation(scratch: LogAmbient, f_terms: dict) -> Polynomial:
    """w*f - 1 on the lift, f given by its terms over k[x]."""
    wf = {(1,) + e: c for e, c in f_terms.items()}
    wf[(0,) * scratch.n] = Fraction(-1)
    return Polynomial._trusted(scratch, wf)


def saturate(ideal: PolyIdeal, f: Polynomial) -> PolyIdeal:
    """(I : f^inf): by division for a principal ideal and a monomial f,
    otherwise by eliminating w from the lift (see the module docstring)."""
    if f.ambient != ideal.ambient:
        raise AmbientMismatch("saturation element over a different ambient")
    if f.is_zero():
        raise MwbError("saturation at zero")
    amb = ideal.ambient
    if len(ideal.generators) < 2 and len(f.terms) == 1:
        (m,) = f.terms
        return PolyIdeal(amb, [_divide_out(g, m) for g in ideal.generators])
    lifted = _lift(extend([], ideal.generators))
    grown = extend(lifted, [_inverse_equation(_lift_ambient(amb), f.terms)], block=1)
    # under the order eliminating w, an element whose lead is free of w is
    # free of w altogether
    kept = [r for r in _reduce(grown, 1) if not next(iter(r))[0]]
    return PolyIdeal(
        amb, [Polynomial._trusted(amb, {e[1:]: c for e, c in r.items()}) for r in kept]
    )


def _divide_out(g: Polynomial, m) -> Polynomial:
    """monic(g / x^e), x^e the largest monomial in m's variables dividing g."""
    e = tuple(min(t[i] for t in g.terms) if k else 0 for i, k in enumerate(m))
    q = {kernel.mono_div(t, e): c for t, c in g.terms.items()}
    return monic(Polynomial._trusted(g.ambient, q))


def saturates_to_unit(ideal: PolyIdeal, names) -> bool:
    """Whether I : (prod names)^inf is the unit ideal, without computing the
    saturation: whether the localized ring is the zero ring."""
    return saturates_to_unit_on_charts(ideal, [names])[0]


def saturates_to_unit_on_charts(ideal: PolyIdeal, name_sets) -> list[bool]:
    """saturates_to_unit(ideal, names) for each names in name_sets: False
    when every generator vanishes at the chart's origin (the named
    variables 1, the rest 0), and otherwise whether chart_dimensions, one
    call for all the sets left, finds the zero ring."""
    amb = ideal.ambient
    out = []
    for names in name_sets:
        f = [0] * amb.n
        for name in names:
            f[amb.index(name)] = 1
        # a term's value there is its coefficient when every variable it
        # involves is inverted, and 0 otherwise
        values = (
            sum(c for e, c in g.terms.items() if all(f[i] or not k for i, k in enumerate(e)))
            for g in ideal.generators
        )
        out.append(None if any(values) else False)
    asked = [names for names, v in zip(name_sets, out) if v is None]
    if asked:
        dims = iter(chart_dimensions(ideal, asked))
        out = [next(dims) < 0 if v is None else v for v in out]
    return out


def saturate_at_variables(ideal: PolyIdeal, names) -> PolyIdeal:
    """Saturation at a product of variables, taken one variable at a time."""
    out = ideal
    for n in names:
        out = saturate(out, variable(ideal.ambient, n))
    return out


def dimension(ideal: PolyIdeal, names=()) -> int:
    """Krull dimension of (R/I)_f, which is that of R/(I : f^inf), f the
    product of the named variables (1 when none); -1 for the zero ring."""
    return chart_dimensions(ideal, [names])[0]


def chart_dimensions(ideal: PolyIdeal, name_sets) -> list[int]:
    """dimension(ideal, names) for each names in name_sets: by the module
    docstring's two theorems (a unit generator: -1; one generator: n - 1)
    when they apply, and otherwise off a lift of one basis of I, built at
    the first name set that needs it."""
    amb = ideal.ambient
    n = amb.n
    gens = ideal.generators
    units = [e for g in gens if len(g.terms) == 1 for e in g.terms]
    basis = dim = lifted = scratch = None  # built when first needed
    out = []
    for names in name_sets:
        f = [0] * n
        for name in names:
            f[amb.index(name)] += 1
        if units and any(all(f[i] or not k for i, k in enumerate(e)) for e in units):
            out.append(-1)
            continue
        if len(gens) == 1:
            out.append(n - 1)
            continue
        if basis is None:
            basis = extend([], gens)
            dim = _leads_dimension([lead for lead, _ in basis], n)
        if dim < 0 or not names:  # the zero ring stays zero on every chart
            out.append(dim)
            continue
        if lifted is None:
            lifted, scratch = _lift(basis), _lift_ambient(amb)
        grown = extend(lifted, [_inverse_equation(scratch, {tuple(f): Fraction(1)})])
        out.append(_leads_dimension([lead for lead, _ in grown], n + 1))
    return out


def _leads_dimension(leads, n: int) -> int:
    """Krull dimension of k[x_1, ..., x_n] modulo the ideal of the leads of
    a grevlex Groebner basis, by maximal independent variable sets; -1 when
    the basis is the unit ideal's."""
    if leads and not any(leads[0]):
        return -1
    for size in range(n, 0, -1):
        for sel in itertools.combinations(range(n), size):
            if all(any(e[i] for i in range(n) if i not in sel) for e in leads):
                return size
    return 0


def codimension(ideal: PolyIdeal, names=()) -> int:
    """n - dimension(ideal, names); n + 1 when the localized ring is zero."""
    return ideal.ambient.n - dimension(ideal, names)

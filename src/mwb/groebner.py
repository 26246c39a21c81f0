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
of the work, so every count repeats from run to run.  S-polynomials that
vanish before reduction (two monomials) are not reduced.  Entering an
element h updates the pending pairs the way of Gebauer and Moller (On an
installation of Buchberger's algorithm, J. Symb. Comp. 1988):

- new pairs (g, h) are grouped by lcm; a class whose lcm another class's
  lcm properly divides goes (chain criterion), a class holding a pair with
  coprime leads goes (Buchberger's criterion, which clears the class),
  and every other class keeps one pair, the one with the oldest g;
- an old pair (i, j) goes when lead(h) divides its lcm L and L is neither
  lcm(lead(i), lead(h)) nor lcm(lead(j), lead(h));
- every basis element whose lead lead(h) divides leaves the basis that
  reduces and makes new pairs; its pending pairs stay.

A skipped pair's S-polynomial has a standard representation through the
pairs that are reduced, so what the run builds is a Groebner basis of the
ideal, as the all-pairs run's is.  Why the output cannot change: its
minimal part with tails reduced is the reduced monic basis, which is
unique for the order; each element is a normal form, so its terms come
in decreasing order, lead first; and bases are sorted by lead.  Nor do
extend's unreduced bases change a remainder (the full normal form modulo
any Groebner basis is unique) or the leading-term ideal dimension reads.
The run stops at the first constant it meets, with [1], the reduced
basis of the unit ideal under every order.

Saturation of a principal ideal at a monomial is division, since k[x] is
a UFD and each variable is prime: (g) : m^inf = (g / x^e), x^e the largest
monomial in m's variables dividing g.  Elimination runs for every other
ideal, and only there: adjoin w, add w*f - 1, eliminate w with a block
order.  Products are saturated factor by factor (saturate_at_variables):
one elimination at the whole product measured slower on the drop corpus.

Chart questions need no saturated ideal.  Write R_f for k[x] with the
named variables inverted (f their product).  Two theorems come first, in
this order, and need no basis: a generator c*x^a whose variables are all
named is a unit of R_f (k[x] is a UFD and each variable is prime, so the
units of R_f are exactly these terms), and the ring is zero; otherwise a
single generator is a nonzero nonunit of the affine domain R_f, which cuts
the dimension by exactly one (Krull's principal ideal theorem; affine
domains are catenary).  Every other ideal goes through the lift:
(R/I)_f = R[w]/(I, w*f - 1), so dimension and codimension read one grevlex
basis of it.  saturates_to_unit asks whether the dimension is negative,
so it answers by the same theorems.

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
    monomial,
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
    mh = elements[h][0]
    lcm, divides = kernel.mono_lcm, kernel.mono_divides
    classes: dict = {}  # lcm -> [oldest g with that lcm, whether any is coprime]
    for g in live:
        mg = elements[g][0]
        L = lcm(mg, mh)
        coprime = L == kernel.mono_mul(mg, mh)
        c = classes.get(L)
        if c is None:
            classes[L] = [g, coprime]
        elif coprime:
            c[1] = True
    for (i, j), L in list(pairs.items()):
        if (
            divides(mh, L)
            and L != lcm(elements[i][0], mh)
            and L != lcm(elements[j][0], mh)
        ):
            del pairs[i, j]
    for L, (g, coprime) in classes.items():
        if coprime or any(L2 != L and divides(L2, L) for L2 in classes):
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


def groebner_basis(ideal: PolyIdeal, block: int = 0) -> list[Polynomial]:
    """Reduced monic basis, sorted by increasing leading monomial; every
    element lists its terms in decreasing order, its lead first."""
    elements = extend([], ideal.generators, block)
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
    return [Polynomial._trusted(ideal.ambient, r) for _, r in reduced]


def normal_form(p: Polynomial, basis, block: int = 0) -> Polynomial:
    pairs = [(leading_term(g, block)[0], g.terms) for g in basis if not g.is_zero()]
    return Polynomial._trusted(p.ambient, kernel.normal_form(p.terms, pairs, block))


def member(p: Polynomial, ideal: PolyIdeal | list, block: int = 0) -> bool:
    basis = ideal if isinstance(ideal, list) else groebner_basis(ideal, block)
    if p.is_zero():
        return True
    return normal_form(p, basis, block).is_zero()


def is_unit_ideal(ideal: PolyIdeal) -> bool:
    basis = groebner_basis(ideal)
    return len(basis) == 1 and basis[0].is_constant()


def ideal_equal(i1: PolyIdeal, i2: PolyIdeal) -> bool:
    if i1.ambient != i2.ambient:
        raise AmbientMismatch("comparing ideals over different ambients")
    return groebner_basis(i1) == groebner_basis(i2)


def _fresh_name(taken, base="w") -> str:
    name = base
    while name in taken:
        name = name + "_"
    return name


def _rabinowitsch(ideal: PolyIdeal, f: Polynomial) -> tuple[str, PolyIdeal]:
    """I + (w*f - 1) in k[w, x], with w a fresh variable put first."""
    amb = ideal.ambient
    w = _fresh_name(amb.names())
    scratch = LogAmbient(((w, ORDINARY),) + amb.variables)
    lifted = [
        Polynomial._trusted(scratch, {(0,) + e: c for e, c in g.terms.items()})
        for g in ideal.generators
    ]
    wf = {(1,) + e: c for e, c in f.terms.items()}
    wf[(0,) * scratch.n] = Fraction(-1)
    lifted.append(Polynomial._trusted(scratch, wf))
    return w, PolyIdeal(scratch, lifted)


def saturate(ideal: PolyIdeal, f: Polynomial) -> PolyIdeal:
    """(I : f^inf): by division for a principal ideal and a monomial f, by
    Rabinowitsch elimination of an auxiliary variable otherwise."""
    if f.ambient != ideal.ambient:
        raise AmbientMismatch("saturation element over a different ambient")
    if f.is_zero():
        raise MwbError("saturation at zero")
    amb = ideal.ambient
    if len(ideal.generators) < 2 and len(f.terms) == 1:
        (m,) = f.terms
        return PolyIdeal(amb, [_divide_out(g, m) for g in ideal.generators])
    w, lifted = _rabinowitsch(ideal, f)
    basis = groebner_basis(lifted, block=1)
    kept = [g for g in basis if g.degree_in(w) == 0]
    back = [Polynomial(amb, {e[1:]: c for e, c in g.terms.items()}) for g in kept]
    return PolyIdeal(amb, back)


def _divide_out(g: Polynomial, m) -> Polynomial:
    """monic(g / x^e), x^e the largest monomial in m's variables dividing g."""
    e = tuple(min(t[i] for t in g.terms) if k else 0 for i, k in enumerate(m))
    q = {kernel.mono_div(t, e): c for t, c in g.terms.items()}
    return monic(Polynomial._trusted(g.ambient, q))


def saturates_to_unit(ideal: PolyIdeal, names) -> bool:
    """Whether I : (prod names)^inf is the unit ideal, without computing the
    saturation: whether the localized ring is the zero ring."""
    return dimension(ideal, names) < 0


def saturate_at_variables(ideal: PolyIdeal, names) -> PolyIdeal:
    """Saturation at a product of variables, taken one variable at a time."""
    out = ideal
    for n in names:
        out = saturate(out, variable(ideal.ambient, n))
    return out


def dimension(ideal: PolyIdeal, names=()) -> int:
    """Krull dimension of (R/I)_f, which is that of R/(I : f^inf), f the
    product of the named variables (1 when none); -1 for the zero ring.

    Two theorems answer first, in this order, with no basis.  A generator
    c*x^a with every variable of x^a named is a unit of R_f, so the ring is
    zero: -1.  Otherwise a single generator is a nonzero nonunit of the
    affine domain R_f, which cuts the dimension by exactly one (Krull's
    principal ideal theorem; affine domains are catenary): n - 1.  Every
    other ideal has its dimension read off the lift's basis."""
    n = ideal.ambient.n
    f = [0] * n
    for name in names:
        f[ideal.ambient.index(name)] += 1
    for g in ideal.generators:
        if len(g.terms) == 1:
            (e,) = g.terms
            if all(f[i] or not k for i, k in enumerate(e)):
                return -1
    if len(ideal.generators) == 1:
        return n - 1
    if names:
        ideal = _rabinowitsch(ideal, monomial(ideal.ambient, f))[1]
        n += 1
    leads = [lead for lead, _ in extend([], ideal.generators)]
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

"""Groebner bases over Q: Buchberger's algorithm, membership, saturation.

Everything runs through the kernel's normal-form loop; orders are grevlex
(block == 0) or a block elimination order putting the first k variables in
front (block == k).  Bases are reduced and monic, so they are unique for a
given order and the determinism of every downstream consumer rests on the
sorted pair selection here.

Saturation of a principal ideal at a monomial is division, since k[x] is
a UFD and each variable is prime: (g) : m^inf = (g / x^e), x^e the largest
monomial in m's variables dividing g.  Elimination runs for every other
ideal, and only there: adjoin w, add w*f - 1, eliminate w with a block
order.  Products are saturated factor by factor (saturate_at_variables):
one elimination at the whole product measured slower on the drop corpus.

Chart questions need no saturated ideal: (R/I)_f = R[w]/(I, w*f - 1), so
dimension and codimension read one grevlex basis of that lift, and
saturates_to_unit asks whether its dimension is negative.  Buchberger
stops at the first constant remainder, the reduced basis of the unit
ideal under every order.

Dimension is read off the leading-term ideal by maximal independent
variable sets, which is exact for a degree-compatible order like grevlex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import kernel
from .errors import AmbientMismatch, MwbError
from .poly import (
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    constant,
    monomial,
    rename,
    variable,
)


def leading_term(p: Polynomial, block: int = 0):
    if p.is_zero():
        raise MwbError("the zero polynomial has no leading term")
    lm = max(p.terms, key=lambda e: kernel.order_key(e, block))
    return lm, p.terms[lm]


def monic(p: Polynomial, block: int = 0) -> Polynomial:
    lm, lc = leading_term(p, block)
    if lc == 1:
        return p
    inv = Fraction(1) / lc
    return Polynomial._trusted(p.ambient, {e: c * inv for e, c in p.terms.items()})


def _nf(p: Polynomial, basis, block: int) -> Polynomial:
    # basis: list of (lm, terms dict) with monic entries
    return Polynomial._trusted(p.ambient, kernel.normal_form(p.terms, basis, block))


def groebner_basis(ideal: PolyIdeal, block: int = 0) -> list[Polynomial]:
    """Reduced monic basis, sorted by increasing leading monomial."""
    gens = [monic(g, block) for g in ideal.generators if not g.is_zero()]
    if not gens:
        return []
    G = list(gens)
    lms = [leading_term(g, block)[0] for g in G]

    def pairdata(i, j):
        return kernel.order_key(kernel.mono_lcm(lms[i], lms[j]), block)

    pairs = {(i, j): pairdata(i, j) for i, j in itertools.combinations(range(len(G)), 2)}
    while pairs:
        (i, j) = min(pairs, key=lambda ij: (pairs[ij], ij))
        del pairs[(i, j)]
        L = kernel.mono_lcm(lms[i], lms[j])
        # Buchberger's coprimality criterion
        if L == kernel.mono_mul(lms[i], lms[j]):
            continue
        qi = kernel.mono_div(L, lms[i])
        qj = kernel.mono_div(L, lms[j])
        # qi * G[i] has distinct terms; only qj * G[j] can cancel them
        s = {kernel.mono_mul(qi, e): c for e, c in G[i].terms.items()}
        for e, c in G[j].terms.items():
            m = kernel.mono_mul(qj, e)
            nc = s.get(m, Fraction(0)) - c
            if nc:
                s[m] = nc
            else:
                s.pop(m, None)
        s = Polynomial._trusted(ideal.ambient, s)
        r = _nf(s, list(zip(lms, (g.terms for g in G))), block)
        if not r.is_zero():
            r = monic(r, block)
            if r.is_constant():
                return [r]
            G.append(r)
            lms.append(leading_term(r, block)[0])
            k = len(G) - 1
            for i2 in range(k):
                pairs[(i2, k)] = pairdata(i2, k)

    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, g in enumerate(G):
        if not any(
            j != i
            and kernel.mono_divides(lms[j], lms[i])
            and (not kernel.mono_divides(lms[i], lms[j]) or j < i)
            for j in range(len(G))
        ):
            keep.append(i)
    reduced = []
    for i in keep:
        others = [(lms[j], G[j].terms) for j in keep if j != i]
        r = _nf(G[i], others, block)
        if not r.is_zero():
            reduced.append(monic(r, block))
    reduced.sort(key=lambda g: kernel.order_key(leading_term(g, block)[0], block))
    return reduced


def normal_form(p: Polynomial, basis, block: int = 0) -> Polynomial:
    pairs = [(leading_term(g, block)[0], g.terms) for g in basis if not g.is_zero()]
    return _nf(p, pairs, block)


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
    lifted = [rename(g, {}, scratch) for g in ideal.generators]
    lifted.append(variable(scratch, w) * rename(f, {}, scratch) - constant(scratch, 1))
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
    product of the named variables (1 when none); -1 for the zero ring."""
    if names:
        e = [0] * ideal.ambient.n
        for name in names:
            e[ideal.ambient.index(name)] += 1
        ideal = _rabinowitsch(ideal, monomial(ideal.ambient, e))[1]
    n = ideal.ambient.n
    basis = groebner_basis(ideal)
    if len(basis) == 1 and basis[0].is_constant():
        return -1
    leads = [leading_term(g)[0] for g in basis]
    for size in range(n, 0, -1):
        for sel in itertools.combinations(range(n), size):
            if all(any(e[i] for i in range(n) if i not in sel) for e in leads):
                return size
    return 0


def codimension(ideal: PolyIdeal, names=()) -> int:
    """n - dimension(ideal, names); n + 1 when the localized ring is zero."""
    return ideal.ambient.n - dimension(ideal, names)

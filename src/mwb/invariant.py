"""Logarithmic derivatives, order, maximal contact, and the invariant.

The ambient's log structure fixes which derivations exist: d/dx for an
ordinary variable, the Euler operator x d/dx for a monomial or exceptional
one.  Iterating them gives the chain I = D^{<=0} subset D^{<=1} subset ...;
the logarithmic order of I at a point p is the first m whose stage does not
vanish at p, infinite when the chain stabilizes while still vanishing.  A
stabilized chain is a monomial ideal in the log variables near p; its
monomial part is read off the stored generators' terms (smallest monomial
ideal containing them), with unit factors in chart-inverted variables
stripped generator by generator.

The invariant at p is computed by the usual maximal-contact recursion:
b_1 = logord, restrict the coefficient ideal

    C(I, b) = sum_{j<b} (D^{<=j}(I))^{b!/(b-j)}

to a maximal contact hypersurface, repeat; a trailing infinity records a
nonzero monomial part.  The mixed products prod_j g_j^{c_j} over the other
tuples with sum (b-j) c_j >= b! are left out: for every valuation v,
v(prod_j g_j^{c_j}) >= b! min_j v(g_j)/(b-j) (weighted AM-GM), so each is
integral over the pure powers, and the two forms agree up to integral
closure (Kollar, Lectures on resolution of singularities).  Entries are
normalized to a_i = b_i / prod_{j<i} (b_j - 1)!.  Invariants compare
lexicographically with a proper prefix counting as strictly larger than any
of its extensions.

Maximal contact elements are only accepted in rectifiable shape: a
coordinate times a unit monomial in inverted variables, or a triangular
c*x + (terms without x); other shapes raise NoRectifiableContact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import groebner, kernel
from .blowup import CenterIdeal, make_center
from .errors import MwbError, NoRectifiableContact
from .monomials import MonomialIdeal, minimalize, newton
from .poly import (
    LogAmbient,
    PolyIdeal,
    Polynomial,
    derivative,
    log_derivation,
    restrict,
    strip_inverted_units,
    variable,
)

INF = float("inf")


# -- invariants and their order ---------------------------------------------


@dataclass(frozen=True)
class Invariant:
    entries: tuple

    def __str__(self):
        return "(" + ", ".join(entry_str(e) for e in self.entries) + ")"

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0


def entry_str(e) -> str:
    if e == INF:
        return "inf"
    f = Fraction(e)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def compare(u: Invariant, v: Invariant) -> int:
    """Lexicographic with the twist that a proper prefix is larger: running
    out of entries means the recursion stopped, which dominates."""
    for a, b in zip(u.entries, v.entries):
        if a != b:
            return -1 if a < b else 1
    if len(u.entries) == len(v.entries):
        return 0
    return 1 if len(u.entries) < len(v.entries) else -1


# -- derivative tower -------------------------------------------------------


def _prune(ambient, gens) -> tuple[list[Polynomial], list[Polynomial]]:
    """Minimal-ish generating subset: lowest degree first, drop anything the
    kept part already generates.  Returns the kept generators and their
    Groebner basis.

    Everything downstream is invariant under this: ideals, their
    restrictions (ring maps), the monomial hull, and coefficient-ideal
    powers all depend on the generated ideal, not on the particular
    generating set, and the powers J^{b!/(b-j)} pay dearly for redundant
    generators."""
    order = sorted(
        gens,
        key=lambda g: (max(sum(e) for e in g.terms), sorted(g.terms.items())),
    )
    kept: list[Polynomial] = []
    basis: list[Polynomial] = []
    pairs: list[tuple] = []
    for g in order:
        if kept and not kernel.normal_form(g.terms, pairs, 0):
            continue
        kept.append(g)
        basis = groebner.groebner_basis(PolyIdeal(ambient, kept))
        pairs = groebner.lead_pairs(basis)
    return kept, basis


class DerivativeTower:
    """The chain D^{<=m}(I) with stored generator lists and their bases.

    Stage m+1 extends stage m by every log derivation of every stored
    generator; candidates reducing to zero against the previous stage's
    Groebner basis are dropped and the rest pruned to curb growth.  Stored
    generators, not the reduced bases, feed contact selection and
    coefficient ideals.  The tower serves the pointwise questions (log
    order, maximal contact, monomial part); d_leq needs none of this."""

    def __init__(self, ideal: PolyIdeal):
        self.ambient = ideal.ambient
        self.levels: list[list[Polynomial]] = [list(ideal.generators)]
        self.bases: list[list[Polynomial]] = [
            groebner.groebner_basis(ideal)
        ]

    def _extend(self):
        prev = self.levels[-1]
        pairs = groebner.lead_pairs(self.bases[-1])
        new = list(prev)
        for g in prev:
            for name in self.ambient.names():
                d = log_derivation(g, name)
                if d.is_zero():
                    continue
                r = groebner.monic_remainder(d, pairs)
                if not r.is_zero():
                    new.append(r)
        dedup, basis = _prune(self.ambient, new)
        self.levels.append(dedup)
        self.bases.append(basis)

    def level(self, m: int) -> list[Polynomial]:
        while len(self.levels) <= m:
            self._extend()
        return self.levels[m]

    def basis(self, m: int) -> list[Polynomial]:
        self.level(m)
        return self.bases[m]

    def stabilized(self, m: int) -> bool:
        return self.basis(m + 1) == self.basis(m)


def d_leq(ideal: PolyIdeal, m: int) -> PolyIdeal:
    """The m-th stage of the derivation chain, as an ideal: the generators
    and m rounds of their log derivations, unpruned.  A derivation of
    sum a_i g_i lies in (g_i, D g_i), so each round need only derive the
    previous round's output."""
    gens = list(ideal.generators)
    new = gens
    for _ in range(m):
        new = [log_derivation(g, name) for g in new for name in ideal.ambient.names()]
        gens += new
    return PolyIdeal(ideal.ambient, gens)


def logord_at(ideal: PolyIdeal, point, tower: DerivativeTower | None = None):
    """min m with D^{<=m}(I) not vanishing at the point; INF if the chain
    stabilizes first (the zero ideal included)."""
    if tower is None:
        tower = DerivativeTower(ideal)
    point = tuple(Fraction(x) for x in point)
    m = 0
    while True:
        if any(g.evaluate(point) != 0 for g in tower.level(m)):
            return m
        if tower.stabilized(m):
            return INF
        m += 1


def max_logord(ideal: PolyIdeal):
    """min m with D^{<=m}(I) the unit ideal; INF if the chain stabilizes
    below it."""
    tower = DerivativeTower(ideal)
    m = 0
    while True:
        basis = tower.basis(m)
        if len(basis) == 1 and basis[0].is_constant():
            return m
        if tower.stabilized(m):
            return INF
        m += 1


def monomial_part(tower: DerivativeTower, m: int) -> MonomialIdeal:
    """Smallest monomial ideal containing the stabilized stage: generated by
    all terms of the stored generators, inverted-variable factors stripped
    generator by generator (they are units on the chart)."""
    amb = tower.ambient
    inv_idx = [amb.index(v) for v in amb.inverted]
    exps = []
    for g in tower.level(m):
        for e in g.terms:
            e2 = list(e)
            for i in inv_idx:
                e2[i] = 0
            exps.append(tuple(e2))
    return MonomialIdeal(amb.n, minimalize(exps))


# -- maximal contact --------------------------------------------------------


@dataclass(frozen=True)
class Contact:
    """A rectified maximal contact: the coordinate, and for triangular
    contacts the shift s with x = (new coordinate) + s."""

    name: str
    shift: Polynomial | None  # on the ambient without the coordinate


def maximal_contact(tower: DerivativeTower, b: int, point) -> Contact:
    amb = tower.ambient
    point = tuple(Fraction(x) for x in point)
    gens = tower.level(b - 1)

    # tier 1: unit monomial times a single ordinary coordinate; ties go to
    # the earliest ambient variable, not to generator storage order
    tier1 = set()
    for g in gens:
        s, _ = strip_inverted_units(g)
        if len(s.terms) != 1:
            continue
        (e, _c), = s.terms.items()
        if sum(e) != 1:
            continue
        i = e.index(1)
        name, flag = amb.variables[i]
        if flag == "ordinary" and point[i] == 0:
            tier1.add(i)
    if tier1:
        return Contact(amb.variables[min(tier1)][0], None)

    # tier 2: triangular c*x + (terms without x), earliest variable first
    for i, (name, flag) in enumerate(amb.variables):
        if flag != "ordinary":
            continue
        for g in gens:
            if g.evaluate(point) != 0:
                continue
            if g.degree_in(name) != 1:
                continue
            lin = {}
            rest = {}
            for e, c in g.terms.items():
                if e[i] == 1:
                    lin[e[:i] + (0,) + e[i + 1 :]] = c
                else:
                    rest[e] = c
            if set(lin) != {(0,) * amb.n}:
                continue  # coefficient of x must be a constant
            c0 = lin[(0,) * amb.n]
            sub = amb.drop(name)
            shift = Polynomial(
                sub, {e[:i] + e[i + 1 :]: -c / c0 for e, c in rest.items()}
            )
            return Contact(name, shift if not shift.is_zero() else None)

    for g in gens:
        for name, flag in amb.variables:
            if flag == "ordinary" and derivative(g, name).evaluate(point) != 0:
                raise NoRectifiableContact(
                    f"order-one element {g} at {point} is not in rectifiable shape"
                )
    raise NoRectifiableContact(
        f"no stored generator of stage {b - 1} has ordinary order one at {point}"
    )


# -- coefficient ideals -----------------------------------------------------


def minimal_tuples(b: int) -> list[tuple[int, ...]]:
    """The b single-entry tuples c with c_j = b!/(b-j): the dominance-minimal
    (c_0, ..., c_{b-1}) with sum (b-j) c_j >= b! and one nonzero entry.

    The products of every other minimal tuple are integral over theirs, so
    these alone give C(I, b) up to integral closure."""
    f = math.factorial(b)
    return [tuple(f // (b - j) if k == j else 0 for k in range(b)) for j in range(b)]


def coefficient_ideal(ideal: PolyIdeal, b: int, tower: DerivativeTower | None = None) -> PolyIdeal:
    """C(I, b), generated by the pure powers of the stored stage
    generators."""
    if tower is None:
        tower = DerivativeTower(ideal)
    levels = [tower.level(j) for j in range(b)]
    return _products_ideal(levels, b, ideal.ambient)


def _products_ideal(levels, b: int, ambient) -> PolyIdeal:
    if b > 4 and any(levels[j] for j in range(b)):
        # from b = 5 on the pure powers are J^{24} up to J^{120}; nothing at
        # desk scale gets here without the zero-restriction shortcut firing
        # first
        raise MwbError(f"coefficient ideal at order {b} exceeds the tool's scale")
    gens = []
    for j, c in enumerate(minimal_tuples(b)):
        level = _prune(ambient, levels[j])[0]
        for combo in itertools.combinations_with_replacement(level, c[j]):
            gens.append(math.prod(combo[1:], start=combo[0]))
    return PolyIdeal(ambient, _prune(ambient, gens)[0])


# -- the invariant recursion ------------------------------------------------


@dataclass(frozen=True)
class Center:
    """The center attached to an invariant at a point: rectified contacts
    with their fractional orders a_i, the factorial normalizer d, and the
    monomial part Q at original-ambient arity."""

    contacts: tuple[Contact, ...]
    orders: tuple[Fraction, ...]  # the a_i
    d: int
    q: MonomialIdeal


def invariant_at(ideal: PolyIdeal, point) -> tuple[Invariant, Center | None]:
    amb0 = ideal.ambient
    point = tuple(Fraction(x) for x in point)
    if len(point) != amb0.n:
        raise MwbError("point arity does not match the ambient")

    entries: list = []
    bvals: list[int] = []
    contacts: list[Contact] = []
    dropped: list[str] = []  # contact variables, in order
    work = ideal
    cur_point = point

    while True:
        tower = DerivativeTower(work)
        b = logord_at(work, cur_point, tower)
        if b == 0:
            if not entries:
                return Invariant((Fraction(0),)), None
            raise MwbError("restriction does not vanish at the point")
        if b == INF:
            m = len(tower.levels) - 1
            q = monomial_part(tower, m)
            q = _lift_monomial(q, tower.ambient, amb0, dropped)
            if not q.is_zero():
                entries.append(INF)
                # canonical form: the vertices of Q's Newton polyhedron
                q = MonomialIdeal(q.dim, newton(q).vertices)
            if not entries:
                return Invariant(()), None  # the zero ideal
            d = 1
            for bv in bvals:
                d *= math.factorial(bv - 1)
            return (
                Invariant(tuple(entries)),
                Center(tuple(contacts), tuple(entries[: len(bvals)]), d, q),
            )

        pre = 1
        for bv in bvals:
            pre *= math.factorial(bv - 1)
        entries.append(Fraction(b, pre))
        bvals.append(b)

        contact = maximal_contact(tower, b, cur_point)
        contacts.append(contact)
        i = tower.ambient.index(contact.name)
        dropped.append(contact.name)

        rlevels = []
        for j in range(b):
            rl = []
            for g in tower.level(j):
                r = restrict(g, contact.name, contact.shift)
                if not r.is_zero():
                    rl.append(r)
            rlevels.append(rl)
        sub = tower.ambient.drop(contact.name)
        if all(not rl for rl in rlevels):
            work = PolyIdeal(sub, ())  # restriction killed everything
        else:
            work = _products_ideal(rlevels, b, sub)
        cur_point = cur_point[:i] + cur_point[i + 1 :]

        if len(bvals) > amb0.n:
            raise MwbError("invariant recursion exceeded the ambient dimension")


def _lift_monomial(
    q: MonomialIdeal, stage: LogAmbient, amb0: LogAmbient, dropped: list[str]
) -> MonomialIdeal:
    """Re-inflate a stage monomial ideal to original arity (zero exponents on
    restricted coordinates) and check it lives in the log subring."""
    if q.is_zero():
        return MonomialIdeal(amb0.n, ())
    pos = [amb0.index(n) for n in stage.names()]
    gens = []
    for g in q.gens:
        e = [0] * amb0.n
        for i, x in zip(pos, g):
            e[i] = x
        gens.append(tuple(e))
    for e in gens:
        for i, (name, flag) in enumerate(amb0.variables):
            if flag == "ordinary" and e[i]:
                raise MwbError(
                    f"monomial part touches the ordinary variable {name}"
                )
    return MonomialIdeal(amb0.n, minimalize(gens))


# -- centers in reduced form ------------------------------------------------


def reduced_center(center: Center, ambient: LogAmbient) -> tuple[CenterIdeal, int, tuple[int, ...]]:
    """The center as a plain ideal with the Rees root: exponents a_i * d on
    the contact coordinates plus the monomial part, root lcm(a_i * d), and
    the cosmetic weights w_i = root / (a_i * d)."""
    exps = []
    for a in center.orders:
        e = a * center.d
        if e.denominator != 1:
            raise MwbError(f"center exponent {e} is not integral")
        exps.append(int(e))
    names = [c.name for c in center.contacts[: len(exps)]]
    root = math.lcm(*exps) if exps else 1
    c = make_center(list(zip(names, exps)), center.q, root)
    weights = tuple(root // e for e in exps)
    return c, root, weights


def center_display(center: Center, ambient: LogAmbient) -> str:
    """Reduced fractional form: (x^{1/w_1}, ..., Q^{1/root})."""
    c, root, weights = reduced_center(center, ambient)
    parts = []
    for (name, _e), w in zip(c.ordinary, weights):
        parts.append(name if w == 1 else f"{name}^{{1/{w}}}")
    if not center.q.is_zero():
        from .poly import format_monomial

        inner = ", ".join(format_monomial(ambient, g) for g in center.q.gens)
        parts.append(f"({inner})" + (f"^{{1/{root}}}" if root != 1 else ""))
    return "(" + ", ".join(parts) + ")"


# -- smoothness -------------------------------------------------------------


def is_smooth_toroidal(ideal: PolyIdeal, point) -> bool:
    """The vanishing locus is smooth and meets the toroidal boundary like a
    coordinate subspace: the invariant at the point is (1, ..., 1) of length
    equal to the codimension."""
    if ideal.is_zero():
        return True
    inv, _ = invariant_at(ideal, point)
    if inv.entries == (Fraction(0),):
        return True
    codim = groebner.codimension(ideal, sorted(ideal.ambient.inverted))
    return inv.entries == (Fraction(1),) * codim

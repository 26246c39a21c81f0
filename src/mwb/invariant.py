"""Logarithmic order, maximal contact, and the invariant.

The ambient's log structure fixes which derivations exist: d/dx for an
ordinary variable, the Euler operator x d/dx for a monomial or exceptional
one.  The logarithmic order of a polynomial at a point p is the order at p
of its terms that no log variable vanishing at p divides, infinite when
there is no such term.  An ideal's log order is the least over its
generators, since a derivation of h*g lies in (g, D g).

The invariant at p is computed in the Rees-algebra form of the
maximal-contact recursion (Villamayor, Rees algebras on smooth schemes,
2008; Abramovich-Temkin-Wlodarczyk, arXiv:1906.07106).  A family of
weighted pairs (g, delta), delta a positive rational, starts as (g, 1) for
each generator, and each step

  * reads the entry a = min over the family of logord_p(g) / delta;
  * closes the family under log derivations: (D g, delta - 1/a) joins while
    its weight stays positive.  Pairs are taken in descending weight, and a
    pair is kept only if it is nonzero modulo the kept pairs, all of weight
    at least its own; otherwise it and its derivatives are already in the
    Rees algebra;
  * takes a maximal contact among the kept pairs of weight 1/a, which have
    order at least one, or else among the reduced basis of the ideal of the
    kept pairs of weight at least 1/a; then restricts every kept pair to
    it.

The entries are the a_i themselves, nondecreasing rationals.  An empty
family ends the recursion.  A family whose orders are all infinite is
monomial in the log variables near p and ends it with an infinity: its
monomial part Q is the Newton polyhedron of the points m/delta, m over the
exponents of its terms with ordinary coordinates (a derivation in them
reaches every log monomial of a term) and inverted ones (units on the
chart) set to zero.  Invariants compare lexicographically with a proper
prefix counting as strictly larger than any of its extensions.

Maximal contact elements are only accepted in rectifiable shape: a
coordinate times a unit monomial in inverted variables, or a triangular
c*x + (terms without x); other shapes raise NoRectifiableContact.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction

from . import groebner
from .blowup import CenterIdeal, make_center
from .errors import MwbError, NoRectifiableContact
from .monomials import MonomialIdeal, monomial_ideal, newton
from .poly import (
    COEFF_BITS,
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    derivative,
    format_monomial,
    log_derivation,
    rational,
    restrict,
    strip_inverted_units,
)
from .record import record

INF = float("inf")

# Pairs one derivative closure may take before the recursion gives up with
# an error.  (x^200) on A^1 takes 200; no other closure of the test suite or
# the benchmark takes more than 34.
CLOSURE_BUDGET = 2000


# -- invariants and their order ---------------------------------------------


@functools.total_ordering
@record(frozen=True)
class Invariant:
    entries: tuple

    def __str__(self):
        return "(" + ", ".join(entry_str(e) for e in self.entries) + ")"

    def __lt__(self, other):
        return compare(self, other) < 0


def entry_str(e) -> str:
    if e == INF:
        return "inf"
    f = Fraction(e)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def point_str(point) -> str:
    return "(" + ", ".join(entry_str(x) for x in point) + ")"


def compare(u: Invariant, v: Invariant) -> int:
    """Lexicographic with the twist that a proper prefix is larger: running
    out of entries means the recursion stopped, which dominates."""
    for a, b in zip(u.entries, v.entries):
        if a != b:
            return -1 if a < b else 1
    if len(u.entries) == len(v.entries):
        return 0
    return 1 if len(u.entries) < len(v.entries) else -1


# -- log order ---------------------------------------------------------------


def log_order(g: Polynomial, point):
    """Log order of g at the point: the order there of its terms that no
    vanishing log variable divides, INF when every term has one;
    inverted-variable units are stripped first.  At the origin that order
    is the least total degree of those terms.

    Elsewhere the terms are grouped by their exponent m on the coordinates
    where the point is zero, g = sum over m of x^m h_m, each h_m free of
    those coordinates.  Moving the point to the origin shifts only the
    other coordinates, so every monomial of x^m h_m(x + p) has the same
    part m, and no two groups can cancel: the order is the least
    |m| + ord_p(h_m).  ord_p(h_m) is 0 when h_m(p) != 0, one evaluation,
    and otherwise the least k with a k-th partial derivative of h_m not
    vanishing at p.  Groups go by increasing |m|, and none is looked at
    once |m| reaches the least order found."""
    amb = g.ambient
    vanishing = [
        i for i, (_, flag) in enumerate(amb.variables) if flag != ORDINARY and not point[i]
    ]
    free = {e: c for e, c in g.terms.items() if not any(e[i] for i in vanishing)}
    if not free:
        return INF
    g, _ = strip_inverted_units(Polynomial._trusted(amb, free))
    zero = [i for i, x in enumerate(point) if not x]
    if len(zero) == amb.n:
        return min(sum(e) for e in g.terms)
    groups: dict = {}
    for e, c in g.terms.items():
        h = groups.setdefault(tuple(e[i] for i in zero), {})
        h[tuple(k if x else 0 for k, x in zip(e, point))] = c
    best = INF
    for m, h in sorted(groups.items(), key=lambda mh: sum(mh[0])):
        base = sum(m)
        if base >= best:
            break
        best = base + _order_at(Polynomial._trusted(amb, h), point, best - base)
    return best


def _order_at(h: Polynomial, point, bound):
    """The least k with a k-th partial derivative of h not vanishing at the
    point, or bound when no k below bound has one."""
    names = h.ambient.names()
    # partials in nondecreasing variable order, each multi-index once
    layer = [(h, 0)]
    for k in itertools.count():
        if k >= bound:
            return bound
        if any(p.evaluate(point) for p, _ in layer):
            return k
        layer = [
            (d, j)
            for p, i in layer
            for j in range(i, len(names))
            if (d := derivative(p, names[j])).terms
        ]


def logord_at(ideal: PolyIdeal, point):
    """min m with D^{<=m}(I) not vanishing at the point, the least log order
    of a generator; INF for the zero ideal and for a monomial one."""
    point = tuple(rational(x) for x in point)
    return min((log_order(g, point) for g in ideal.generators), default=INF)


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


def max_logord(ideal: PolyIdeal):
    """min m with D^{<=m}(I) the unit ideal; INF if the chain stabilizes
    below it.  Each round derives only the previous round's remainders
    against the stage's basis, as d_leq does, and groebner.extend grows
    that basis by them."""
    amb = ideal.ambient
    basis = groebner.extend([], ideal.generators)
    new = list(ideal.generators)
    m = 0
    while not basis or any(basis[0][0]):
        derived = (log_derivation(g, name) for g in new for name in amb.names())
        new = [r for r in (groebner.monic_remainder(d, basis) for d in derived) if r.terms]
        if not new:
            return INF
        basis = groebner.extend(basis, new)
        m += 1
    return m


# -- maximal contact --------------------------------------------------------


@record(frozen=True)
class Contact:
    """A rectified maximal contact: the coordinate, and for triangular
    contacts the shift s with x = (new coordinate) + s."""

    name: str
    shift: Polynomial | None  # on the ambient without the coordinate


def maximal_contact(amb: LogAmbient, gens: list[Polynomial], point) -> Contact:
    """A rectifiable maximal contact among candidates of order at least one
    at the point."""
    point = tuple(rational(x) for x in point)

    # tier 1: unit monomial times a single ordinary coordinate; ties go to
    # the earliest ambient variable, not to candidate order
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
        if flag == ORDINARY and point[i] == 0:
            tier1.add(i)
    if tier1:
        return Contact(amb.variables[min(tier1)][0], None)

    # tier 2: triangular c*x + (terms without x), earliest variable first
    for i, (name, flag) in enumerate(amb.variables):
        if flag != ORDINARY:
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
                sub, {e[:i] + e[i + 1 :]: Fraction(-c) / c0 for e, c in rest.items()}
            )
            return Contact(name, shift if not shift.is_zero() else None)

    for g in gens:
        for name, flag in amb.variables:
            if flag == ORDINARY and derivative(g, name).evaluate(point) != 0:
                # a reduced basis element can carry coefficients past the
                # budget that keeps them printable; name those by their bits
                bits = max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in g.terms.values()
                )
                shown = g if bits <= COEFF_BITS else f"with {bits}-bit coefficients"
                raise NoRectifiableContact(
                    f"order-one element {shown} at {point_str(point)} is not in rectifiable shape"
                )
    raise NoRectifiableContact(
        f"no contact candidate has ordinary order one at {point_str(point)}"
    )


# -- the derivative closure -------------------------------------------------


def minimal_tuples(b: int) -> list[tuple[int, ...]]:
    """The b single-entry tuples c with c_j = b!/(b-j): the dominance-minimal
    (c_0, ..., c_{b-1}) with sum (b-j) c_j >= b! and one nonzero entry, the
    exponents of the factorial coefficient ideal's pure powers.  Unused by
    the invariant; kept while the benchmark's span list names it."""
    f = math.factorial(b)
    return [tuple(f // (b - j) if k == j else 0 for k in range(b)) for j in range(b)]


def coefficient_ideal(pairs, a, point) -> list[tuple[Polynomial, Fraction]]:
    """The family closed under log derivations at entry a, pruned: each
    kept pair (g, delta) adds (D g, delta - 1/a) while that weight is
    positive.  Pairs are taken by descending weight, then degree, and a
    pair is kept as its monic remainder against a Groebner basis of the
    pairs already kept, which groebner.extend grows by each kept remainder.
    Raises MwbError after CLOSURE_BUDGET pairs; the point only names where
    in that message."""
    amb = pairs[0][0].ambient
    step = 1 / a
    seq = itertools.count()
    heap = [(-d, max(map(sum, g.terms)), next(seq), g) for g, d in pairs]
    heapq.heapify(heap)
    kept: list[tuple[Polynomial, Fraction]] = []
    basis: list[tuple] = []  # groebner.extend's pairs
    taken = 0
    while heap:
        taken += 1
        if taken > CLOSURE_BUDGET:
            ideal = PolyIdeal(amb, [g for g, _ in pairs])
            raise MwbError(
                f"derivative closure of {ideal} at {point_str(point)}"
                f" exceeds {CLOSURE_BUDGET} pairs"
            )
        neg, _, _, g = heapq.heappop(heap)
        r = groebner.monic_remainder(g, basis)
        if not r.terms:
            continue
        kept.append((r, -neg))
        basis = groebner.extend(basis, [r])
        if -neg > step:
            for name in amb.names():
                dr = log_derivation(r, name)
                if dr.terms:
                    heapq.heappush(heap, (neg + step, max(map(sum, dr.terms)), next(seq), dr))
    return kept


def monomial_part(pairs) -> list[tuple[Fraction, ...]]:
    """The points m/delta of a family whose log orders are all infinite, m
    over its terms' exponents with ordinary and inverted coordinates set to
    zero.  Their Newton polyhedron is the family's monomial part."""
    amb = pairs[0][0].ambient
    keep = [
        flag != ORDINARY and name not in amb.inverted for name, flag in amb.variables
    ]
    return sorted(
        {
            tuple(x / d if k else Fraction(0) for x, k in zip(e, keep))
            for g, d in pairs
            for e in g.terms
        }
    )


# -- the invariant recursion ------------------------------------------------


@record(frozen=True)
class Center:
    """The center attached to an invariant at a point: rectified contacts
    with their orders a_i, and the monomial part Q at original-ambient
    arity, stored by its Newton vertices times scale.  scale is the least
    positive integer that makes every a_i * scale and every vertex an
    integer vector."""

    contacts: tuple[Contact, ...]
    orders: tuple[Fraction, ...]  # the a_i
    q: MonomialIdeal
    scale: int


def invariant_at(ideal: PolyIdeal, point) -> tuple[Invariant, Center | None]:
    amb0 = ideal.ambient
    point = tuple(rational(x) for x in point)
    if len(point) != amb0.n:
        raise MwbError(f"point has {len(point)} coordinates, the ambient has {amb0.n}")

    amb = amb0
    family = [(g, Fraction(1)) for g in ideal.generators]
    entries: list = []
    contacts: list[Contact] = []
    while family:
        a = min(log_order(g, point) / d for g, d in family)
        if a == 0:
            if not entries:
                return Invariant((Fraction(0),)), None
            raise MwbError("restriction does not vanish at the point")
        if a == INF:
            break
        entries.append(a)
        kept = coefficient_ideal(family, a, point)
        least = 1 / a
        try:
            contact = maximal_contact(amb, [g for g, d in kept if d == least], point)
        except NoRectifiableContact:
            # the order-one element may show only in the reduced basis of
            # the pairs of weight at least 1/a, the weight-1/a ideal
            heavy = PolyIdeal(amb, [g for g, d in kept if d >= least])
            contact = maximal_contact(amb, groebner.groebner_basis(heavy), point)
        contacts.append(contact)
        i = amb.index(contact.name)
        family = []
        for g, d in kept:
            r = restrict(g, contact.name, contact.shift)
            if r.terms:
                family.append((r, d))
        amb = amb.drop(contact.name)
        point = point[:i] + point[i + 1 :]

    if not entries and not family:
        return Invariant(()), None  # the zero ideal
    orders = tuple(entries)
    scale = math.lcm(*(x.denominator for x in orders))
    q = MonomialIdeal(amb0.n, ())
    if family:
        entries.append(INF)
        pos = [amb0.index(n) for n in amb.names()]
        points = []
        for p in monomial_part(family):
            full = [Fraction(0)] * amb0.n
            for i, x in zip(pos, p):
                full[i] = x
            points.append(full)
        den = math.lcm(*(x.denominator for p in points for x in p))
        verts = newton(monomial_ideal([[x * den for x in p] for p in points], amb0.n)).vertices
        scale = math.lcm(scale, *(Fraction(x, den).denominator for v in verts for x in v))
        q = MonomialIdeal(amb0.n, tuple(tuple(x * scale // den for x in v) for v in verts))
    return Invariant(tuple(entries)), Center(tuple(contacts), orders, q, scale)


# -- centers in reduced form ------------------------------------------------


def reduced_center(center: Center, ambient: LogAmbient) -> tuple[CenterIdeal, int, tuple[int, ...]]:
    """The center as a plain ideal with the Rees root: exponents
    a_i * scale on the contact coordinates plus the monomial part, root
    lcm(a_i * scale), and the cosmetic weights w_i = root / (a_i * scale)."""
    exps = [int(a * center.scale) for a in center.orders]
    names = [c.name for c in center.contacts]
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
        inner = ", ".join(format_monomial(ambient, g) for g in center.q.gens)
        parts.append(f"({inner})" + (f"^{{1/{root}}}" if root != 1 else ""))
    return "(" + ", ".join(parts) + ")"


"""Brute-force oracles the test suite trusts over the package's own code.

Everything here recomputes answers from first principles with exact
rational arithmetic: polyhedron membership by phase-one simplex
feasibility, vertex sets by the convex-combination characterization,
facets from the normal of every (n - 1)-subset of difference vectors,
faces from every subset of facets, valuations by direct minimization over
terms, Groebner bases by Buchberger's algorithm over every pair,
saturations by eliminating an auxiliary variable, unit saturations by
building the saturated ideal, dimensions from every variable set against
a basis's leading terms, Rabinowitsch lifts by renaming and
Polynomial arithmetic, coefficient ideals by every mixed product over the
minimal tuples, the invariant by the derivative tower and the factorial
coefficient ideal, the invariant's derivative closure with its weights as
Fractions, log orders by shifting the point to the origin and
reading the least degree, substitution by Polynomial powers and products,
normal forms by scanning every pending term for the largest, blow-up
transforms by substituting the pullback images and dividing out the
exceptional monomial, multiplicities from the term ideal's Newton
polyhedron, tokens by matching at each position, expressions by one
Polynomial per factor, sum and product.  The implementations are deliberately naive; their job is to
disagree loudly, not to be fast.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import re
from fractions import Fraction

from mwb import kernel
from mwb.cli import LITERAL_DIGITS
from mwb.errors import IncompleteSubstitution, MwbError, NoRectifiableContact
from mwb.groebner import (
    extend,
    groebner_basis,
    is_unit_ideal,
    leading_term,
    monic,
    monic_remainder,
)
from mwb.invariant import (
    CLOSURE_BUDGET,
    INF,
    Center,
    Invariant,
    log_order,
    maximal_contact,
    point_str,
)
from mwb.monomials import MonomialIdeal, minimalize, monomial_ideal, newton
from mwb.polyhedra import Facet, NewtonPolyhedron
from mwb.poly import (
    COEFF_BITS,
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    coefficient_bits,
    constant,
    log_derivation,
    rational,
    rename,
    restrict,
    substitute,
    variable,
)


def feasible(A, b):
    """Is there x >= 0 with A x = b?  Exact phase-one simplex, Bland's rule."""
    m = len(A)
    n = len(A[0]) if m else 0
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    # Reduced-cost row for "minimize the artificial sum": with the
    # artificials basic, z_j - c_j is the column sum for real columns and
    # zero for artificial ones; the last entry tracks the objective value.
    cost = [Fraction(0)] * (n + m + 1)
    for row in tab:
        for j, v in enumerate(row):
            cost[j] += v
    for j in range(n, n + m):
        cost[j] = Fraction(0)
    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            raise AssertionError("phase-one objective unbounded")
        _, _, piv = min(ratios)
        pv = tab[piv][enter]
        tab[piv] = [v / pv for v in tab[piv]]
        for i in range(m):
            if i != piv and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[piv])]
        if cost[enter]:
            f = cost[enter]
            cost = [a - f * c for a, c in zip(cost, tab[piv])]
        basis[piv] = enter
    return cost[-1] == 0


def in_hull(p, gens):
    """Exact membership of p in conv(gens) + R^n_{>=0}."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return False
    n = len(p)
    m = len(gens)
    # lambda_k >= 0 and slack_j >= 0 with  sum lambda = 1,
    # sum lambda * g + slack = p.
    A = [[Fraction(1)] * m + [Fraction(0)] * n]
    b = [Fraction(1)]
    for j in range(n):
        A.append(
            [Fraction(g[j]) for g in gens]
            + [Fraction(1 if i == j else 0) for i in range(n)]
        )
        b.append(Fraction(p[j]))
    return feasible(A, b)


def hull_vertices(gens):
    """Vertex set of conv(gens) + orthant.

    A generator is a vertex exactly when it does not lie in the hull of
    the remaining generators (the recession cone is pointed).
    """
    uniq = sorted(set(tuple(g) for g in gens))
    out = set()
    for g in uniq:
        rest = [h for h in uniq if h != g]
        if not rest or not in_hull(g, rest):
            out.add(g)
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def support_min(u, pts):
    """min over pts of the inner product with u."""
    return min(dot(u, p) for p in pts)


def dominance_minimal(points):
    """Componentwise-minimal elements of a finite set of lattice points."""
    pts = sorted(set(tuple(p) for p in points), key=lambda e: (sum(e), e))
    out = []
    for p in pts:
        if not any(all(q[i] <= p[i] for i in range(len(p))) for q in out):
            out.append(p)
    return set(out)


def closure_generators(gens):
    """Minimal lattice generators of the integral closure, by box search.

    Any dominance-minimal lattice point of the hull is bounded by the
    componentwise maximum of the generators, so enumerating that box with
    the exact hull test is complete.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    box = [max(g[i] for g in gens) for i in range(n)]
    inside = [
        p
        for p in itertools.product(*(range(b + 1) for b in box))
        if in_hull(p, gens)
    ]
    return dominance_minimal(inside)


def valuation(weight, direction, ideal):
    """min over all terms of all generators of weight * <direction, e>."""
    best = None
    for g in ideal.generators:
        for e in g.terms:
            v = weight * sum(a * b for a, b in zip(direction, e))
            if best is None or v < best:
                best = v
    return best


@functools.lru_cache(maxsize=None)
def threshold_minimal_tuples(b):
    """Dominance-minimal tuples c with sum (b - j) c_j >= b!, by box search
    (about a second at b = 4, hence the cache)."""
    target = math.factorial(b)
    weights = [b - j for j in range(b)]
    box = [target // w + 1 for w in weights]
    hits = [
        c
        for c in itertools.product(*(range(bd + 1) for bd in box))
        if sum(w * x for w, x in zip(weights, c)) >= target
    ]
    return frozenset(dominance_minimal(hits))


def product_coefficient_ideal(levels, b, ambient):
    """C(I, b) in product form: every prod_j g_j^{c_j} with g_j a stored
    generator of the j-th stage, over every dominance-minimal tuple c with
    sum (b - j) c_j >= b!, mixed tuples included.  Stages and products are
    pruned by _prune, and b > 4 is refused: from b = 5 on the tuples run up
    to b!/1 = 120 factors."""
    if b > 4 and any(levels):
        raise MwbError(f"coefficient ideal at order {b} exceeds the tool's scale")
    levels = [_prune(ambient, lv)[0] for lv in levels]

    @functools.cache
    def power(j, c):
        return [
            math.prod(combo[1:], start=combo[0])
            for combo in itertools.combinations_with_replacement(levels[j], c)
        ]

    gens = []
    for c in threshold_minimal_tuples(b):
        factors = [power(j, cj) for j, cj in enumerate(c) if cj]
        for combo in itertools.product(*factors):
            gens.append(math.prod(combo[1:], start=combo[0]))
    return PolyIdeal(ambient, _prune(ambient, list(dict.fromkeys(gens)))[0])


def lead_pairs(basis):
    """The (lead, terms) pairs of a basis from groebner_basis, whose
    elements list their lead first, as kernel.normal_form takes them."""
    return [(next(iter(g.terms)), g.terms) for g in basis]


def _prune(ambient, gens):
    """Lowest degree first, drop anything the kept part already generates.
    Returns the kept generators and their Groebner basis."""
    order = sorted(
        gens,
        key=lambda g: (max(sum(e) for e in g.terms), sorted(g.terms.items())),
    )
    kept, basis = [], []
    for g in order:
        if kept and not kernel.normal_form(g.terms, lead_pairs(basis), 0):
            continue
        kept.append(g)
        basis = groebner_basis(PolyIdeal(ambient, kept))
    return kept, basis


class DerivativeTower:
    """The chain D^{<=m}(I): stage 0 is the generators, stage m+1 stage m's
    generators with the remainders of their log derivations against stage
    m's basis, pruned."""

    def __init__(self, ideal):
        self.ambient = ideal.ambient
        self.levels = [list(ideal.generators)]
        self.bases = [groebner_basis(ideal)]

    def level(self, m):
        while len(self.levels) <= m:
            prev = self.levels[-1]
            pairs = lead_pairs(self.bases[-1])
            new = list(prev)
            for g in prev:
                for name in self.ambient.names():
                    r = monic_remainder(log_derivation(g, name), pairs)
                    if not r.is_zero():
                        new.append(r)
            kept, basis = _prune(self.ambient, new)
            self.levels.append(kept)
            self.bases.append(basis)
        return self.levels[m]

    def stabilized(self, m):
        self.level(m + 1)
        return self.bases[m + 1] == self.bases[m]

    def logord(self, point):
        """min m with stage m not vanishing at the point; INF once the chain
        stabilizes first."""
        m = 0
        while not any(g.evaluate(point) != 0 for g in self.level(m)):
            if self.stabilized(m):
                return INF
            m += 1
        return m


def tower_invariant(ideal, point):
    """The invariant by the maximal-contact recursion on the derivative
    tower: b = the tower's log order, then the coefficient ideal
    C(I, b) = sum_j (D^{<=j} I)^{b!/(b-j)}, in product form, restricted to a
    maximal contact, and so on; the entries are a_i = b_i / prod_{j<i}
    (b_j - 1)!.  A stabilized tower contributes its monomial part, the
    smallest monomial ideal containing its last stage, with inverted
    variables stripped.  Returns the package's (Invariant, Center), the
    center's scale being d = prod (b_j - 1)!; b > 4 raises MwbError, as
    product_coefficient_ideal does.  Contacts follow the package's
    maximal_contact tier rules on the stage b - 1 generators."""
    amb0 = ideal.ambient
    point = tuple(Fraction(x) for x in point)
    entries, contacts = [], []
    d = 1
    work = ideal
    while True:
        tower = DerivativeTower(work)
        amb = tower.ambient
        b = tower.logord(point)
        if b == 0:
            if not entries:
                return Invariant((Fraction(0),)), None
            raise MwbError("restriction does not vanish at the point")
        if b == INF:
            # every term of the stabilized stage, inverted factors stripped,
            # at original arity
            keep = [name not in amb.inverted for name in amb.names()]
            pos = [amb0.index(name) for name in amb.names()]
            gens = []
            for g in tower.level(len(tower.levels) - 1):
                for e in g.terms:
                    full = [0] * amb0.n
                    for i, x, k in zip(pos, e, keep):
                        full[i] = x if k else 0
                    gens.append(tuple(full))
            orders = tuple(entries)
            q = MonomialIdeal(amb0.n, minimalize(gens))
            if q.gens:
                for (_, flag), column in zip(amb0.variables, zip(*q.gens)):
                    if flag == "ordinary" and any(column):
                        raise MwbError("monomial part touches an ordinary variable")
                q = MonomialIdeal(amb0.n, newton(q).vertices)
                entries.append(INF)
            if not entries:
                return Invariant(()), None
            return Invariant(tuple(entries)), Center(tuple(contacts), orders, q, d)
        entries.append(Fraction(b, d))
        d *= math.factorial(b - 1)
        contact = maximal_contact(amb, tower.level(b - 1), point)
        contacts.append(contact)
        levels = [
            [restrict(g, contact.name, contact.shift) for g in tower.level(j)]
            for j in range(b)
        ]
        levels = [[g for g in lv if not g.is_zero()] for lv in levels]
        sub = amb.drop(contact.name)
        # a restriction that kills every stage leaves the zero ideal, and
        # the minimal tuples need not be searched
        work = product_coefficient_ideal(levels, b, sub) if any(levels) else PolyIdeal(sub, ())
        i = amb.index(contact.name)
        point = point[:i] + point[i + 1 :]


def fraction_closure(pairs, a, point):
    """The derivative closure with Fraction weights: each kept pair
    (g, delta) adds (D g, delta - 1/a) while that weight is positive, taken
    by descending weight, then degree, each kept as its monic remainder
    against the basis extend grows from the kept Polynomials."""
    amb = pairs[0][0].ambient
    step = 1 / a
    seq = itertools.count()
    heap = [(-d, max(map(sum, g.terms)), next(seq), g) for g, d in pairs]
    heapq.heapify(heap)
    kept, basis = [], []
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
        r = monic_remainder(g, basis)
        if not r.terms:
            continue
        kept.append((r, -neg))
        basis = extend(basis, [r])
        if -neg > step:
            for name in amb.names():
                dr = log_derivation(r, name)
                if dr.terms:
                    heapq.heappush(heap, (neg + step, max(map(sum, dr.terms)), next(seq), dr))
    return kept


def fraction_weight_invariant(ideal, point):
    """The invariant recursion with Fraction weights delta, starting at 1:
    the entry a is the least log order over delta, the closure runs at
    weight step 1/a (fraction_closure), the contact comes from the pairs of
    weight 1/a or else the reduced basis of those of weight at least 1/a,
    and a family of infinite orders ends it with the Newton polyhedron of
    its points m/delta.  Returns the package's (Invariant, Center)."""
    amb0 = amb = ideal.ambient
    point = tuple(rational(x) for x in point)
    family = [(g, Fraction(1)) for g in ideal.generators]
    entries, contacts = [], []
    while family:
        a = min(log_order(g, point) / d for g, d in family)
        if a == 0:
            if not entries:
                return Invariant((Fraction(0),)), None
            raise MwbError("restriction does not vanish at the point")
        if a == INF:
            break
        entries.append(a)
        kept = fraction_closure(family, a, point)
        try:
            contact = maximal_contact(amb, [g for g, d in kept if d == 1 / a], point)
        except NoRectifiableContact:
            heavy = PolyIdeal(amb, [g for g, d in kept if d >= 1 / a])
            contact = maximal_contact(amb, groebner_basis(heavy), point)
        contacts.append(contact)
        i = amb.index(contact.name)
        family = [(restrict(g, contact.name, contact.shift), d) for g, d in kept]
        family = [(g, d) for g, d in family if g.terms]
        amb = amb.drop(contact.name)
        point = point[:i] + point[i + 1 :]
    if not entries and not family:
        return Invariant(()), None
    orders = tuple(entries)
    scale = math.lcm(*(x.denominator for x in orders))
    q = MonomialIdeal(amb0.n, ())
    if family:
        entries.append(INF)
        keep = [flag != ORDINARY and name not in amb.inverted for name, flag in amb.variables]
        pos = [amb0.index(name) for name in amb.names()]
        points = set()
        for g, d in family:
            for e in g.terms:
                full = [Fraction(0)] * amb0.n
                for i, x, k in zip(pos, e, keep):
                    full[i] = x / d if k else Fraction(0)
                points.add(tuple(full))
        den = math.lcm(*(x.denominator for p in points for x in p))
        scaled = [[x * den for x in p] for p in sorted(points)]
        verts = newton(monomial_ideal(scaled, amb0.n)).vertices
        scale = math.lcm(scale, *(Fraction(x, den).denominator for v in verts for x in v))
        q = MonomialIdeal(amb0.n, tuple(tuple(x * scale // den for x in v) for v in verts))
    return Invariant(tuple(entries)), Center(tuple(contacts), orders, q, scale)


def det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    rest = rows[1:]
    return sum(
        (-1) ** j * a * det([r[:j] + r[j + 1 :] for r in rest])
        for j, a in enumerate(rows[0])
        if a
    )


def rank(rows):
    """Rank by Gaussian elimination over Q."""
    mat = [[Fraction(x) for x in r] for r in rows]
    cols = len(mat[0]) if mat else 0
    out = 0
    for col in range(cols):
        piv = next((i for i in range(out, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[out], mat[piv] = mat[piv], mat[out]
        for i in range(len(mat)):
            if i != out and mat[i][col] != 0:
                f = mat[i][col] / mat[out][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[out])]
        out += 1
    return out


def _cross(vecs, n):
    """Integer normal to n - 1 row vectors, by cofactor expansion."""
    return tuple((-1) ** i * det([v[:i] + v[i + 1 :] for v in vecs]) for i in range(n))


def subset_newton_polyhedron(gens, n):
    """The Newton polyhedron by candidate normals: the cross product of
    every (n - 1)-subset of generator differences and coordinate directions,
    kept when its tight generators and free directions span a hyperplane.
    Same facet, vertex and generator order as the package; the tight facets
    of each generator, vertices included, by dot products, packed as the
    package's bitmasks (bit j for facet j)."""
    gens = sorted(set(tuple(g) for g in gens), reverse=True)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    facets = [Facet(unit[i], min(g[i] for g in gens)) for i in range(n)]
    diffs = set()
    for g, h in itertools.combinations(gens, 2):
        d = tuple(a - b for a, b in zip(g, h))
        diffs.add(max(d, tuple(-x for x in d)))
    cands = set()
    # coordinate directions first: their zeros keep the expansions short
    for rows in itertools.combinations(unit + sorted(diffs), n - 1):
        u = _cross(rows, n)
        if all(x >= 0 for x in u) or all(x <= 0 for x in u):
            u = tuple(abs(x) for x in u)
            g = math.gcd(*u)
            if g:
                cands.add(tuple(x // g for x in u))
    cands -= set(unit)
    for u in sorted(cands, reverse=True):
        level = support_min(u, gens)
        on = [g for g in gens if dot(u, g) == level]
        span = [tuple(a - b for a, b in zip(g, on[0])) for g in on[1:]]
        span += [unit[i] for i in range(n) if u[i] == 0]
        if span and rank(span) == n - 1:
            facets.append(Facet(u, level))
    tight = [[j for j, f in enumerate(facets) if dot(f.normal, g) == f.level] for g in gens]
    verts = [k for k, t in enumerate(tight) if rank([facets[j].normal for j in t]) == n]
    tags = [_mask(t) for t in tight]
    return NewtonPolyhedron(
        n,
        tuple(gens[k] for k in verts),
        tuple(facets),
        tuple(tags[k] for k in verts),
        tuple(gens),
        tuple(tags),
    )


def _mask(indices):
    return sum(1 << i for i in indices)


def subset_faces(p):
    """Every face of P, one subset of facets at a time, in the package's
    order: by decreasing dimension, then by defining facet set.  Each face
    is packed as the package's row (defining, on, free, dim) of bitmasks:
    facet indices, vertex indices into p.vertices, coordinate indices."""
    n = p.dim

    def tight(f, v):
        return dot(f.normal, v) == f.level

    out = {}
    for r in range(len(p.facets) + 1):
        for sel in itertools.combinations(range(len(p.facets)), r):
            on = tuple(v for v in p.vertices if all(tight(p.facets[i], v) for i in sel))
            if not on:
                continue
            free = tuple(
                i for i in range(n) if all(p.facets[j].normal[i] == 0 for j in sel)
            )
            defining = tuple(
                j
                for j, f in enumerate(p.facets)
                if all(tight(f, v) for v in on) and all(f.normal[i] == 0 for i in free)
            )
            span = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
            span += [tuple(int(j == i) for j in range(n)) for i in free]
            out[(on, free)] = defining, on, free, rank(span) if span else 0
    rows = sorted(out.values(), key=lambda f: (-f[3], f[0]))
    return [
        (_mask(defining), _mask(p.vertices.index(v) for v in on), _mask(free), dim)
        for defining, on, free, dim in rows
    ]


def elimination_saturate(ideal, f):
    """I : f^inf by elimination: adjoin a fresh first variable t, take the
    block order basis of I + (t f - 1) eliminating t, keep the elements
    free of t."""
    amb = ideal.ambient
    t = "t" + "_" * max(len(n) for n in amb.names())
    lifted_amb = LogAmbient(((t, "ordinary"),) + amb.variables)

    def lift(p):
        return Polynomial(lifted_amb, {(0,) + e: c for e, c in p.terms.items()})

    t_f = Polynomial(lifted_amb, {(1,) + e: c for e, c in f.terms.items()})
    lifted = [lift(g) for g in ideal.generators] + [t_f - constant(lifted_amb, 1)]
    basis = groebner_basis(PolyIdeal(lifted_amb, lifted), block=1)
    return PolyIdeal(
        amb,
        [
            Polynomial(amb, {e[1:]: c for e, c in g.terms.items()})
            for g in basis
            if all(e[0] == 0 for e in g.terms)
        ],
    )


def unit_after_saturation(ideal, names):
    """Is I : (prod names)^inf the unit ideal?  Saturates one variable at a
    time by elimination, then looks for 1 in a basis of the result."""
    for name in names:
        ideal = elimination_saturate(ideal, variable(ideal.ambient, name))
    return is_unit_ideal(ideal)


def basis_dimension(ideal):
    """Krull dimension of R/I from the leading terms of a grevlex basis,
    found by scanning, as the largest variable set no leading term lies
    in; -1 for the unit ideal.  No theorem shortcut."""
    n = ideal.ambient.n
    leads = [leading_term(g)[0] for g in groebner_basis(ideal)]
    if any(not any(e) for e in leads):
        return -1
    return max(
        size
        for size in range(n + 1)
        for sel in itertools.combinations(range(n), size)
        if all(any(e[i] for i in range(n) if i not in sel) for e in leads)
    )


def naive_substitute(p, images, target):
    """Ring map by Polynomial arithmetic: each term is the constant times
    the images' powers, and the terms are summed one Polynomial at a time."""
    missing = [n for n in p.ambient.names() if n not in images]
    if missing:
        raise IncompleteSubstitution(f"no image for {missing}")
    cache = [dict() for _ in range(p.ambient.n)]

    def pw(i, k):
        if k not in cache[i]:
            cache[i][k] = images[p.ambient.names()[i]] ** k
        return cache[i][k]

    out = Polynomial(target, {})
    for e, c in p.terms.items():
        t = constant(target, c)
        for i, k in enumerate(e):
            if k:
                t = t * pw(i, k)
        out = out + t
    return out


def taylor_log_order(g, point):
    """Log order at the point by the Taylor shift: drop the terms that a log
    variable vanishing at the point divides, divide out the largest
    monomial in the inverted variables, apply x -> x + p, and take the
    least total degree; INF when no term is left."""
    amb = g.ambient
    vanishing = [flag != ORDINARY and x == 0 for (_, flag), x in zip(amb.variables, point)]
    terms = {
        e: c for e, c in g.terms.items() if not any(k and v for k, v in zip(e, vanishing))
    }
    if not terms:
        return INF
    low = [
        min(e[i] for e in terms) if name in amb.inverted else 0
        for i, name in enumerate(amb.names())
    ]
    h = Polynomial(amb, {tuple(map(int.__sub__, e, low)): c for e, c in terms.items()})
    images = {n: variable(amb, n) + constant(amb, x) for n, x in zip(amb.names(), point)}
    return min(sum(e) for e in naive_substitute(h, images, amb).terms)


def substitution_total_transform(b, ideal):
    """Total transform by substituting the pullback image of every source
    variable."""
    return PolyIdeal(b.cox, [substitute(g, b.pullback, b.cox) for g in ideal.generators])


def polyhedron_multiplicities(b, ideal):
    """w_rho N_rho on every positive-level ray, N_rho the support of the
    term ideal's Newton polyhedron along u_rho: u_rho >= 0, so its minimum
    over the polyhedron is its minimum over the terms."""
    terms = [e for g in ideal.generators for e in g.terms]
    return {
        b.ray_vars[j]: b.weights[j] * support_min(b.fan.rays[j].direction, terms)
        for j in b.eplus()
    }


def division_weak_transform(b, ideal):
    """The substituted total transform divided term by term by the
    exceptional monomial of the polyhedron multiplicities, through the
    validating Polynomial constructor."""
    mult = polyhedron_multiplicities(b, ideal)
    m = [0] * b.cox.n
    for var, k in mult.items():
        m[b.cox.index(var)] += k
    gens = []
    for g in substitution_total_transform(b, ideal).generators:
        terms = {}
        for e, c in g.terms.items():
            q = tuple(a - k for a, k in zip(e, m))
            if min(q) < 0:
                raise MwbError(f"term {e} not divisible by {tuple(m)}")
            terms[q] = c
        gens.append(Polynomial(b.cox, terms))
    return PolyIdeal(b.cox, gens), mult


def scan_normal_form(f, basis, block):
    """Reduction of the term dict f by monic (lm, terms) pairs, finding the
    leading pending term by a full scan on every step."""
    work = dict(f)
    out = {}
    while work:
        t = max(work, key=lambda e: kernel.order_key(e, block))
        c = work.pop(t)
        if not c:
            continue
        hit = None
        for lm, terms in basis:
            q = kernel.mono_div(t, lm)
            if q is not None:
                hit = (q, terms)
                break
        if hit is None:
            out[t] = c
            continue
        q, terms = hit
        for e2, c2 in terms.items():
            m = kernel.mono_mul(q, e2)
            if m == t:
                continue
            nc = work.get(m, 0) - c * c2
            if nc:
                work[m] = nc
            else:
                work.pop(m, None)
    return out


def all_pairs_groebner_basis(ideal, block=0):
    """Reduced monic basis by Buchberger's algorithm with no criterion but
    coprime leads: every pair of elements is reduced against every element
    entered so far, smallest lcm first, then the result is minimalized and
    inter-reduced."""
    amb = ideal.ambient
    G = [monic(g, block) for g in ideal.generators]
    if not G:
        return []
    lms = [leading_term(g, block)[0] for g in G]

    def nf(p, idx):
        pairs = [(lms[j], G[j].terms) for j in idx]
        return Polynomial._trusted(amb, kernel.normal_form(p.terms, pairs, block))

    def lcm_key(ij):
        return kernel.order_key(kernel.mono_lcm(lms[ij[0]], lms[ij[1]]), block)

    pairs = set(itertools.combinations(range(len(G)), 2))
    while pairs:
        i, j = min(pairs, key=lambda ij: (lcm_key(ij), ij))
        pairs.discard((i, j))
        L = kernel.mono_lcm(lms[i], lms[j])
        if L == kernel.mono_mul(lms[i], lms[j]):
            continue
        qi = Polynomial(amb, {kernel.mono_div(L, lms[i]): 1})
        qj = Polynomial(amb, {kernel.mono_div(L, lms[j]): 1})
        r = nf(qi * G[i] - qj * G[j], range(len(G)))
        if not r.is_zero():
            r = monic(r, block)
            if set(r.terms) == {(0,) * amb.n}:
                return [r]
            G.append(r)
            lms.append(leading_term(r, block)[0])
            pairs |= {(k, len(G) - 1) for k in range(len(G) - 1)}

    keep = [
        i
        for i in range(len(G))
        if not any(
            j != i
            and kernel.mono_divides(lms[j], lms[i])
            and (not kernel.mono_divides(lms[i], lms[j]) or j < i)
            for j in range(len(G))
        )
    ]
    reduced = [monic(nf(G[i], [j for j in keep if j != i]), block) for i in keep]
    return sorted(
        reduced, key=lambda g: kernel.order_key(leading_term(g, block)[0], block)
    )


def rabinowitsch_by_rename(ideal, f):
    """I + (w*f - 1) built by renaming into k[w, x] and Polynomial
    arithmetic, w the first name free in the ambient."""
    amb = ideal.ambient
    w = "w"
    while w in amb.names():
        w += "_"
    lifted_amb = LogAmbient(((w, "ordinary"),) + amb.variables)
    lifted = [rename(g, {}, lifted_amb) for g in ideal.generators]
    lifted.append(
        variable(lifted_amb, w) * rename(f, {}, lifted_amb) - constant(lifted_amb, 1)
    )
    return PolyIdeal(lifted_amb, lifted)


_TOKEN = re.compile(
    r"\s*(?:(?P<frac>\d+/\d+)|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*'*)"
    r"|(?P<op>[-+*^(),]))"
)


def match_tokenize(text):
    """Tokens by matching at each position in turn, until only whitespace
    is left or nothing matches."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise MwbError(f"cannot read {rest[:20]!r}")
        pos = m.end()
        kind, val = m.lastgroup, m.group(m.lastgroup)
        digits = max(map(len, val.split("/"))) if kind in ("frac", "int") else 0
        if digits > LITERAL_DIGITS:
            raise MwbError(
                f"a number has {digits} digits, over the limit of {LITERAL_DIGITS}"
            )
        out.append((kind, val))
    return out


class PolynomialParser:
    """The expression language by Polynomial arithmetic: every factor is a
    validated Polynomial, and every product, sum and power a new one.

    expr := ['-'] term (('+'|'-') term)*
    term := factor factor*        (juxtaposition multiplies)
    factor := coefficient | name ['^' nat] | '(' expr ')' ['^' nat]"""

    def __init__(self, tokens, ambient):
        self.tokens = tokens
        self.pos = 0
        self.ambient = ambient

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        p = self.term() * sign
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            elif kind in ("frac", "int", "name") or (kind, val) == ("op", "("):
                p = p * self.factor()
            else:
                return p

    def factor(self):
        kind, val = self.take()
        if kind == "frac":
            num, den = (int(x) for x in val.split("/"))
            if not den:
                raise MwbError(f"coefficient {val} has a zero denominator")
            return self.const(Fraction(num, den))
        if kind == "int":
            return self.const(int(val))
        if kind == "name":
            i = self.ambient.index(val)
            e = [0] * self.ambient.n
            e[i] = self.power()
            return Polynomial(self.ambient, {tuple(e): 1})
        if (kind, val) == ("op", "("):
            p = self.expr()
            if self.take() != ("op", ")"):
                raise MwbError("missing closing parenthesis")
            return p ** self.power()
        raise MwbError(f"unexpected {val!r}" if val else "unexpected end of input")

    def power(self):
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise MwbError("exponent must be a natural number")
            return int(val)
        return 1

    def const(self, c):
        return Polynomial(self.ambient, {(0,) * self.ambient.n: c})


def polynomial_parse_ideal(text, ambient):
    """The comma-separated expressions of text as an ideal, each generator
    held to the coefficient budget once the input is used up."""
    parser = PolynomialParser(match_tokenize(text), ambient)
    gens = [parser.expr()]
    while parser.peek() == ("op", ","):
        parser.take()
        gens.append(parser.expr())
    if parser.peek() != (None, None):
        raise MwbError(f"trailing input near {parser.peek()[1]!r}")
    for p in gens:
        bits = max(coefficient_bits(p.terms))
        if bits > COEFF_BITS:
            raise MwbError(f"coefficients need {bits} bits, over the budget of {COEFF_BITS}")
    return PolyIdeal(ambient, gens)

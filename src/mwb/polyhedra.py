"""Newton polyhedra of monomial sets and their normal fans.

A finite set of exponent vectors G in N^n determines the unbounded polyhedron

    P = conv(G) + R^n_{>=0},

cut out by finitely many inequalities u . a >= N with inward normals u >= 0.
The recession cone is the whole orthant, so the coordinate hyperplanes always
contribute facets; the remaining ones are "exceptional".  The facets of P are
the extreme rays (u, -N), u != 0, of the cone of valid inequalities

    { (u, t) : u_i >= 0 for every i,  u . g + t >= 0 for every g in G },

found by the double description method (Fukuda and Prodon, Double
description method revisited, 1996): start from the simplicial cone of the
first n + 1 constraints, add one generator's constraint at a time, keep the
rays it does not cut off and join each pair it separates that is adjacent.
Rays are int lists while the passes run, each valued on the new row as it
is sorted, and become tuples once, as facet normals.

Each ray carries the set of constraint rows it is tight on as an int
bitmask, bit r for row r, and these tags are exact.  A starting ray's tag
is read off the inverse matrix; a kept ray gains the new row iff it is
tight on it; a joined ray is a positive combination of its two parents, so
it is tight on an earlier row iff both parents are, and it is tight on the
new row by construction.  Adjacency is the combinatorial test on tags: two
extreme rays are adjacent iff no third one is tight on every row both
are, that is, with common = z_i & z_j, no other tag z has common & z ==
common.  Adjacent rays of a cone in R^(n+1) span a face whose tight rows
have rank n - 1, so common.bit_count() >= n - 1 is tested first, as a
filter; the count of tags that contain common then stops at the third.
The final tags give the incidence of facets and generators with no dot
product, and the vertices follow from it:

    a generator g is a vertex iff no other generator's set of tight
    facets contains g's own.

The minimal face of P containing g is the intersection of the facets tight
at g.  P is pointed (its recession cone is the orthant), so that face has a
vertex, and every vertex is a generator.  If g is a vertex the face is {g}
and no other generator lies on it; if not, the face holds some vertex
h != g, and h is tight on every facet tight at g.

Faces are closed sets of facets: every face is the intersection of the
facets containing it, so the face lattice is reached from P by adding one
facet at a time and taking closures.  The normal fan subdivides the
nonnegative orthant; its maximal cones biject with vertices of P and a ray
rho lies in the cone of a vertex v exactly when the facet inequality of rho
is tight at v, which is the vertex's incidence.

Face dimensions come from the grading of the face lattice, with no rank
computation.  P is pointed and full-dimensional, so its face lattice is
graded by dimension: every maximal chain of faces from P down to a face G
has n - dim G steps.  Every facet of a face F is F cut by a facet of P, so
each cover relation below F is one widening step, the closure of F's
defining facets plus one more; every widening step goes strictly down.
The longest chain of widening steps from P to G therefore has n - dim G
steps.  A step adds at least one defining facet, so taking the faces in
order of the size of their defining sets visits every face after all the
faces one step above it.

Incidence is kept in one form from the double description on: an int
bitmask per vertex and per generator, bit j for facet j.  The lattice is
one pass, faces(p), that works on these masks only and yields a row of
masks per face: its defining facets, the vertices on it and its free
directions, with its dimension.  A generator lies on a face iff its tag
contains the face's defining mask, so callers such as
engine.one_step_check read f's terms on a face off p.tags.

All arithmetic is in exact integers, with no floats and no Fractions.
Affine independence uses Bareiss fraction-free elimination, whose
intermediate entries are integer minors and whose divisions are exact.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import EmptyIdeal, ZeroVector
from .record import field, record

Vec = tuple[int, ...]


def dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def exponent(v, n: int) -> Vec:
    """v as an int tuple of length n with no negative entry."""
    e = tuple(map(int, v))
    if len(e) != n:
        raise ZeroVector(f"exponent {e!r} does not have {n} entries")
    if min(e, default=0) < 0:
        raise ZeroVector(f"exponent {e!r} has a negative entry")
    return e


def primitive(v: Vec) -> Vec:
    """v divided by the gcd of its entries; rejects the zero vector."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ZeroVector(f"zero vector {v!r} has no primitive")
    return tuple(x // g for x in v)


def _unit(i: int, n: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def _rank(rows: list[Vec]) -> int:
    # Bareiss fraction-free elimination to echelon form: after each pivot
    # every remaining entry is a minor of the input, so the division by the
    # previous pivot is exact; a column with no pivot is skipped
    mat = [list(r) for r in rows if any(r)]
    cols = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    for col in range(cols):
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for row in mat[rank + 1 :]:
            a = row[col]
            for j in range(col + 1, cols):
                row[j] = (p * row[j] - a * prow[j]) // prev
        prev = p
        rank += 1
    return rank


def affinely_independent(points) -> bool:
    """Whether no point is an affine combination of the others: the
    vectors (1, a) over the points are linearly independent.  Repeated
    points are dependent; no points are independent."""
    rows = [(1, *a) for a in points]
    return _rank(rows) == len(rows)


@record(frozen=True)
class Facet:
    """Inward facet inequality  normal . a >= level  with primitive normal."""

    normal: Vec
    level: int

    def is_standard(self) -> bool:
        return sum(self.normal) == 1


@record(frozen=True)
class NewtonPolyhedron:
    """Vertices, facets and their incidence: incidence[k] is the bitmask
    of the facets tight at vertices[k], bit j for facet j.  Every generator
    keeps its tag as well, tags[k] being the mask of the facets tight at
    generators[k]; the generators are not part of P's identity, so
    equality skips them."""

    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]
    incidence: tuple[int, ...]
    generators: tuple[Vec, ...] = field(compare=False)
    tags: tuple[int, ...] = field(compare=False)


def newton_polyhedron(gens, n: int) -> NewtonPolyhedron:
    """Hull of the given exponent vectors plus the nonnegative orthant.

    Facets are listed with the coordinate facets first (in coordinate order),
    then the exceptional ones in lexicographically descending order of their
    primitive normals.  Generators are listed without repeats in
    lexicographically descending order, each with the bitmask of the facets
    tight at it, read off the double description tags; the vertices are a
    subset of them in the same order, and their tags are the incidence.
    """
    gens = sorted({exponent(g, n) for g in gens}, reverse=True)
    if not gens:
        raise EmptyIdeal("newton polyhedron of no generators")

    # constraint rows (e_i, 0), then (g, 1), row n + k for gens[k]; the first
    # n + 1 have the inverse [[I, 0], [-g_0, 1]], whose columns are the
    # starting rays, each tagged with the bitmask of the rows it is tight on
    every = (1 << (n + 1)) - 1
    rays = [[*_unit(i, n), -x] for i, x in enumerate(gens[0])] + [[0] * n + [1]]
    tags = [every ^ (1 << i) for i in range(n + 1)]
    for r, g in enumerate(gens[1:], n + 1):
        g += (1,)  # the row (g, 1)
        kept, kept_tags, pos, neg = [], [], [], []
        for x, z in zip(rays, tags):
            s = sum(map(mul, g, x))
            if s < 0:
                neg.append((s, x, z))
                continue
            if s > 0:
                pos.append((s, x, z))
            kept.append(x)
            kept_tags.append(z if s else z | 1 << r)
        for s, xi, zi in pos:
            for t, xj, zj in neg:
                common = zi & zj
                if common.bit_count() < n - 1:
                    continue
                # adjacent iff no third ray is tight on every row both are
                # tight on (i and j count themselves); no third, no break
                count = 0
                for z in tags:
                    if z & common == common:
                        count += 1
                        if count == 3:
                            break
                else:
                    x = [s * b - t * a for a, b in zip(xi, xj)]
                    if (d := gcd(*x)) != 1:  # primitive refuses the zero row
                        x = [a // d for a in x] if d else primitive(x)
                    kept.append(x)
                    kept_tags.append(common | 1 << r)
        rays, tags = kept, kept_tags

    # coordinate facets first, in coordinate order; then the exceptional
    # ones, descending (normals are distinct, so the tags never compare)
    found = [(sum(u) == 1, u, -x[n], z) for x, z in zip(rays, tags) if any(u := tuple(x[:n]))]
    found.sort(reverse=True)
    # the facets tight at each generator, as bitmasks: facet j is tight at
    # gens[k] iff its tag has row n + k
    tight = [0] * len(gens)
    for j, (_, _, _, z) in enumerate(found):
        z >>= n
        while z:
            low = z & -z
            tight[low.bit_length() - 1] |= 1 << j
            z ^= low
    # a vertex is a generator whose tight set no other generator's contains
    # (its own always does)
    verts = [k for k, t in enumerate(tight) if sum([t & u == t for u in tight]) == 1]
    return NewtonPolyhedron(
        n,
        tuple([gens[k] for k in verts]),
        tuple([Facet(u, level) for _, u, level, _ in found]),
        tuple([tight[k] for k in verts]),
        tuple(gens),
        tuple(tight),
    )


def contains(p: NewtonPolyhedron, a: Vec) -> bool:
    """Lattice membership a in P, by the facet inequalities."""
    return all(dot(f.normal, a) >= f.level for f in p.facets)


def facet_level(p: NewtonPolyhedron, u: Vec) -> int:
    """min_{a in P} u . a for u >= 0, attained at a vertex."""
    if any(x < 0 for x in u) or not any(x > 0 for x in u):
        raise ZeroVector(f"support direction {u!r} must be nonnegative and nonzero")
    return min(dot(u, v) for v in p.vertices)


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def faces(p: NewtonPolyhedron) -> list[tuple[int, int, int, int]]:
    """All nonempty faces of P, the full polyhedron included, as bitmasks.

    A row (defining, on, free, dim) per face: the facets defining it, the
    vertices on it, the coordinate directions free in its recession cone,
    and its dimension.  Rows come by decreasing dimension, then by defining
    facets as ascending index tuples.  A lattice point a of P lies on the
    face iff every defining facet inequality is tight at a, so
    p.generators[k] lies on it iff p.tags[k] & defining == defining.

    Faces are reached from P one facet at a time, level by level in the
    size of the defining set; the vertices on a selection, its free
    directions and its closure are bitmask operations on p.incidence and
    the facet normals.  Each selection is closed once, and a face's
    dimension is n minus the longest chain of widenings that reaches it
    (the module docstring)."""
    n = p.dim
    incidence = p.incidence
    # bitmasks: the vertices on each facet, the coordinates in each facet
    # normal's support and the facets whose normal is nonzero at each
    # coordinate
    on_facet = [0] * len(p.facets)
    for k, t in enumerate(incidence):
        for j in _bits(t):
            on_facet[j] |= 1 << k
    support = [0] * len(p.facets)
    touching = [0] * n
    for j, f in enumerate(p.facets):
        for i, x in enumerate(f.normal):
            if x:
                support[j] |= 1 << i
                touching[i] |= 1 << j

    # the face of P itself: every vertex, every direction free, no facet
    shape = {0: ((1 << len(p.vertices)) - 1, (1 << n) - 1)}
    depth = {0: 0}
    levels: list[list[int]] = [[] for _ in range(len(p.facets) + 1)]
    levels[0].append(0)
    closed: dict[int, int | None] = {}  # selection -> its closure, None if empty
    for level in levels:
        for face in level:
            on, free = shape[face]
            below = depth[face] + 1
            for j, mask in enumerate(on_facet):
                sel = face | 1 << j
                if sel == face:
                    continue
                sub = closed.get(sel, -1)  # -1: not closed yet
                if sub == -1:
                    verts = on & mask
                    if not verts:
                        closed[sel] = None
                        continue
                    dirs = free & ~support[j]
                    # the closure, an AND starting from -1: every facet
                    # tight at every vertex on the selection and zero on its
                    # free directions (two _bits loops, inlined: they are
                    # most of the lattice's time)
                    rest = verts
                    while rest:
                        low = rest & -rest
                        sub &= incidence[low.bit_length() - 1]
                        rest ^= low
                    rest = dirs
                    while rest:
                        low = rest & -rest
                        sub &= ~touching[low.bit_length() - 1]
                        rest ^= low
                    closed[sel] = sub
                    if sub not in shape:
                        shape[sub] = verts, dirs
                        levels[sub.bit_count()].append(sub)
                if sub is not None and depth.get(sub, 0) < below:
                    depth[sub] = below
    rows = [(face, on, free, n - depth[face]) for face, (on, free) in shape.items()]
    rows.sort(key=lambda row: (-row[3], tuple(_bits(row[0]))))
    return rows



@record(frozen=True)
class Ray:
    """A ray of the normal fan: a facet normal with its level."""

    direction: Vec
    level: int
    standard: bool


@record(frozen=True)
class Cone:
    """A maximal cone, recorded by its vertex and the tight ray indices."""

    vertex: Vec
    rays: tuple[int, ...]


@record(frozen=True)
class NormalFan:
    dim: int
    rays: tuple[Ray, ...]
    maximal_cones: tuple[Cone, ...]

    def exceptional(self) -> list[int]:
        return [i for i, r in enumerate(self.rays) if not r.standard]

    def positive_level(self) -> list[int]:
        return [i for i, r in enumerate(self.rays) if r.level > 0]


def normal_fan(p: NewtonPolyhedron) -> NormalFan:
    """Normal fan of P as a subdivision of the orthant.

    Rays are the facet normals, standard rays e_1..e_n first, exceptional rays
    in lexicographically descending order (inherited from the facet list).
    Maximal cones biject with vertices and are listed by lexicographically
    descending vertex, as the vertices are; a cone's rays are the set bits
    of its vertex's incidence mask, the facets tight there, in ascending
    order.  The first n facets are the coordinate ones, so they are the
    standard rays.
    """
    n = p.dim
    rays = tuple([Ray(f.normal, f.level, j < n) for j, f in enumerate(p.facets)])
    js = range(len(rays))
    cones = [Cone(v, tuple([j for j in js if t >> j & 1])) for v, t in zip(p.vertices, p.incidence)]
    return NormalFan(n, rays, tuple(cones))

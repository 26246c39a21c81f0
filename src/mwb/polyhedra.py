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
rays it does not cut off and join each cut pair whose tight constraint sets
share a common face (the combinatorial adjacency test).

Each ray carries the set of constraint rows it is tight on, and these tags
are exact.  A starting ray's tag is read off the inverse matrix; a kept ray
gains the new row iff it is tight on it; a joined ray is a positive
combination of its two parents, so it is tight on an earlier row iff both
parents are, and it is tight on the new row by construction.  The final
tags therefore give the incidence of facets and generators with no dot
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

All arithmetic is in exact integers, with no floats and no Fractions.  Face
dimensions use Bareiss fraction-free elimination, whose intermediate
entries are integer minors and whose divisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import EmptyIdeal, ZeroVector

Vec = tuple[int, ...]


def dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def exponent(v, n: int) -> Vec:
    """v as an int tuple of length n with no negative entry."""
    e = tuple(int(x) for x in v)
    if len(e) != n:
        raise ZeroVector(f"exponent {e!r} does not have {n} entries")
    if any(x < 0 for x in e):
        raise ZeroVector(f"exponent {e!r} has a negative entry")
    return e


def primitive(v: Vec) -> Vec:
    """v divided by the gcd of its entries; rejects the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, x)
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


@dataclass(frozen=True)
class Facet:
    """Inward facet inequality  normal . a >= level  with primitive normal."""

    normal: Vec
    level: int

    def is_standard(self) -> bool:
        return sum(self.normal) == 1


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Vertices, facets and their incidence: incidence[k] is the set of
    indices of the facets tight at vertices[k].  Every generator keeps its
    tag as well, tags[k] being the facets tight at generators[k]; the
    generators are not part of P's identity, so equality skips them."""

    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]
    incidence: tuple[frozenset[int], ...]
    generators: tuple[Vec, ...] = field(compare=False)
    tags: tuple[frozenset[int], ...] = field(compare=False)

    def __str__(self) -> str:
        ineqs = ", ".join(
            f"{f.normal}>= {f.level}".replace(">=", " . a >= ") for f in self.facets
        )
        return f"NewtonPolyhedron(n={self.dim}, vertices={list(self.vertices)}, {ineqs})"


def newton_polyhedron(gens, n: int) -> NewtonPolyhedron:
    """Hull of the given exponent vectors plus the nonnegative orthant.

    Facets are listed with the coordinate facets first (in coordinate order),
    then the exceptional ones in lexicographically descending order of their
    primitive normals.  Generators are listed without repeats in
    lexicographically descending order, each with the set of facet indices
    tight at it, read off the double description tags; the vertices are a
    subset of them in the same order, and their tags are the incidence.
    """
    gens = sorted({exponent(g, n) for g in gens}, reverse=True)
    if not gens:
        raise EmptyIdeal("newton polyhedron of no generators")

    # constraint rows (e_i, 0), then (g, 1); the first n + 1 have the inverse
    # [[I, 0], [-g_0, 1]], whose columns are the starting rays, each tagged
    # with the rows it is tight on
    rows = [_unit(i, n) + (0,) for i in range(n)] + [g + (1,) for g in gens]
    every = frozenset(range(n + 1))
    rays = [(_unit(i, n) + (-gens[0][i],), every - {i}) for i in range(n)]
    rays.append(((0,) * n + (1,), every - {n}))
    for r in range(n + 1, len(rows)):
        vals = [dot(rows[r], x) for x, _ in rays]
        kept = [(x, z | {r} if s == 0 else z) for (x, z), s in zip(rays, vals) if s >= 0]
        cut = [j for j, t in enumerate(vals) if t < 0]
        for i in (i for i, s in enumerate(vals) if s > 0):
            for j in cut:
                common = rays[i][1] & rays[j][1]
                # adjacent iff no third ray is tight on every row both are tight on
                if len(common) < n - 1 or any(
                    common <= z for k, (_, z) in enumerate(rays) if k != i and k != j
                ):
                    continue
                s, t = vals[i], vals[j]
                joined = tuple(s * b - t * a for a, b in zip(rays[i][0], rays[j][0]))
                kept.append((primitive(joined), common | {r}))
        rays = kept

    # coordinate facets first, in coordinate order; then the exceptional
    # ones, descending; each keeps its tag
    tagged = sorted(
        ((Facet(x[:n], -x[n]), z) for x, z in rays if any(x[:n])),
        key=lambda fz: (fz[0].is_standard(), fz[0].normal),
        reverse=True,
    )
    # the facets tight at each generator (row r), read off the tags
    tight = [
        frozenset(j for j, (_, z) in enumerate(tagged) if r in z)
        for r in range(n, len(rows))
    ]
    # a vertex is a generator whose tight set no other generator's contains
    verts = [
        k
        for k, t in enumerate(tight)
        if not any(t <= u for m, u in enumerate(tight) if m != k)
    ]
    return NewtonPolyhedron(
        n,
        tuple(gens[k] for k in verts),
        tuple(f for f, _ in tagged),
        tuple(tight[k] for k in verts),
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


@dataclass(frozen=True)
class Face:
    """A face of P: tight facets, the vertices and the generators on it,
    free coordinate directions in its recession cone, and its dimension."""

    defining: tuple[int, ...]
    vertices: tuple[Vec, ...]
    generators: tuple[Vec, ...]
    free: tuple[int, ...]
    dim: int


def faces(p: NewtonPolyhedron) -> list[Face]:
    """All nonempty faces of P, the full polyhedron included, by decreasing
    dimension.  A lattice point a of P lies on the face iff every defining
    facet inequality is tight at a.

    The vertices on a selection of facets, and the closure (the facets
    tight at all of them), are read off p.incidence, and the generators on
    the face off p.tags.  Each selection is closed once: a selection
    reached again from another face is not pushed again, since its
    closure, and all it leads to, is already known."""
    n = p.dim
    tight = p.incidence
    out: dict[tuple[int, ...], Face] = {}
    todo = [frozenset()]
    seen = set(todo)
    while todo:
        sel = todo.pop()
        on = [k for k, t in enumerate(tight) if sel <= t]
        if not on:
            continue
        free = [i for i in range(n) if all(p.facets[j].normal[i] == 0 for j in sel)]
        # the closure: every facet tight on the whole face
        defining = tuple(
            j
            for j in sorted(frozenset.intersection(*(tight[k] for k in on)))
            if all(p.facets[j].normal[i] == 0 for i in free)
        )
        if defining in out:
            continue
        verts = tuple(p.vertices[k] for k in on)
        span = [tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]
        span += [_unit(i, n) for i in free]
        dim = _rank(span) if span else 0
        gens = tuple(g for g, t in zip(p.generators, p.tags) if t.issuperset(defining))
        out[defining] = Face(defining, verts, gens, tuple(free), dim)
        for j in range(len(p.facets)):
            if j not in defining:
                wider = frozenset((*defining, j))
                if wider not in seen:
                    seen.add(wider)
                    todo.append(wider)
    return sorted(out.values(), key=lambda f: (-f.dim, f.defining))


@dataclass(frozen=True)
class Ray:
    """A ray of the normal fan: a facet normal with its level."""

    direction: Vec
    level: int
    standard: bool


@dataclass(frozen=True)
class Cone:
    """A maximal cone, recorded by its vertex and the tight ray indices."""

    vertex: Vec
    rays: tuple[int, ...]


@dataclass(frozen=True)
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
    descending vertex, as the vertices are; a cone's rays are its vertex's
    incidence, the facets tight there, in ascending order.
    """
    rays = tuple(Ray(f.normal, f.level, f.is_standard()) for f in p.facets)
    cones = tuple(Cone(v, tuple(sorted(t))) for v, t in zip(p.vertices, p.incidence))
    return NormalFan(p.dim, rays, cones)

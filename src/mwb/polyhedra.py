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
share a common face (the combinatorial adjacency test).  Faces are closed
sets of facets: every face is the intersection of the facets containing it,
so the face lattice is reached from P by adding one facet at a time and
taking closures.  The normal fan subdivides the nonnegative orthant; its
maximal cones biject with vertices of P and a ray rho lies in the cone of a
vertex v exactly when the facet inequality of rho is tight at v.

All arithmetic is in exact integers, with no floats and no Fractions.  Ranks
use Bareiss fraction-free elimination, whose intermediate entries are
integer minors and whose divisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import EmptyIdeal, ZeroVector

Vec = tuple[int, ...]


def dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


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


@dataclass(frozen=True)
class Facet:
    """Inward facet inequality  normal . a >= level  with primitive normal."""

    normal: Vec
    level: int

    def is_standard(self) -> bool:
        return sum(self.normal) == 1


@dataclass(frozen=True)
class NewtonPolyhedron:
    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]

    def __str__(self) -> str:
        ineqs = ", ".join(
            f"{f.normal}>= {f.level}".replace(">=", " . a >= ") for f in self.facets
        )
        return f"NewtonPolyhedron(n={self.dim}, vertices={list(self.vertices)}, {ineqs})"


def newton_polyhedron(gens, n: int) -> NewtonPolyhedron:
    """Hull of the given exponent vectors plus the nonnegative orthant.

    Facets are listed with the coordinate facets first (in coordinate order),
    then the exceptional ones in lexicographically descending order of their
    primitive normals.  Vertices are a subset of the generators, listed in
    lexicographically descending order.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    if not gens:
        raise EmptyIdeal("newton polyhedron of no generators")
    for g in gens:
        if len(g) != n:
            raise ZeroVector(f"generator {g!r} does not have {n} entries")
        if any(x < 0 for x in g):
            raise ZeroVector(f"generator {g!r} has a negative entry")
    gens = sorted(set(gens), reverse=True)

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
    # ones, descending
    facets = sorted(
        (Facet(x[:n], -x[n]) for x, _ in rays if any(x[:n])),
        key=lambda f: (f.is_standard(), f.normal),
        reverse=True,
    )
    verts = []
    for g in gens:
        active = [f.normal for f in facets if dot(f.normal, g) == f.level]
        if active and _rank(active) == n:
            verts.append(g)
    return NewtonPolyhedron(n, tuple(verts), tuple(facets))


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
    """A face of P: tight facets, the vertices on it, free coordinate
    directions in its recession cone, and its dimension."""

    defining: tuple[int, ...]
    vertices: tuple[Vec, ...]
    free: tuple[int, ...]
    dim: int


def faces(p: NewtonPolyhedron) -> list[Face]:
    """All nonempty faces of P, the full polyhedron included, by decreasing
    dimension.  A lattice point a of P lies on the face iff every defining
    facet inequality is tight at a.

    Each selection of facets is closed once: a selection reached again
    from another face is not pushed again, since its closure, and all it
    leads to, is already known."""
    n = p.dim
    tight = [
        {j for j, f in enumerate(p.facets) if dot(f.normal, v) == f.level}
        for v in p.vertices
    ]
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
            for j, f in enumerate(p.facets)
            if all(j in tight[k] for k in on) and all(f.normal[i] == 0 for i in free)
        )
        if defining in out:
            continue
        verts = tuple(p.vertices[k] for k in on)
        span = [tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]
        span += [_unit(i, n) for i in free]
        dim = _rank(span) if span else 0
        out[defining] = Face(defining, verts, tuple(free), dim)
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
    descending vertex; a ray belongs to a cone iff its inequality is tight at
    the cone's vertex.
    """
    rays = tuple(Ray(f.normal, f.level, f.is_standard()) for f in p.facets)
    cones = []
    for v in p.vertices:
        tight = tuple(
            i for i, r in enumerate(rays) if dot(r.direction, v) == r.level
        )
        cones.append(Cone(v, tight))
    cones.sort(key=lambda c: c.vertex, reverse=True)
    return NormalFan(p.dim, rays, tuple(cones))

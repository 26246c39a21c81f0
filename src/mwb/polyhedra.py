"""Newton polyhedra of monomial sets and their normal fans.

A finite set of exponent vectors G in N^n determines the unbounded polyhedron

    P = conv(G) + R^n_{>=0},

cut out by finitely many inequalities u . a >= N with inward normals u >= 0.
The recession cone is the whole orthant, so the coordinate hyperplanes always
contribute facets; the remaining ("exceptional") facet normals are recovered
from (n-1)-subsets of difference vectors of generators together with
coordinate directions, then validated against the support function.  The
normal fan subdivides the nonnegative orthant; its maximal cones biject with
vertices of P and a ray rho lies in the cone of a vertex v exactly when the
facet inequality of rho is tight at v.

All arithmetic is in exact integers, with no floats and no Fractions.
Determinants and ranks use Bareiss fraction-free elimination, whose
intermediate entries are integer minors and whose divisions are exact.
"""

from __future__ import annotations

import itertools
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


def _det(rows: list[tuple[int, ...]]) -> int:
    # Bareiss elimination: the last pivot is the determinant, up to the sign
    # of the row swaps
    mat = [list(r) for r in rows]
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not mat[k][k]:
            piv = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if piv is None:
                return 0
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        prow = mat[k]
        p = prow[k]
        for row in mat[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - a * prow[j]) // prev
        prev = p
    return sign * mat[-1][-1] if n else 1


def _cross(vecs: list[Vec], n: int) -> Vec:
    # integer normal to n-1 row vectors, by cofactor expansion
    out = []
    for i in range(n):
        minor = [tuple(v[j] for j in range(n) if j != i) for v in vecs]
        out.append((-1) ** i * _det(minor))
    return tuple(out)


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

    # coordinate facets: always genuine, recession takes care of the dimension
    facets = [Facet(_unit(i, n), min(g[i] for g in gens)) for i in range(n)]

    if n > 1:
        diffs = set()
        for g, h in itertools.combinations(gens, 2):
            d = tuple(a - b for a, b in zip(g, h))
            diffs.add(max(d, tuple(-x for x in d)))
        pool = sorted(diffs) + [_unit(i, n) for i in range(n)]
        seen = set(f.normal for f in facets)
        cands = set()
        for rows in itertools.combinations(pool, n - 1):
            u = _cross(list(rows), n)
            if all(x == 0 for x in u):
                continue
            if any(x < 0 for x in u) and any(x > 0 for x in u):
                continue  # recession cone forces nonnegative normals
            if all(x <= 0 for x in u):
                u = tuple(-x for x in u)
            u = primitive(u)
            if u not in seen:
                cands.add(u)
        for u in sorted(cands, reverse=True):
            level = min(dot(u, g) for g in gens)
            on = [g for g in gens if dot(u, g) == level]
            span = [tuple(a - b for a, b in zip(g, on[0])) for g in on[1:]]
            span += [_unit(i, n) for i in range(n) if u[i] == 0]
            if span and _rank(span) == n - 1:
                facets.append(Facet(u, level))

    verts = []
    for g in gens:
        active = [f.normal for f in facets if dot(f.normal, g) == f.level]
        if active and _rank(active) == n:
            verts.append(g)
    if n == 1:
        verts = [min(gens)]
    return NewtonPolyhedron(n, tuple(sorted(verts, reverse=True)), tuple(facets))


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
    facet inequality is tight at a."""
    n = p.dim
    out = {}
    for r in range(len(p.facets) + 1):
        for sel in itertools.combinations(range(len(p.facets)), r):
            on = [
                v
                for v in p.vertices
                if all(dot(p.facets[i].normal, v) == p.facets[i].level for i in sel)
            ]
            if not on:
                continue
            free = [i for i in range(n) if all(p.facets[j].normal[i] == 0 for j in sel)]
            key = (tuple(on), tuple(free))
            if key in out:
                continue
            # canonical defining set: every facet tight on the whole face
            defining = tuple(
                j
                for j, f in enumerate(p.facets)
                if all(dot(f.normal, v) == f.level for v in on)
                and all(f.normal[i] == 0 for i in free)
            )
            span = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
            span += [_unit(i, n) for i in free]
            dim = _rank(span) if span else 0
            out[key] = Face(defining, tuple(on), tuple(free), dim)
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

"""Monomial ideals in N^n: minimal generators and integral closure.

A monomial ideal is stored by its minimal generating exponent vectors.  The
zero ideal has no generators; the unit ideal is generated by the origin.
Integral closure is the set of lattice points of the Newton polyhedron, and
its minimal generators all lie inside the coordinate box spanned by the
vertex-wise maxima, so a box walk suffices to enumerate them.
"""

from __future__ import annotations

import itertools

from .errors import EmptyIdeal, MwbError
from .kernel import mono_divides
from .polyhedra import NewtonPolyhedron, Vec, contains, exponent, newton_polyhedron
from .record import record


def minimalize(gens) -> tuple[Vec, ...]:
    """Drop every generator divisible by another; sort descending."""
    gens = sorted(set(tuple(g) for g in gens))
    out: list[Vec] = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out = [h for h in out if not mono_divides(g, h)] + [g]
    return tuple(sorted(out, reverse=True))


@record(frozen=True)
class MonomialIdeal:
    dim: int
    gens: tuple[Vec, ...]

    def is_zero(self) -> bool:
        return not self.gens


def monomial_ideal(gens, n: int) -> MonomialIdeal:
    return MonomialIdeal(n, minimalize(exponent(g, n) for g in gens))


def newton(ideal: MonomialIdeal) -> NewtonPolyhedron:
    if ideal.is_zero():
        raise EmptyIdeal("the zero ideal has no Newton polyhedron")
    return newton_polyhedron(ideal.gens, ideal.dim)


def closure_member(a: Vec, ideal: MonomialIdeal) -> bool:
    """x^a lies in the integral closure iff a is in the Newton polyhedron."""
    return contains(newton(ideal), tuple(int(x) for x in a))


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the integral closure.

    Any lattice point of P exceeding the vertex maxima in some coordinate
    stays in P after subtracting that coordinate's unit vector, so minimal
    generators live in the vertex box.  The walk is exponential in dim; the
    guard keeps accidental huge inputs from hanging (use the polyhedron
    directly for those).
    """
    p = newton(ideal)
    box = [max(v[i] for v in p.vertices) + 1 for i in range(ideal.dim)]
    size = 1
    for b in box:
        size *= b
    if size > 2_000_000:
        raise MwbError(f"closure box {box} too large to enumerate")
    pts = [a for a in itertools.product(*(range(b) for b in box)) if contains(p, a)]
    return MonomialIdeal(ideal.dim, minimalize(pts))

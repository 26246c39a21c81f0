"""Functoriality laws: checks of invariant_at that need no second
implementation of it.

The invariant is functorial for smooth morphisms and does not depend on
coordinates, so at the origin of seeded hypersurfaces it must not move
under a fresh ordinary variable, under swapping two variables of one flag,
under x -> x + h with x ordinary and h a monomial in the other variables,
or when f is multiplied by a unit c + m at the origin.  Under a fresh
ordinary variable, resolve's tree keeps its order and its leaf count.  A
side may refuse (NoRectifiableContact and the like); a law only compares
the pairs where both sides answer, and a floor on their number keeps the
law from passing vacuously."""

import random

from conftest import ambient, random_polynomial
from mwb import LogAmbient, MwbError, PolyIdeal, Polynomial
from mwb.engine import resolve
from mwb.invariant import invariant_at
from mwb.poly import constant, substitute, variable

AMBIENTS = [
    ambient(ordinary="x,y"),
    ambient(ordinary="x,y,z"),
    ambient(ordinary="x", monomial="y,z"),
    ambient(ordinary="x,y", monomial="z"),
]
PER_AMBIENT = 25


def hypersurfaces(seed, max_entry=4):
    """PER_AMBIENT seeded polynomials vanishing at the origin per ambient."""
    rng = random.Random(seed)
    for amb in AMBIENTS:
        kept = 0
        while kept < PER_AMBIENT:
            f = random_polynomial(rng, amb, 3, max_entry)
            if (0,) * amb.n not in f.terms:
                kept += 1
                yield f


def answer(f):
    """The invariant of (f) at the origin, or None when it is refused."""
    try:
        return invariant_at(PolyIdeal(f.ambient, (f,)), (0,) * f.ambient.n)[0]
    except MwbError:
        return None


def with_fresh_variable(rng, f):
    """f on the ambient with an ordinary t put at a seeded position."""
    amb = f.ambient
    k = rng.randint(0, amb.n)
    big = LogAmbient(amb.variables[:k] + (("t", "ordinary"),) + amb.variables[k:])
    return Polynomial(big, {e[:k] + (0,) + e[k:]: c for e, c in f.terms.items()})


def with_swapped_variables(rng, f):
    """f with two variables of one flag exchanged: two ordinary ones when
    the ambient has them, else two monomial ones."""
    amb = f.ambient
    flags = [flag for _, flag in amb.variables]
    flag = "ordinary" if flags.count("ordinary") > 1 else "monomial"
    i, j = rng.sample([k for k, fl in enumerate(flags) if fl == flag], 2)

    def swapped(e):
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)

    return Polynomial(amb, {swapped(e): c for e, c in f.terms.items()})


def shifted_monomial(rng, amb, skip):
    """A seeded c * x^e with c != 0 and e nonzero, 0 at index skip if any."""
    while True:
        e = tuple(0 if i == skip else rng.randint(0, 2) for i in range(amb.n))
        if any(e):
            return Polynomial(amb, {e: rng.choice([-2, -1, 1, 2])})


def with_unit_twist(rng, f):
    """f times c + m, a unit at the origin: c != 0 and m(0) = 0."""
    amb = f.ambient
    return f * (constant(amb, rng.choice([-3, -2, -1, 1, 2, 3])) + shifted_monomial(rng, amb, None))


def with_shifted_variable(rng, f):
    """f after x -> x + h, x a seeded ordinary variable and h a monomial in
    the other variables; h(0) = 0, so the origin stays put."""
    amb = f.ambient
    x = rng.choice([i for i, (_, flag) in enumerate(amb.variables) if flag == "ordinary"])
    images = {name: variable(amb, name) for name in amb.names()}
    images[amb.names()[x]] += shifted_monomial(rng, amb, x)
    return substitute(f, images, amb)


def check_law(law, seed, floor):
    rng = random.Random(seed + 1)  # keeps the hypersurfaces independent of the law
    answered = 0
    for f in hypersurfaces(seed):
        g = law(rng, f)
        a, b = answer(f), answer(g)
        if a is None or b is None:
            continue
        answered += 1
        assert a == b, (f, g, str(a), str(b))
    assert answered >= floor, answered


def test_a_fresh_variable_leaves_the_invariant():
    check_law(with_fresh_variable, 7, 83)


def test_swapping_two_variables_leaves_the_invariant():
    check_law(with_swapped_variables, 7, 83)


def test_a_unit_twist_leaves_the_invariant():
    check_law(with_unit_twist, 7, 74)


def test_shifting_a_variable_leaves_the_invariant():
    check_law(with_shifted_variable, 7, 82)


def test_a_fresh_variable_keeps_the_tree():
    # resolve's order and leaf count, where both trees resolve
    rng = random.Random(8)
    resolved = 0
    for f in hypersurfaces(7):
        g = with_fresh_variable(rng, f)
        try:
            trees = [resolve(PolyIdeal(h.ambient, (h,))) for h in (f, g)]
        except MwbError:
            continue
        resolved += 1
        got = [(t.order(), len(t.leaves())) for t in trees]
        assert got[0] == got[1], (f, g, got)
    assert resolved >= 73, resolved

"""Functoriality laws: checks of invariant_at that need no second
implementation of it.

The invariant is functorial for smooth morphisms and does not depend on
coordinates, so at the origin of seeded hypersurfaces it must not move
under a fresh ordinary variable or under swapping two variables of one
flag.  A side may refuse (NoRectifiableContact and the like); a law only
compares the pairs where both sides answer, and a floor on their number
keeps the law from passing vacuously."""

import random

from conftest import ambient, random_polynomial
from mwb import LogAmbient, MwbError, PolyIdeal, Polynomial
from mwb.invariant import invariant_at

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

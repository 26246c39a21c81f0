import itertools
import os
import random
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

from mwb import (
    LogAmbient,
    Polynomial,
    PolyIdeal,
    monomial_ideal,
    newton_nondegenerate,
)
from mwb.cli import parse_ideal, parse_polynomial

settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("suite")

# The running hypersurface example: x^2 + y^2 z + z^3 on the four
# ambients that differ only in how many coordinates carry log structure.
F_TEXT = "x^2 + y^2 z + z^3"


def ambient(ordinary="", monomial="", inverted=()):
    names = [(nm.strip(), "ordinary") for nm in ordinary.split(",") if nm.strip()]
    names += [(nm.strip(), "monomial") for nm in monomial.split(",") if nm.strip()]
    return LogAmbient(names, inverted)


def ideal(amb, text):
    return parse_ideal(text, amb)


def poly(amb, text):
    return parse_polynomial(text, amb)


def monomial_power(a, k):
    """a^k for k >= 1: the sums of k generators of a."""
    sums = [tuple(map(sum, zip(*gens))) for gens in itertools.product(a.gens, repeat=k)]
    return monomial_ideal(sums, a.dim)


def monomial_shift(a, m):
    """x^m a."""
    return monomial_ideal([tuple(map(sum, zip(g, m))) for g in a.gens], a.dim)


@pytest.fixture(scope="session")
def a33():
    return ambient(monomial="x,y,z")


@pytest.fixture(scope="session")
def a32():
    return ambient(ordinary="x", monomial="y,z")


@pytest.fixture(scope="session")
def a31():
    return ambient(ordinary="x,y", monomial="z")


@pytest.fixture(scope="session")
def a30():
    return ambient(ordinary="x,y,z")


@pytest.fixture(scope="session")
def quartet(a33, a32, a31, a30):
    return {3: a33, 2: a32, 1: a31, 0: a30}


@pytest.fixture(scope="session")
def f_quartet(quartet):
    return {r: ideal(amb, F_TEXT) for r, amb in quartet.items()}


def random_exponent(rng, n, max_entry=6):
    return tuple(rng.randint(0, max_entry) for _ in range(n))


def random_monomial_gens(rng, n, max_entry=6, max_gens=6):
    count = rng.randint(1, max_gens)
    gens = []
    for _ in range(count):
        e = random_exponent(rng, n, max_entry)
        if any(e):
            gens.append(e)
    return gens or [tuple(1 for _ in range(n))]


def random_polynomial(rng, amb, max_terms=3, max_entry=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = random_exponent(rng, amb.n, max_entry)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[e] = terms.get(e, 0) + c
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        terms = {random_exponent(rng, amb.n, max_entry): 1}
    return Polynomial(amb, terms)


def nondegenerate_samples(seed, count, max_entry=4):
    """Seeded Newton non-degenerate trinomials on fully monomial ambients.

    Rejection sampling: the candidate must vanish at the origin, be
    divisible by no variable, and pass the face-by-face criterion.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        amb = ambient(monomial=",".join("xyz"[:n]))
        terms = {}
        for _ in range(3):
            e = tuple(rng.randint(0, max_entry) for _ in range(n))
            terms[e] = terms.get(e, 0) + rng.choice([-2, -1, 1, 2])
        terms = {e: c for e, c in terms.items() if c}
        if not terms or (0,) * n in terms:
            continue
        if any(all(e[i] for e in terms) for i in range(n)):
            continue
        f = Polynomial(amb, terms)
        ok, _ = newton_nondegenerate(f)
        if ok:
            out.append(f)
    return out


def drop_corpus():
    """Seeded ideals whose resolution trees must strictly drop edge-wise.

    Hand-worked inputs first, then randomized non-degenerate and
    degenerate trinomials in up to three variables with exponents
    bounded by four.
    """
    cases = []
    for r in (3, 2, 1, 0):
        amb = ambient(
            ordinary=",".join("xyz"[: 3 - r]), monomial=",".join("xyz"[3 - r :])
        )
        cases.append(("resolve", ideal(amb, F_TEXT)))
    a2 = ambient(ordinary="x,y")
    cases.append(("resolve", ideal(a2, "x^2 + y^3")))
    cases.append(("principalize", ideal(a2, "x^2 + y^3")))
    cases.append(("principalize", ideal(a2, "x, y")))
    cases.append(("principalize", ideal(a2, "x^2, x y")))
    cases.append(("resolve", ideal(a2, "x y")))
    a3 = ambient(ordinary="x,y,z")
    cases.append(("resolve", ideal(a3, "x^2 + y^2, z - y^2")))
    cases.append(("resolve", ideal(a3, "x^2 - y^2 z")))
    cases.append(("resolve", ideal(a3, "x^2 + y^4 + z^4")))
    cases.append(("resolve", ideal(ambient(ordinary="x,y", monomial="z"), "x^2 + y^3 + z^2")))
    cases.append(("resolve", ideal(ambient(ordinary="x", monomial="y,z"), "x^3 + y z")))
    # degenerate trinomials: perfect squares never pass the face criterion
    cases.append(("resolve", ideal(a2, "x^2 + 2 x y + y^2")))
    cases.append(("resolve", ideal(a3, "x^2 - 2 x y + y^2 + z^3")))
    for f in nondegenerate_samples(4101, 4):
        cases.append(("resolve", PolyIdeal(f.ambient, (f,))))
    # order-two shapes exercising tangent cones, monomial tails and divisor
    # steps
    cases.append(("resolve", ideal(a2, "x^2 + y^4")))
    cases.append(("resolve", ideal(a3, "x^2 + y^2 z^2")))
    cases.append(("principalize", ideal(a2, "x^2, y^2")))
    cases.append(("resolve", ideal(ambient(ordinary="x,y", monomial="z"), "x^2 + y^3 z")))
    cases.append(("resolve", ideal(a2, "x^2 y + x y^2")))
    cases.append(("principalize", ideal(a3, "x y, z^2")))
    cases.append(("resolve", ideal(a2, "x^2 + x y^2")))
    return cases


# The frontier hypersurfaces of the roadmap: 24 inputs on each ambient,
# drawn from one shared generator, an input with a constant term redrawn.
FRONTIER_AMBIENTS = (
    {"ordinary": "x,y"},
    {"ordinary": "x,y,z"},
    {"ordinary": "x", "monomial": "y,z"},
    {"ordinary": "x,y", "monomial": "z"},
    {"monomial": "x,y,z"},
)


def frontier(seed, max_entry):
    rng = random.Random(seed)
    cases = []
    for kw in FRONTIER_AMBIENTS:
        amb = ambient(**kw)
        drawn = 0
        while drawn < 24:
            f = random_polynomial(rng, amb, 3, max_entry)
            if (0,) * amb.n not in f.terms:
                cases.append(PolyIdeal(amb, (f,)))
                drawn += 1
    return cases

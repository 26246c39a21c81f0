import random

from hypothesis import given, strategies as st

import oracles
from mwb import integral_closure, monomial_ideal
from mwb.kernel import mono_divides
from mwb.monomials import closure_member, minimalize, newton

EXPONENT = st.integers(min_value=0, max_value=5)


def gens_strategy(n):
    return st.lists(
        st.tuples(*([EXPONENT] * n)).filter(any), min_size=1, max_size=5
    )


def random_ideals(seed, count, max_entry=6):
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(0, max_entry) for _ in range(n))
            for _ in range(rng.randint(1, 5))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        made += 1
        yield monomial_ideal(gens, n), gens


def test_membership_is_divisibility():
    # the minimal generators divide exactly what the given ones divide
    rng = random.Random(2001)
    for ideal, gens in random_ideals(2002, 60):
        for _ in range(4):
            probe = tuple(rng.randint(0, 7) for _ in range(ideal.dim))
            expected = any(mono_divides(g, probe) for g in gens)
            assert any(mono_divides(g, probe) for g in ideal.gens) == expected


def test_closure_membership_matches_hull_oracle():
    rng = random.Random(2003)
    for ideal, gens in random_ideals(2004, 200):
        for _ in range(5):
            probe = tuple(rng.randint(0, 7) for _ in range(ideal.dim))
            assert closure_member(probe, ideal) == oracles.in_hull(probe, gens)


def test_integral_closure_matches_box_oracle():
    for ideal, gens in random_ideals(2005, 25, max_entry=4):
        expected = oracles.closure_generators(gens)
        assert set(integral_closure(ideal).gens) == expected


def test_integral_closure_known_cases():
    closed = integral_closure(monomial_ideal([(2, 0), (0, 2)], 2))
    assert set(closed.gens) == {(2, 0), (1, 1), (0, 2)}
    closed = integral_closure(monomial_ideal([(3, 0), (0, 3)], 2))
    assert set(closed.gens) == {(3, 0), (2, 1), (1, 2), (0, 3)}
    # already integrally closed
    closed = integral_closure(monomial_ideal([(2, 0, 0), (0, 2, 1), (0, 0, 3)], 3))
    assert set(closed.gens) == {
        (2, 0, 0),
        (0, 2, 1),
        (0, 0, 3),
        (1, 1, 1),
        (1, 0, 2),
        (0, 1, 2),
    }


def test_integral_closure_is_idempotent_and_contains():
    for ideal, gens in random_ideals(2006, 40, max_entry=4):
        closed = integral_closure(ideal)
        assert set(integral_closure(closed).gens) == set(closed.gens)
        for g in gens:
            assert any(mono_divides(h, g) for h in closed.gens)
        for g in closed.gens:
            assert closure_member(g, ideal)


def test_minimalize_keeps_only_undominated():
    gens = [(2, 0), (2, 1), (0, 3), (1, 3), (2, 0)]
    assert set(minimalize(gens)) == {(2, 0), (0, 3)}


@given(gens_strategy(2), st.tuples(EXPONENT, EXPONENT))
def test_member_implies_closure_member(gens, probe):
    ideal = monomial_ideal(gens, 2)
    if any(mono_divides(g, probe) for g in ideal.gens):
        assert closure_member(probe, ideal)


def test_newton_round_trip():
    for ideal, gens in random_ideals(2007, 30):
        p = newton(ideal)
        assert set(p.vertices) <= set(minimalize(gens))
        for g in gens:
            assert oracles.in_hull(g, p.vertices)

import math
import random
from fractions import Fraction

import pytest

import oracles
from conftest import F_TEXT, ambient, ideal, poly, random_polynomial
from mwb import PolyIdeal
from mwb.blowup import center_to_blowup, proper_transform
from mwb.errors import MwbError, NoRectifiableContact
from mwb.groebner import ideal_equal
from mwb.invariant import (
    INF,
    Center,
    CLOSURE_BUDGET,
    Contact,
    Invariant,
    center_display,
    coefficient_ideal,
    compare,
    d_leq,
    invariant_at,
    is_smooth_toroidal,
    logord_at,
    max_logord,
    maximal_contact,
    minimal_tuples,
    monomial_part,
    reduced_center,
)
from mwb.monomials import monomial_ideal
from mwb.poly import format_polynomial


def inv_of(entries):
    return Invariant(
        tuple(e if e is INF else Fraction(e) for e in entries)
    )


def reconstruct_b(entries):
    """The integer sequence behind the finite entries: b_i = a_i * prod of
    (b_j - 1)! over j < i."""
    out = []
    scale = 1
    for a in entries:
        if a is INF:
            break
        b = a * scale
        assert b.denominator == 1 and b >= 1
        b = int(b)
        out.append(b)
        scale *= math.factorial(b - 1)
    return out


ORIGIN3 = (0, 0, 0)


class TestWorkedInvariants:
    def test_all_monomial(self, a33, f_quartet):
        inv, ctr = invariant_at(f_quartet[3], ORIGIN3)
        assert str(inv) == "(inf)"
        assert ctr.contacts == ()
        assert set(ctr.q.gens) == {(2, 0, 0), (0, 2, 1), (0, 0, 3)}
        assert center_display(ctr, a33) == "((x^2, y^2*z, z^3))"
        c, root, w = reduced_center(ctr, a33)
        assert (c.ordinary, c.root, root, w) == ((), 1, 1, ())

    def test_one_ordinary(self, a32, f_quartet):
        inv, ctr = invariant_at(f_quartet[2], ORIGIN3)
        assert str(inv) == "(2, inf)"
        assert [c.name for c in ctr.contacts] == ["x"]
        assert set(ctr.q.gens) == {(0, 2, 1), (0, 0, 3)}
        assert center_display(ctr, a32) == "(x, (y^2*z, z^3)^{1/2})"
        c, root, w = reduced_center(ctr, a32)
        assert c.ordinary == (("x", 2),)
        assert (c.root, root, w) == (2, 2, (1,))

    def test_two_ordinary(self, a31, f_quartet):
        inv, ctr = invariant_at(f_quartet[1], ORIGIN3)
        assert str(inv) == "(2, inf)"
        assert center_display(ctr, a31) == "(x, (z)^{1/2})"
        c, _, _ = reduced_center(ctr, a31)
        assert c.ordinary == (("x", 2),)
        assert set(c.monomial.gens) == {(0, 0, 1)}

    def test_all_ordinary(self, a30, f_quartet):
        inv, ctr = invariant_at(f_quartet[0], ORIGIN3)
        assert str(inv) == "(2, 3, 3)"
        assert inv.entries == (2, 3, 3)
        assert [c.name for c in ctr.contacts] == ["x", "y", "z"]
        assert all(c.shift is None for c in ctr.contacts)
        assert ctr.scale == 1
        assert ctr.q.is_zero()
        assert center_display(ctr, a30) == "(x^{1/3}, y^{1/2}, z^{1/2})"
        c, root, w = reduced_center(ctr, a30)
        assert c.ordinary == (("x", 2), ("y", 3), ("z", 3))
        assert (c.root, root, w) == (6, 6, (3, 2, 2))

    def test_plane_cusp(self):
        a20 = ambient(ordinary="x,y")
        inv, ctr = invariant_at(ideal(a20, "x^2 + y^3"), (0, 0))
        assert str(inv) == "(2, 3)"
        assert ctr.scale == 1
        assert center_display(ctr, a20) == "(x^{1/3}, y^{1/2})"
        c, root, w = reduced_center(ctr, a20)
        assert c.ordinary == (("x", 2), ("y", 3))
        assert (root, w) == (6, (3, 2))

    def test_pair_with_rectified_contact(self, a30):
        i = ideal(a30, "x^2 + y^2, z - y^2")
        inv, ctr = invariant_at(i, ORIGIN3)
        assert str(inv) == "(1, 2, 2)"
        first = ctr.contacts[0]
        assert first.name == "z"
        assert format_polynomial(first.shift) == "y^2"
        assert [c.name for c in ctr.contacts[1:]] == ["x", "y"]
        assert center_display(ctr, a30) == "(z^{1/2}, x, y)"

    def test_swapping_symmetric_variables(self, a30, f_quartet):
        swapped = ideal(a30, "x^2 + z^2 y + y^3")
        inv, ctr = invariant_at(swapped, ORIGIN3)
        base_inv, base_ctr = invariant_at(f_quartet[0], ORIGIN3)
        assert compare(inv, base_inv) == 0
        assert center_display(ctr, a30) == center_display(base_ctr, a30)
        assert ctr.orders == base_ctr.orders


# worked comparisons, strictly increasing left to right
CHAIN = [
    inv_of((0,)),
    inv_of((1, 2, 8)),
    inv_of((1, 3, 6)),
    inv_of((1, 3)),
    inv_of((1, 4, 24)),
    inv_of((1, INF)),
    inv_of((1,)),
    inv_of((INF,)),
    inv_of(()),
]


class TestOrder:
    CHAIN = CHAIN

    def test_reference_chain(self):
        for i, u in enumerate(self.CHAIN):
            for j, v in enumerate(self.CHAIN):
                want = (i > j) - (i < j)
                assert compare(u, v) == want

    def test_random_total_order(self):
        rng = random.Random(8101)
        pool = []
        for _ in range(40):
            k = rng.randrange(0, 4)
            entries = [Fraction(rng.randrange(1, 6), rng.randrange(1, 3)) for _ in range(k)]
            if k and rng.random() < 0.3:
                entries[-1] = INF
            if not k and rng.random() < 0.3:
                entries = [Fraction(0)]
            pool.append(inv_of(tuple(entries)))
        for _ in range(300):
            u, v, w = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            cuv, cvw, cuw = compare(u, v), compare(v, w), compare(u, w)
            assert compare(v, u) == -cuv
            assert cuv in (-1, 0, 1)
            if cuv == 0:
                assert u.entries == v.entries
            if cuv <= 0 and cvw <= 0:
                assert cuw <= 0

    def test_truncation_is_larger(self):
        assert compare(inv_of((2, 3)), inv_of((2,))) < 0
        assert compare(inv_of((2, INF)), inv_of((2,))) < 0
        assert compare(inv_of((2,)), inv_of(())) < 0


class TestChainCondition:
    def test_worked_invariants_reconstruct(self, f_quartet):
        for i in f_quartet.values():
            inv, _ = invariant_at(i, ORIGIN3)
            finite = [e for e in inv.entries if e is not INF]
            if finite == [0]:
                continue
            b = reconstruct_b(inv.entries)
            assert len(b) == len(finite)
            assert list(inv.entries[: len(b)]) == [
                Fraction(bi, 1) * 1 / s
                for bi, s in zip(
                    b,
                    [
                        math.prod(
                            math.factorial(bj - 1) for bj in b[:i]
                        )
                        for i in range(len(b))
                    ],
                )
            ]
            for i in range(1, len(finite)):
                assert finite[i] >= finite[i - 1]

    def test_infinity_only_terminal(self, f_quartet, a30):
        samples = [invariant_at(i, ORIGIN3)[0] for i in f_quartet.values()]
        samples.append(invariant_at(ideal(a30, "x y"), ORIGIN3)[0])
        for inv in samples:
            if INF in inv.entries:
                assert inv.entries.index(INF) == len(inv.entries) - 1
            assert len(inv.entries) <= 3


class TestPieces:
    def test_logord_values(self, a30, a33):
        assert logord_at(ideal(a30, F_TEXT), ORIGIN3) == 2
        assert logord_at(ideal(a33, F_TEXT), ORIGIN3) is INF
        assert logord_at(ideal(a30, "x + y"), ORIGIN3) == 1
        assert logord_at(ideal(a30, "1"), ORIGIN3) == 0
        # away from the vanishing locus the order drops to zero
        assert logord_at(ideal(a30, "x + 1"), ORIGIN3) == 0

    def test_max_logord(self, a30, a33):
        assert max_logord(ideal(a33, "x^2")) is INF
        assert max_logord(ideal(a30, "x^2")) == 2

    def test_first_entry_is_the_log_order(self, f_quartet):
        for i in f_quartet.values():
            inv, _ = invariant_at(i, ORIGIN3)
            assert inv.entries[0] == logord_at(i, ORIGIN3)

    def test_derivative_ideal(self, a30):
        i = ideal(a30, "x^2 + y^2 z + z^3")
        d1 = d_leq(i, 1)
        assert ideal_equal(d1, ideal(a30, "x, y z, y^2 + 3 z^2, z^3"))
        d0 = d_leq(i, 0)
        assert ideal_equal(d0, i)

    def test_derivative_ideal_after_blowup(self, a30, f_quartet):
        _, ctr = invariant_at(f_quartet[0], ORIGIN3)
        c, _, _ = reduced_center(ctr, a30)
        b = center_to_blowup(c, a30)
        prop = proper_transform(b, f_quartet[0])
        d1 = d_leq(prop, 1)
        want = ideal(b.cox, "x', y' z', y'^2 + 3 z'^2, z'^3")
        assert ideal_equal(d1, want)

    def test_d_leq_is_the_tower_stage(self):
        # generators plus unpruned rounds of derivations against the pruned
        # tower of the oracle
        rng = random.Random(3021)
        for _ in range(24):
            n = rng.randint(1, 3)
            split = rng.randint(0, n)
            amb = ambient(
                ordinary=",".join("xyz"[:split]), monomial=",".join("xyz"[split:n])
            )
            gens = [
                random_polynomial(rng, amb, max_terms=3, max_entry=3)
                for _ in range(rng.randint(1, 2))
            ]
            i = PolyIdeal(amb, tuple(gens))
            tower = oracles.DerivativeTower(i)
            for m in range(3):
                assert ideal_equal(d_leq(i, m), PolyIdeal(amb, tower.level(m)))

    def test_monomial_part(self, a31):
        # ordinary exponents drop out, and a weight divides the rest
        x_z2, z3, z = (poly(a31, t) for t in ("x z^2", "z^3", "z"))
        pts = monomial_part([(x_z2 + z3, Fraction(1)), (z, Fraction(1, 2))])
        assert pts == [(0, 0, 2), (0, 0, 3)]
        assert monomial_part([(z3, Fraction(3, 2))]) == [(0, 0, 2)]
        # inverted variables are units on the chart and get stripped
        inv = ambient(ordinary="x", monomial="y", inverted=("y",))
        assert monomial_part([(poly(inv, "x^2 y^3 + y"), Fraction(1))]) == [(0, 0)]

    def test_coefficient_ideal(self):
        a20 = ambient(ordinary="x,y")
        f = poly(a20, "x^2 + y^3")
        kept = coefficient_ideal([(f, Fraction(1))], Fraction(2), (0, 0))
        assert [(format_polynomial(g), d) for g, d in kept] == [
            ("y^3 + x^2", 1),
            ("x", Fraction(1, 2)),
            ("y^2", Fraction(1, 2)),
        ]
        # a pair the kept ones of at least its weight generate is left out
        kept = coefficient_ideal(
            [(f, Fraction(1)), (poly(a20, "x^3"), Fraction(1, 2))], Fraction(2), (0, 0)
        )
        assert len(kept) == 3
        # a power of x takes one pair per derivative, so the budget stops it
        a1 = ambient(ordinary="x")
        big = CLOSURE_BUDGET + 5
        with pytest.raises(MwbError, match="exceeds"):
            coefficient_ideal([(poly(a1, f"x^{big}"), Fraction(1))], Fraction(big), (0,))
        x200 = [(poly(a1, "x^200"), Fraction(1))]
        assert len(coefficient_ideal(x200, Fraction(200), (0,))) == 200

    def test_minimal_tuples_match_oracle(self):
        # the pure tuples: minimal ones with a single nonzero entry
        for b in (1, 2, 3, 4):
            pure = [
                c
                for c in oracles.threshold_minimal_tuples(b)
                if sum(1 for x in c if x) == 1
            ]
            assert sorted(minimal_tuples(b)) == sorted(pure)

    def test_smoothness(self, a30):
        assert is_smooth_toroidal(ideal(a30, "x"), ORIGIN3)
        assert is_smooth_toroidal(ideal(a30, "x + y^2, z"), ORIGIN3)
        assert not is_smooth_toroidal(ideal(a30, "x^2"), ORIGIN3)
        assert not is_smooth_toroidal(ideal(a30, "x y"), ORIGIN3)
        mixed = ambient(ordinary="x,y", monomial="z")
        assert not is_smooth_toroidal(ideal(mixed, "z"), ORIGIN3)

    def test_contact_from_the_reduced_basis(self):
        # on x = 0 the pair of weight 1/2 is y^3 + y: order one at the
        # origin but not rectifiable; the ideal of the pairs of weight at
        # least 1/2 is (y), and its reduced basis gives the contact
        a20 = ambient(ordinary="x,y")
        i = ideal(a20, "2 x^2 + y^4 + 2 y^2")
        inv, ctr = invariant_at(i, (0, 0))
        assert str(inv) == "(2, 2)"
        assert [c.name for c in ctr.contacts] == ["x", "y"]
        assert inv == oracles.tower_invariant(i, (0, 0))[0]

    def test_no_rectifiable_contact(self):
        a11 = ambient(ordinary="x", monomial="z")
        with pytest.raises(NoRectifiableContact):
            maximal_contact(a11, [poly(a11, "z")], (0, 0))

import math
import random
import re
from fractions import Fraction

import pytest

import oracles
from conftest import F_TEXT, ambient, drop_corpus, frontier, ideal, poly, random_polynomial
from mwb import PolyIdeal, engine, groebner, invariant
from mwb.blowup import center_to_blowup, proper_transform
from mwb.errors import MwbError, NoRectifiableContact
from mwb.groebner import ideal_equal
from mwb.invariant import (
    INF,
    CLOSURE_BUDGET,
    Center,
    Contact,
    Invariant,
    center_display,
    coefficient_ideal,
    compare,
    d_leq,
    invariant_at,
    log_order,
    logord_at,
    max_logord,
    maximal_contact,
    minimal_tuples,
    monomial_part,
    reduced_center,
)
from mwb.monomials import MonomialIdeal
from mwb.poly import LogAmbient, Polynomial, constant, format_polynomial, variable
from test_poly import golden_results


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
            # the operators are compare's order, nothing else
            assert (u < v, u <= v, u > v, u >= v, u == v) == (
                cuv < 0, cuv <= 0, cuv > 0, cuv >= 0, cuv == 0
            )

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

    def test_log_order_matches_the_taylor_shift(self):
        # log_order groups the terms by their exponent on the point's zero
        # coordinates; the oracle shifts the point to the origin instead
        worked = [
            (ambient(ordinary="x,y,z"), "x (y - 1)^2 + z^3", (0, 1, 0), 3),
            (ambient(ordinary="x,y", monomial="z"), "z x + (y - 2)^2 x", (0, 2, 0), 3),
            (ambient(ordinary="x", monomial="y", inverted=("y",)), "y^2 x^2 + y^3 x^3", (0, 1), 2),
            (ambient(ordinary="x,y"), "(x - 1/2)^2 (y + 1)", (Fraction(1, 2), -1), 3),
        ]
        for amb, text, point, order in worked:
            g = poly(amb, text)
            assert log_order(g, point) == oracles.taylor_log_order(g, point) == order
        rng = random.Random(2811)
        values = (0, 0, 1, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
        shapes = (("x,y", ""), ("x", "y,z"), ("x,y,z", ""), ("", "x,y"), ("x,y", "z"))
        vanishing = 0
        for _ in range(160):
            ordinary, monomial = rng.choice(shapes)
            amb = ambient(ordinary, monomial)
            amb = amb.with_inverted(rng.sample(amb.names(), rng.randrange(0, 2)))
            point = tuple(
                rng.choice(values[2:] if n in amb.inverted else values) for n in amb.names()
            )
            g = random_polynomial(rng, amb, 4, 3)
            if rng.random() < 0.5:
                # move g's origin to the point, so that it vanishes there
                images = {
                    n: variable(amb, n) - constant(amb, x) for n, x in zip(amb.names(), point)
                }
                g = oracles.naive_substitute(g, images, amb)
            order = log_order(g, point)
            assert order == oracles.taylor_log_order(g, point), (g, point)
            vanishing += order not in (0, INF) and any(point)
        assert vanishing > 30

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
        # ordinary exponents drop out, and a weight divides the rest; a
        # pair (g, n) weighs n over the given denominator
        x_z2, z3, z = (poly(a31, t) for t in ("x z^2", "z^3", "z"))
        pts = monomial_part([(x_z2 + z3, 2), (z, 1)], 2)
        assert pts == [(0, 0, 2), (0, 0, 3)]
        assert monomial_part([(z3, 3)], 2) == [(0, 0, 2)]
        # inverted variables are units on the chart and get stripped
        inv = ambient(ordinary="x", monomial="y", inverted=("y",))
        assert monomial_part([(poly(inv, "x^2 y^3 + y"), 1)], 1) == [(0, 0)]

    def test_coefficient_ideal(self):
        a20 = ambient(ordinary="x,y")
        f = poly(a20, "x^2 + y^3")
        # weights and the step 1/a are integers over one denominator: at
        # a = 2 the weights 1 and 1/2 are 2 and 1 over 2, and the step is 1
        kept, _ = coefficient_ideal([(f, 2)], 1, (0, 0))
        assert [(format_polynomial(g), n) for g, n in kept] == [
            ("y^3 + x^2", 2),
            ("x", 1),
            ("y^2", 1),
        ]
        # a pair the kept ones of at least its weight generate is left out
        kept, _ = coefficient_ideal([(f, 2), (poly(a20, "x^3"), 1)], 1, (0, 0))
        assert len(kept) == 3
        # the basis returned, completed by its one pending pair, is that of
        # the pairs of weight at least the step: at step 2, (x^2, 4) adds
        # (x, 2), and (y, 1) stays out
        pairs = [(poly(a20, "x^2"), 4), (poly(a20, "y"), 1)]
        kept, heavy = coefficient_ideal(pairs, 2, (0, 0))
        assert [(format_polynomial(g), n) for g, n in kept] == [("x^2", 4), ("x", 2), ("y", 1)]
        assert groebner.grow(*heavy) == [((1, 0), {(1, 0): 1})]
        # a power of x takes one pair per derivative, so the budget stops it;
        # at a = big the weight 1 is big over big, and the step 1
        a1 = ambient(ordinary="x")
        big = CLOSURE_BUDGET + 5
        with pytest.raises(MwbError, match="exceeds"):
            coefficient_ideal([(poly(a1, f"x^{big}"), big)], 1, (0,))
        x200 = [(poly(a1, "x^200"), 200)]
        assert len(coefficient_ideal(x200, 1, (0,))[0]) == 200

    def test_integer_weights_match_the_fraction_weight_oracle(self, monkeypatch):
        # every point the engine computes an invariant at, over the drop
        # corpus, the golden resolve and principalize commands and the
        # roadmap's seed-104 frontier: the same Invariant and Center as the
        # recursion with Fraction weights, or the same refusal
        calls = []
        original = engine.invariant_at

        def recording(ideal, point):
            calls.append((ideal, point))
            return original(ideal, point)

        monkeypatch.setattr(engine, "invariant_at", recording)
        golden_results()
        for mode, i in drop_corpus():
            engine.resolve(i, mode=mode)
        refused = 0
        for i in frontier(104, 4):
            try:
                engine.resolve(i)
            except MwbError:
                refused += 1
        assert refused == 20 and len(calls) > 300

        def outcome(compute, ideal, point):
            try:
                return compute(ideal, point)
            except MwbError as e:
                return type(e), str(e)

        centers = []
        for ideal, point in calls:
            got = outcome(original, ideal, point)
            assert got == outcome(oracles.fraction_weight_invariant, ideal, point), (
                ideal,
                point,
            )
            centers.append(got[1])
        # monomial parts and refusals are among the compared outcomes
        assert any(type(c) is Center and c.q.gens for c in centers)
        assert any(type(c) is str for c in centers)

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
        # the engine's leaf test at the root: a hypersurface is smooth on
        # the whole chart, two generators at their marked point
        def root(amb, text):
            node = engine.resolve(ideal(amb, text)).root
            return node.status, node.scope

        assert root(a30, "x") == ("smooth", "chart")
        assert root(a30, "x + y^2, z") == ("smooth", "marked-points")
        assert root(a30, "x^2") == (None, None)
        assert root(a30, "x y") == (None, None)
        mixed = ambient(ordinary="x,y", monomial="z")
        assert root(mixed, "z") == (None, None)

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

    def test_a_closure_leaves_its_last_kept_pair_out(self, monkeypatch):
        # the closure enters a kept pair only when a later pair does not
        # reduce to zero against the basis and it; every later pair of a
        # monomial closure does, so x^3 y^3 z^3 enters 62 + 14 + 2 pairs
        # where entering each kept pair took 63 + 15 + 3
        entries, closures = [], []
        grow, closure = groebner.OpenBasis.grow, invariant.coefficient_ideal

        def counting(basis, new):
            entries.append(len(new))
            return grow(basis, new)

        def closing(pairs, step, point):
            kept, heavy = closure(pairs, step, point)
            closures.append((len(kept), len(entries)))
            return kept, heavy

        monkeypatch.setattr(groebner.OpenBasis, "grow", counting)
        monkeypatch.setattr(invariant, "coefficient_ideal", closing)
        invariant_at(ideal(ambient(ordinary="x,y,z"), "x^3 y^3 z^3"), (0, 0, 0))
        assert closures == [(63, 62), (15, 62 + 14), (3, 62 + 14 + 2)]
        assert sum(entries) == 78

    def test_the_completed_basis_is_the_one_grown_pair_by_pair(self, monkeypatch):
        # groebner.grow(*heavy) is, term for term, the basis that grows
        # from [] by one kept pair of weight at least the step at a time,
        # over every closure of the drop corpus and the seed-104 frontier
        closure, checked = invariant.coefficient_ideal, []

        def closing(pairs, step, point):
            kept, heavy = closure(pairs, step, point)
            basis = []
            for g, n in kept:
                if n >= step:
                    basis = groebner.grow(basis, [(next(iter(g.terms)), g.terms)])
            assert groebner.grow(*heavy) == basis
            checked.append(step)
            return kept, heavy

        monkeypatch.setattr(invariant, "coefficient_ideal", closing)
        for i in [i for _, i in drop_corpus()] + frontier(104, 4):
            try:
                engine.resolve(i)
            except MwbError:
                pass
        assert len(checked) > 300

    def test_the_fallback_basis_is_the_reduced_basis(self, monkeypatch):
        # at every fallback on the seed-104 frontier, the interreduced
        # closure basis is, term for term, groebner_basis of the kept pairs
        # of weight at least 1/a built afresh
        levels, seen = [], []
        closure, contact = invariant.coefficient_ideal, invariant.maximal_contact

        def closing(pairs, step, point):
            kept, heavy = closure(pairs, step, point)
            levels.append([kept, step, 0])
            return kept, heavy

        def contacting(amb, gens, point):
            level = levels[-1]
            level[2] += 1
            if level[2] == 2:
                kept, step, _ = level
                fresh = PolyIdeal(amb, [g for g, n in kept if n >= step])
                want = [list(g.terms.items()) for g in groebner.groebner_basis(fresh)]
                assert [list(g.terms.items()) for g in gens] == want
                seen.append(amb)
            return contact(amb, gens, point)

        monkeypatch.setattr(invariant, "coefficient_ideal", closing)
        monkeypatch.setattr(invariant, "maximal_contact", contacting)
        for i in frontier(104, 4):
            try:
                engine.resolve(i)
            except MwbError:
                pass
        assert len(seen) == 43  # 23 contacts rescued, 20 refused

    def test_a_fallback_builds_no_second_basis(self, monkeypatch):
        # a node of `resolve --ordinary x,y,z` on -x^5*y^3*z - 2*x^3*y^3*z^3
        # + 3*x^4*y^4 + 3*x^3*y*z^4 + 3*x^2*y^3 whose contact comes from the
        # fallback; a second Buchberger run from the generators ran for
        # minutes there
        def refused(*args):
            raise AssertionError("groebner_basis called")

        monkeypatch.setattr(groebner, "groebner_basis", refused)
        amb = LogAmbient(
            [("x'", "ordinary"), ("y'", "ordinary"), ("z'", "ordinary"), ("u", "exceptional")],
            ("y'",),
        )
        i = ideal(
            amb,
            "x'^5*y'^3*z'*u^13 - 3*x'^4*y'^4*u^12 + 2*x'^3*y'^3*z'^3*u^7"
            " - 3*x'^3*y'*z'^4 - 3*x'^2*y'^3",
        )
        assert amb.describe() == "A^{4;1}(x' ordinary, y' ordinary*, z' ordinary, u exceptional)"
        inv, ctr = invariant_at(i, (0, 1, 0, 0))
        assert str(inv) == "(2)"
        assert [c.name for c in ctr.contacts] == ["x'"]

    def test_a_one_generator_monomial_part_is_its_own_vertex(self, monkeypatch):
        # the monomial part of x^3 + y z on ordinary x, monomial y, z is (y z),
        # the only vertex of its Newton polyhedron: no polyhedron is built
        def refused(*args):
            raise AssertionError("newton called")

        monkeypatch.setattr(invariant, "newton", refused)
        i = ideal(ambient(ordinary="x", monomial="y,z"), "x^3 + y z")
        inv, ctr = invariant_at(i, (0, 0, 0))
        assert inv == Invariant((Fraction(3), INF))
        assert ctr == Center(
            (Contact("x", None),), (Fraction(3),), MonomialIdeal(3, ((0, 1, 1),)), 1
        )

    def test_no_rectifiable_contact(self):
        a11 = ambient(ordinary="x", monomial="z")
        with pytest.raises(NoRectifiableContact):
            maximal_contact(a11, [poly(a11, "z")], (0, 0))

    def test_refusal_names_an_unprintable_element_by_its_bits(self):
        # x's coefficient in x + x y is not a constant, so x + x y has order
        # one but is not rectifiable; an element with a coefficient past
        # COEFF_BITS is named by its bit length, any other is printed
        a20 = ambient(ordinary="x,y")
        for c, shown in [(3, "3*x*y + x"), (2**20000, "with 20001-bit coefficients")]:
            g = Polynomial(a20, {(1, 0): Fraction(1), (1, 1): Fraction(c)})
            with pytest.raises(NoRectifiableContact, match=re.escape(f"element {shown} at")):
                maximal_contact(a20, [g], (0, 0))

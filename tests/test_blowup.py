import random

import pytest

import oracles
from conftest import (
    ambient,
    drop_corpus,
    ideal,
    monomial_power,
    monomial_shift,
    poly,
    random_monomial_gens,
    random_polynomial,
)
from mwb import engine
from mwb.blowup import (
    FractionalIdeal,
    assemble_center,
    build_blowup,
    center_consistency,
    center_to_blowup,
    exceptional_multiplicities,
    make_center,
    proper_transform,
    rees_blowup,
    rees_weights,
    restrict_blowup,
    total_transform,
    weak_transform,
)
from mwb.errors import HypothesisViolated, MwbError, ZeroIdeal
from mwb.groebner import ideal_equal, is_unit_ideal, member, saturate_at_variables
from mwb.monomials import monomial_ideal, newton
from mwb.polyhedra import _bits, dot, normal_fan
from mwb.poly import PolyIdeal, format_polynomial

A3 = ambient(ordinary="x,y,z")
A2 = ambient(ordinary="x,y")
NONE2 = monomial_ideal([], 2)


def mono3(*gens):
    return monomial_ideal(list(gens), 3)


def cox_ideal(b, text):
    return ideal(b.cox, text)


def declared_exceptional(b):
    """Cox variables of the standard rays with positive level: no variable
    of their own, but exceptional multiplicities all the same."""
    return [b.ray_vars[i] for i, r in enumerate(b.fan.rays) if r.standard and r.level > 0]


def test_single_ray_structure():
    b = build_blowup(mono3((2, 0, 0), (0, 3, 0), (0, 0, 3)), A3)
    assert [(r.direction, r.level) for r in b.fan.rays] == [
        ((1, 0, 0), 0),
        ((0, 1, 0), 0),
        ((0, 0, 1), 0),
        ((3, 2, 2), 6),
    ]
    assert b.ray_vars == ("x'", "y'", "z'", "u")
    assert b.grading == {
        "x'": (3,),
        "y'": (2,),
        "z'": (2,),
        "u": (-1,),
    }
    assert {k: format_polynomial(v) for k, v in b.pullback.items()} == {
        "x": "x'*u^3",
        "y": "y'*u^2",
        "z": "z'*u^2",
    }
    assert b.irrelevant == (("x'",), ("y'",), ("z'",))
    assert b.beta_rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 2, 2))
    assert b.weights == (1, 1, 1, 1)


def test_two_ray_structure():
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    assert [(r.direction, r.level) for r in b.fan.rays] == [
        ((1, 0, 0), 0),
        ((0, 1, 0), 0),
        ((0, 0, 1), 0),
        ((3, 2, 2), 6),
        ((1, 0, 2), 2),
    ]
    assert b.ray_vars == ("x'", "y'", "z'", "u1", "u2")
    assert b.grading == {
        "x'": (3, 1),
        "y'": (2, 0),
        "z'": (2, 2),
        "u1": (-1, 0),
        "u2": (0, -1),
    }
    assert {k: format_polynomial(v) for k, v in b.pullback.items()} == {
        "x": "x'*u1^3*u2",
        "y": "y'*u1^2",
        "z": "z'*u1^2*u2^2",
    }
    assert b.irrelevant == (("x'",), ("y'", "z'"), ("z'", "u2"))
    assert [(c.vertex, c.inverted) for c in b.charts] == [
        ((2, 0, 0), ("x'",)),
        ((0, 2, 1), ("y'", "z'")),
        ((0, 0, 3), ("z'", "u2")),
    ]
    for chart in b.charts:
        ca = b.chart_ambient(chart)
        assert set(ca.inverted) == set(chart.inverted)


def test_grading_kills_pullbacks():
    # every pullback monomial is degree zero, so the source functions live
    # on the quotient
    for gens in [((2, 0, 0), (0, 3, 0), (0, 0, 3)), ((2, 0, 0), (0, 2, 1), (0, 0, 3))]:
        b = build_blowup(mono3(*gens), A3)
        q = len(b.fan.exceptional())
        for name, p in b.pullback.items():
            (e,) = p.terms
            total = [0] * q
            for i, k in enumerate(e):
                g = b.grading[b.cox.names()[i]]
                for s in range(q):
                    total[s] += k * g[s]
            assert total == [0] * q


def test_charts_cover_the_fan():
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    rays = b.fan.rays
    seen = set()
    for chart in b.charts:
        tight = {
            b.ray_vars[j]
            for j in range(len(rays))
            if dot(rays[j].direction, chart.vertex) == rays[j].level
        }
        assert set(chart.inverted) == set(b.ray_vars) - tight
        seen |= tight
    assert seen == set(b.ray_vars)


def test_total_transform_divisibility():
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    total = total_transform(b, ideal(A3, "x^2 + y^2 + z^2"))
    (g,) = total.generators
    assert format_polynomial(g) == "x'^2*u1^6*u2^2 + z'^2*u1^4*u2^4 + y'^2*u1^4"
    i1, i2 = b.cox.index("u1"), b.cox.index("u2")
    assert min(e[i1] for e in g.terms) == 4
    assert min(e[i2] for e in g.terms) == 0
    f = ideal(A3, "x^2 + y^2 + z^2")
    assert weak_transform(b, f)[1] == {"u1": 4, "u2": 0}
    assert exceptional_multiplicities(b, f) == {"u1": 4, "u2": 0}


def test_weak_transform_of_the_blown_up_ideal():
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    weak, mult = weak_transform(b, ideal(A3, "x^2, y^2 z, z^3"))
    assert mult == {"u1": 6, "u2": 2}
    assert sorted(format_polynomial(g) for g in weak.generators) == [
        "x'^2",
        "y'^2*z'",
        "z'^3*u2^4",
    ]
    # on every chart the weak transform is a unit: one step resolves a
    for chart in b.charts:
        assert is_unit_ideal(saturate_at_variables(weak, chart.inverted))


def test_proper_transform_without_a_positive_level_ray_is_the_total():
    # blowing up the unit ideal creates no exceptional divisor: nothing is
    # saturated and nothing is divided out, not even a constant factor
    a1 = ambient(ordinary="x")
    for amb, text in ((a1, "1/2 + 1/2 x^3"), (A2, "2 x^2 y + 4 y^3")):
        b = build_blowup(monomial_ideal([(0,) * amb.n], amb.n), amb)
        assert not b.eplus()
        i = ideal(amb, text)
        assert proper_transform(b, i) == total_transform(b, i)
        (g,) = proper_transform(b, i).generators
        assert sorted(g.terms.values()) == sorted(i.generators[0].terms.values())


def test_weak_and_proper_transform_of_a_pair():
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    i = ideal(A3, "x^2 + y^2, z - y^2")
    weak, mult = weak_transform(b, i)
    assert mult == {"u1": 2, "u2": 0}
    expected = cox_ideal(b, "x'^2 u1^4 u2^2 + y'^2 u1^2, z' u2^2 - y'^2 u1^2")
    assert ideal_equal(weak, expected)
    proper = proper_transform(b, i)
    witness = poly(b.cox, "x'^2 u1^4 + z'")
    assert member(witness, proper)
    assert not member(witness, weak)
    for g in weak.generators:
        assert member(g, proper)


def test_proper_transform_is_the_saturated_total():
    # proper_transform saturates the weak transform; the definition
    # saturates the total one.  Both must give the same unique output.
    rng = random.Random(4417)
    pairs = 0
    for _ in range(30):
        k = rng.randint(0, 3)
        amb = ambient(ordinary=",".join("xyz"[:k]), monomial=",".join("xyz"[k:]))
        a = monomial_ideal(random_monomial_gens(rng, 3, max_entry=3, max_gens=3), 3)
        b = build_blowup(a, amb)
        gens = [random_polynomial(rng, amb, max_entry=3) for _ in range(rng.randint(1, 3))]
        i = PolyIdeal(amb, gens)
        pairs += len(i.generators) > 1
        names = [b.ray_vars[j] for j in b.eplus()]
        want = saturate_at_variables(total_transform(b, i), names)
        assert proper_transform(b, i) == want, (a, i)
    assert pairs >= 10
    zero = PolyIdeal(A3, ())
    assert proper_transform(build_blowup(mono3((1, 1, 0)), A3), zero).is_zero()


def _transform_cases(monkeypatch):
    """(blow-up, ideal) pairs: every weak transform the drop corpus makes,
    then seeded 4-variable blow-ups with weights or a Rees root, on
    ideals whose term ideal sits inside a coordinate hyperplane's ideal
    as often as not (declared-exceptional standard rays)."""
    seen = []

    def recording(b, i):
        seen.append((b, i))
        return weak_transform(b, i)

    monkeypatch.setattr(engine, "weak_transform", recording)
    for kind, i in drop_corpus():
        engine.resolve(i, mode=kind)
    monkeypatch.undo()
    rng = random.Random(8807)
    for _ in range(60):
        k = rng.randint(0, 4)
        amb = ambient(ordinary=",".join("xyzw"[:k]), monomial=",".join("xyzw"[k:]))
        a = monomial_ideal(random_monomial_gens(rng, 4, max_entry=4, max_gens=4), 4)
        if rng.random() < 0.5:
            a = monomial_shift(a, tuple(rng.randint(0, 1) for _ in range(4)))
        if rng.random() < 0.5:
            b = rees_blowup(FractionalIdeal(a, rng.randint(1, 6)), amb)
        else:
            fan = normal_fan(newton(a))
            b = build_blowup(
                a,
                amb,
                {fan.rays[j].direction: rng.randint(1, 4) for j in fan.exceptional()},
            )
        gens = [random_polynomial(rng, amb) for _ in range(rng.randint(1, 3))]
        seen.append((b, PolyIdeal(amb, gens)))
    return seen


def test_transforms_agree_with_substitution(monkeypatch):
    cases = _transform_cases(monkeypatch)
    assert any(declared_exceptional(b) for b, _ in cases)
    assert any(len(set(b.weights)) > 1 for b, _ in cases)
    for b, i in cases:
        assert b.ray_vars == b.cox.names()
        total = total_transform(b, i)
        want = oracles.substitution_total_transform(b, i)
        assert [list(g.terms.items()) for g in total.generators] == [
            list(g.terms.items()) for g in want.generators
        ]
        assert exceptional_multiplicities(b, i) == oracles.polyhedron_multiplicities(b, i)
        weak, mult = weak_transform(b, i)
        want, want_mult = oracles.division_weak_transform(b, i)
        assert mult == want_mult
        assert [list(g.terms.items()) for g in weak.generators] == [
            list(g.terms.items()) for g in want.generators
        ]


def test_k_rho_worked_values():
    # the multiplicity along each positive-level ray, read off the weak
    # transform: u1 is the ray (3, 2, 2) of level 6, u2 (1, 0, 2) of level 2
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    assert weak_transform(b, ideal(A3, "x^2, y^2 z, z^3"))[1] == {"u1": 6, "u2": 2}
    assert weak_transform(b, ideal(A3, "x^2 + y^2 + z^2"))[1] == {"u1": 4, "u2": 0}
    assert weak_transform(b, ideal(A3, "1"))[1] == {"u1": 0, "u2": 0}


def test_k_rho_identity_against_oracle():
    # on the blown-up ideal itself, the weak transform's multiplicity k_rho
    # along each positive-level ray is the rescaled facet level
    rng = random.Random(7001)
    samples = 0
    while samples < 100:
        n = rng.randrange(2, 4)
        amb = ambient(ordinary=",".join("xyz"[:n]))
        gens = [
            tuple(rng.randrange(0, 5) for _ in range(n))
            for _ in range(rng.randrange(1, 4))
        ]
        if not any(any(g) for g in gens):
            continue
        a = monomial_ideal(gens, n)
        root = rng.choice((1, 2, 3))
        b = rees_blowup(FractionalIdeal(a, root), amb)
        text = ", ".join(
            " ".join(f"{v}^{k}" for v, k in zip(amb.names(), g) if k) or "1"
            for g in a.gens
        )
        pa = ideal(amb, text)
        mult = weak_transform(b, pa)[1]
        for j in b.eplus():
            r = b.fan.rays[j]
            assert mult[b.ray_vars[j]] == b.weights[j] * r.level
            assert mult[b.ray_vars[j]] == oracles.valuation(
                b.weights[j], r.direction, pa
            )
        samples += 1


def test_rees_weights_formula():
    fan = normal_fan(newton(monomial_ideal([(4, 0), (0, 6)], 2)))
    assert [(r.direction, r.level) for r in fan.rays] == [
        ((1, 0), 0),
        ((0, 1), 0),
        ((3, 2), 12),
    ]
    assert rees_weights(fan, 12) == [1, 1, 1]
    assert rees_weights(fan, 8) == [1, 1, 2]
    assert rees_weights(fan, 5) == [1, 1, 5]


def rees_class(frac):
    """The part of a^{1/l}'s blow-up that does not scale with (a, l)."""
    b = rees_blowup(frac, A3)
    return b.beta_rows, b.cox, [c.inverted for c in b.charts]


def test_fractional_ideal_equivalence():
    # (a, l) ~ (closure(a^c), c l) scales levels and vertices by c and
    # leaves the rest of the blow-up alone
    big = FractionalIdeal(mono3((480, 0, 0), (0, 720, 0), (0, 0, 720)), 1440)
    small = FractionalIdeal(mono3((2, 0, 0), (0, 3, 0), (0, 0, 3)), 6)
    assert rees_class(big) == rees_class(small)
    assert rees_class(small) == rees_class(FractionalIdeal(monomial_power(small.base, 3), 18))
    b_big, b_small = rees_blowup(big, A3), rees_blowup(small, A3)
    assert ([c.vertex for c in b_small.charts], b_small.root) == (
        [(2, 0, 0), (0, 3, 0), (0, 0, 3)],
        6,
    )
    assert [c.vertex for c in b_big.charts] == [
        tuple(240 * x for x in c.vertex) for c in b_small.charts
    ]
    assert [r.level for r in b_big.fan.rays] == [240 * r.level for r in b_small.fan.rays]
    other = FractionalIdeal(mono3((2, 0, 0), (0, 3, 0), (0, 0, 4)), 6)
    assert rees_class(small) != rees_class(other)
    with pytest.raises(MwbError):
        FractionalIdeal(small.base, 0)
    with pytest.raises(ZeroIdeal):
        FractionalIdeal(monomial_ideal([], 3), 2)


def t_inverse(b):
    """The image of t^{-1} in the two-stage description of a root-l
    blow-up: var_rho^{N_rho / gcd(l, N_rho)} over the positive-level rays,
    N_rho / gcd(l, N_rho) being N_rho w_rho / l."""
    rays = b.fan.rays
    return {b.ray_vars[j]: rays[j].level * b.weights[j] // b.root for j in b.eplus()}


def test_cusp_center_blowup():
    c = make_center([("x", 4), ("y", 6)], NONE2)
    assert c.root == 12
    assembled = assemble_center(c, A2)
    assert set(assembled.gens) == {(4, 0), (0, 6)}
    b = center_to_blowup(c, A2)
    assert [(r.direction, r.level) for r in b.fan.rays] == [
        ((1, 0), 0),
        ((0, 1), 0),
        ((3, 2), 12),
    ]
    assert b.weights == (1, 1, 1)
    assert b.root == 12
    assert {k: format_polynomial(v) for k, v in b.pullback.items()} == {
        "x": "x'*u^3",
        "y": "y'*u^2",
    }
    assert t_inverse(b) == {"u": 1}
    assert center_consistency(b, c, A2) == []


def test_monomial_center_keeps_full_levels():
    a33 = ambient(monomial="x,y,z")
    c = make_center([], mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)))
    b = center_to_blowup(c, a33)
    assert t_inverse(b) == {"u1": 6, "u2": 2}
    assert center_consistency(b, c, a33) == []
    assert build_blowup(c.monomial, a33).root is None


def test_center_names_each_variable_once():
    # (x^2, x^3) assembles to (x^2), so a root of 6 would weigh x by 3
    with pytest.raises(MwbError, match="twice"):
        make_center([("x", 2), ("x", 3)], NONE2)
    with pytest.raises(MwbError, match="twice"):
        make_center([("x", 1), ("y", 2), ("x", 1)], NONE2)


def weighted_fan_agrees(c, amb):
    """The closed-form fan of a center with no monomial part against the
    double description (normal_fan, and the whole blow-up of rees_blowup)
    and the subset oracle: facet normals, levels and order, the vertices
    and the rays tight at each."""
    j = assemble_center(c, amb)
    b = center_to_blowup(c, amb)
    assert b.fan == normal_fan(newton(j)), c
    assert b == rees_blowup(FractionalIdeal(j, c.root), amb), c
    p = oracles.subset_newton_polyhedron(j.gens, amb.n)
    assert [(r.direction, r.level, r.standard) for r in b.fan.rays] == [
        (f.normal, f.level, k < amb.n) for k, f in enumerate(p.facets)
    ], c
    assert [(cone.vertex, cone.rays) for cone in b.fan.maximal_cones] == [
        (v, tuple(_bits(t))) for v, t in zip(p.vertices, p.incidence)
    ], c
    assert center_consistency(b, c, amb) == [], c
    return b


def test_weighted_center_fan_in_closed_form(monkeypatch):
    rng = random.Random(3101)
    singles = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        amb = ambient(
            ordinary=",".join("xyzwv"[:r]), monomial=",".join("xyzwv"[r:n])
        )
        k = rng.randint(1, n)
        names = rng.sample(amb.names(), k)
        c = make_center([(x, rng.randint(1, 9)) for x in names], monomial_ideal([], n))
        b = weighted_fan_agrees(c, amb)
        exc = b.fan.exceptional()
        if k == 1:
            # one standard ray at a positive level, and no exceptional ray
            (i,) = [amb.index(x) for x in names]
            assert exc == [] and b.eplus() == [i]
            assert b.fan.rays[i].level == c.ordinary[0][1]
            singles += 1
        else:
            assert len(exc) == 1 and b.fan.rays[exc[0]].level == c.root
    assert singles >= 10

    # no Newton polyhedron is built for such a center
    def refuse(_):
        raise AssertionError("a weighted center built a Newton polyhedron")

    monkeypatch.setattr("mwb.blowup.newton", refuse)
    center_to_blowup(make_center([("x", 4), ("y", 6)], NONE2), A2)


def test_drop_corpus_weighted_centers_match_the_double_description(monkeypatch):
    seen = []
    original = engine.center_to_blowup

    def recording(c, amb):
        seen.append((c, amb))
        return original(c, amb)

    monkeypatch.setattr(engine, "center_to_blowup", recording)
    for mode, i in drop_corpus():
        engine.resolve(i, mode)
    monkeypatch.undo()
    pure = [(c, amb) for c, amb in seen if c.monomial.is_zero()]
    assert len(pure) > 20 and len(pure) < len(seen)
    for c, amb in pure:
        weighted_fan_agrees(c, amb)


def test_center_consistency_detects_mismatch():
    # each center against its own blow-up, then against another, so that
    # every message is met
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    bad = make_center([("x", 1)], monomial_ideal([], 3))
    b_for_bad = center_to_blowup(bad, A3)
    assert center_consistency(b_for_bad, bad, A3) == []
    assert center_consistency(b, bad, A3) == [
        "ray (3, 2, 2): 1 * u[0] != level 6",
        "ray (3, 2, 2) meets ordinary non-center y",
        "ray (3, 2, 2) meets ordinary non-center z",
        "ray (1, 0, 2): 1 * u[0] != level 2",
        "ray (1, 0, 2) meets ordinary non-center z",
    ]
    # root 6 against level 2
    cusp = make_center([("x", 2), ("y", 3)], NONE2)
    assert center_consistency(center_to_blowup(cusp, A2), cusp, A2) == []
    assert center_consistency(build_blowup(monomial_ideal([(1, 0), (0, 2)], 2), A2), cusp, A2) == [
        "root 6 does not divide level 2 of (2, 1)",
        "ray (2, 1): 2 * u[0] != level 2",
        "ray (2, 1): 3 * u[1] != level 2",
    ]
    # (x y, x z) = x (y, z): the standard ray of x has level 1 and is no
    # exceptional ray
    amb = ambient(ordinary="y", monomial="x,z")
    mixed = make_center([("y", 1)], monomial_ideal([(0, 1, 1)], 3))
    assert center_consistency(center_to_blowup(mixed, amb), mixed, amb) == []
    assert center_consistency(build_blowup(mono3((1, 1, 0), (0, 1, 1)), amb), mixed, amb) == [
        "positive-level rays differ from exceptional rays"
    ]


def test_restrict_blowup():
    c = make_center([("x", 2), ("y", 2)], NONE2)
    r = restrict_blowup(c, A2)
    assert r.source.n == 1
    assert r.root == 2
    assert [(ray.direction, ray.level) for ray in r.fan.rays] == [((1,), 2)]
    with pytest.raises(HypothesisViolated):
        restrict_blowup(make_center([("x", 2), ("y", 3)], NONE2), A2)
    with pytest.raises(MwbError):
        restrict_blowup(make_center([], monomial_ideal([(1, 0)], 2)), A2)
    with pytest.raises(MwbError):
        restrict_blowup(
            make_center([("x", 1)], monomial_ideal([(2, 1)], 2)), A2
        )


def test_shift_leaves_the_blowup_alone():
    a = mono3((2, 0, 0), (0, 2, 1), (0, 0, 3))
    base = build_blowup(a, A3)
    shifted = build_blowup(monomial_shift(a, (1, 0, 0)), A3)
    assert [r.direction for r in shifted.fan.rays] == [
        r.direction for r in base.fan.rays
    ]
    for rb, rs in zip(base.fan.rays, shifted.fan.rays):
        assert rs.level == rb.level + dot(rb.direction, (1, 0, 0))
    assert shifted.pullback.keys() == base.pullback.keys()
    for k in base.pullback:
        assert shifted.pullback[k].terms == base.pullback[k].terms
    assert [c.inverted for c in shifted.charts] == [
        c.inverted for c in base.charts
    ]
    assert declared_exceptional(base) == []
    assert declared_exceptional(shifted) == ["x'"]
    assert shifted.eplus() == [0, 3, 4]
    assert shifted.fan.exceptional() == [3, 4]


def stack_rays(a, root):
    """The stack-theoretic fan of the root-l blow-up, rays in Z^(n+1), read
    off rees_blowup: the coordinate rays padded by 0, and for each
    positive-level ray its row w_rho u_rho = (l/g) u_rho, g = gcd(l, N_rho),
    padded by N_rho / g."""
    b = rees_blowup(FractionalIdeal(a, root), A3)
    out = {tuple(1 if j == i else 0 for j in range(a.dim)) + (0,) for i in range(a.dim)}
    for j in b.eplus():
        out.add(b.beta_rows[j] + (b.fan.rays[j].level * b.weights[j] // root,))
    return frozenset(out)


def test_canonical_stack_rays():
    a = mono3((2, 0, 0), (0, 2, 1), (0, 0, 3))
    assert stack_rays(a, 1) == frozenset(
        {
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (3, 2, 2, 6),
            (1, 0, 2, 2),
        }
    )
    assert stack_rays(a, 2) == frozenset(
        {
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (3, 2, 2, 3),
            (1, 0, 2, 1),
        }
    )


def test_weight_overrides():
    a = mono3((2, 0, 0), (0, 2, 1), (0, 0, 3))
    b = build_blowup(a, A3, weights={(3, 2, 2): 2})
    assert b.weights == (1, 1, 1, 2, 1)
    assert format_polynomial(b.pullback["x"]) == "x'*u1^6*u2"
    with pytest.raises(MwbError):
        build_blowup(a, A3, weights={(1, 1, 1): 2})
    with pytest.raises(MwbError):
        build_blowup(a, A3, weights={(3, 2, 2): 0})


def test_primed_cox_names_are_distinct():
    # x -> x' is held by the kept x', and x' -> x'' by the kept x''; each
    # primed name gains primes until it is free, and kept names stay
    amb = ambient(ordinary="x,x',x''")
    b = build_blowup(monomial_ideal([(1, 0, 0), (0, 0, 1)], 3), amb)
    assert b.name_map == {"x": "x''", "x'": "x'", "x''": "x'''"}
    # nothing collides: the names are the plain primes
    b = build_blowup(monomial_ideal([(1, 0), (0, 1)], 2), ambient(ordinary="x,x'"))
    assert b.name_map == {"x": "x'", "x'": "x''"}


def test_one_newton_polyhedron_per_blowup(monkeypatch):
    calls = []

    def counting(i):
        calls.append(i)
        return newton(i)

    monkeypatch.setattr("mwb.blowup.newton", counting)
    a = mono3((2, 0, 0), (0, 2, 1), (0, 0, 3))
    build_blowup(a, A3)
    assert calls == [a]
    calls.clear()
    rees_blowup(FractionalIdeal(a, 6), A3)
    assert calls == [a]


def test_build_errors():
    with pytest.raises(ZeroIdeal):
        build_blowup(monomial_ideal([], 3), A3)
    with pytest.raises(MwbError):
        build_blowup(monomial_ideal([(1, 0)], 2), A3)
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    with pytest.raises(MwbError):
        total_transform(b, ideal(A2, "x"))


def test_transform_boundaries():
    # the one-pass transforms keep the classes and messages of the
    # per-ray valuations they replaced: an ideal over another ambient,
    # same arity and other flags included, and the zero ideal
    b = build_blowup(mono3((2, 0, 0), (0, 2, 1), (0, 0, 3)), A3)
    elsewhere = "^polynomial does not live on the blow-up's source$"
    for other in (ideal(A2, "x"), ideal(ambient(monomial="x,y,z"), "x y")):
        for transform in (weak_transform, exceptional_multiplicities):
            with pytest.raises(MwbError, match=elsewhere):
                transform(b, other)
        with pytest.raises(MwbError, match="^ideal does not live on the blow-up's source$"):
            total_transform(b, other)
    zero = ideal(A3, "0")
    with pytest.raises(ZeroIdeal, match="^weak transform of the zero ideal$"):
        weak_transform(b, zero)
    with pytest.raises(ZeroIdeal, match="^multiplicities of the zero ideal$"):
        exceptional_multiplicities(b, zero)

"""End-to-end acceptance: the worked examples, the order laws, and the
oracle cross-checks, one test per claim.  Run with -v for the checklist."""

import json
import math
import os
import random
from fractions import Fraction
from functools import lru_cache

from conftest import (
    ambient,
    drop_corpus,
    frontier,
    ideal,
    nondegenerate_samples,
    poly,
    random_polynomial,
)
from test_cli import GOLDEN, TRANSCRIPTS, render
from test_invariant import CHAIN, inv_of
from test_monomials import random_ideals
from test_polyhedra import random_cases

import mwb.engine
import oracles
from mwb import groebner
from mwb.blowup import (
    FractionalIdeal,
    assemble_center,
    build_blowup,
    center_to_blowup,
    proper_transform,
    rees_blowup,
    total_transform,
    weak_transform,
)
from mwb.engine import chart_origin, newton_nondegenerate, one_step_check, reembed_check, resolve
from mwb.errors import MwbError
from mwb.groebner import ideal_equal, is_unit_ideal, member, saturate_at_variables
from mwb.invariant import INF, Invariant, center_display, compare, invariant_at, reduced_center
from mwb.monomials import closure_member, monomial_ideal
from mwb.poly import (
    PolyIdeal,
    Polynomial,
    constant,
    format_polynomial,
    substitute,
    variable,
)
from mwb.polyhedra import newton_polyhedron

F_TEXT = "x^2 + y^2 z + z^3"
ORIGIN3 = (0, 0, 0)

A3 = ambient(ordinary="x,y,z")
CUBE = monomial_ideal([(2, 0, 0), (0, 3, 0), (0, 0, 3)], 3)
Q = monomial_ideal([(2, 0, 0), (0, 2, 1), (0, 0, 3)], 3)


def fmt_ideal(i):
    return sorted(format_polynomial(g) for g in i.generators)


def quartet_ambients():
    return {
        3: ambient(monomial="x,y,z"),
        2: ambient(ordinary="x", monomial="y,z"),
        1: ambient(ordinary="x,y", monomial="z"),
        0: ambient(ordinary="x,y,z"),
    }


@lru_cache(maxsize=None)
def quartet_trees():
    return {k: resolve(ideal(a, F_TEXT)) for k, a in quartet_ambients().items()}


@lru_cache(maxsize=None)
def corpus_trees():
    return [resolve(i, mode=kind) for kind, i in drop_corpus()]


def walk(node):
    yield node
    for c in node.children:
        yield from walk(c)


def center_violations(cid, amb):
    """The three facet identities of an assembled center j, checked on
    every exceptional facet of P_j: the root divides the level, each
    contact generator's vertex lies on the facet, and the normal vanishes
    at ordinary non-contact variables.  Applies to centers with at least
    one contact variable and a nonzero monomial part."""
    if not cid.ordinary or not cid.monomial.gens:
        return []
    j = assemble_center(cid, amb)
    p = newton_polyhedron(list(j.gens), amb.n)
    contacts = {name for name, _ in cid.ordinary}
    bad = []
    for f in p.facets:
        if f.is_standard():
            continue
        if f.level % cid.root:
            bad.append(f"{f.normal}: root {cid.root} does not divide {f.level}")
        for name, e in cid.ordinary:
            if e * f.normal[amb.index(name)] != f.level:
                bad.append(f"{f.normal}: vertex of {name}^{e} is off the facet")
        for i, name in enumerate(amb.names()):
            if name not in contacts and not amb.is_log(name):
                if f.normal[i] != 0:
                    bad.append(f"{f.normal}: nonzero at non-contact {name}")
    return bad


def test_single_ray_blowup_presentation():
    b = rees_blowup(FractionalIdeal(CUBE, 1), A3)
    rays = [r for r in b.fan.rays if not r.standard]
    assert [(r.direction, r.level) for r in rays] == [((3, 2, 2), 6)]
    assert b.weights == (1, 1, 1, 1)
    assert {n: format_polynomial(b.pullback[n]) for n in "xyz"} == {
        "x": "x'*u^3",
        "y": "y'*u^2",
        "z": "z'*u^2",
    }
    assert b.grading == {"x'": (3,), "y'": (2,), "z'": (2,), "u": (-1,)}
    assert b.irrelevant == (("x'",), ("y'",), ("z'",))
    name = "blowup_single_ray.txt"
    assert render(TRANSCRIPTS[name]) == (GOLDEN / name).read_text()


def test_two_ray_blowup_presentation():
    b = build_blowup(Q, A3)
    rays = [r for r in b.fan.rays if not r.standard]
    assert [(r.direction, r.level) for r in rays] == [((3, 2, 2), 6), ((1, 0, 2), 2)]
    assert {n: format_polynomial(b.pullback[n]) for n in "xyz"} == {
        "x": "x'*u1^3*u2",
        "y": "y'*u1^2",
        "z": "z'*u1^2*u2^2",
    }
    assert b.grading == {
        "x'": (3, 1),
        "y'": (2, 0),
        "z'": (2, 2),
        "u1": (-1, 0),
        "u2": (0, -1),
    }
    assert b.irrelevant == (("x'",), ("y'", "z'"), ("z'", "u2"))
    name = "blowup_two_rays.txt"
    assert render(TRANSCRIPTS[name]) == (GOLDEN / name).read_text()


def test_total_transform_divisibility_and_chartwise_unit():
    b = build_blowup(Q, A3)
    total = total_transform(b, ideal(A3, "x^2 + y^2 + z^2"))
    (g,) = total.generators
    u1, u2 = b.cox.index("u1"), b.cox.index("u2")
    assert min(e[u1] for e in g.terms) == 4  # u1^4 divides, u1^5 does not
    assert min(e[u2] for e in g.terms) == 0  # u2 does not divide
    weak, mult = weak_transform(b, ideal(A3, "x^2, y^2 z, z^3"))
    assert mult == {"u1": 6, "u2": 2}
    for chart in b.charts:
        assert is_unit_ideal(saturate_at_variables(weak, chart.inverted))


def test_weak_and_proper_transforms_of_a_pair_differ():
    b = build_blowup(Q, A3)
    weak, _ = weak_transform(b, ideal(A3, "x^2 + y^2, z - y^2"))
    target = ideal(b.cox, "x'^2 u1^4 u2^2 + y'^2 u1^2, z' u2^2 - y'^2 u1^2")
    assert ideal_equal(weak, target)
    proper = proper_transform(b, ideal(A3, "x^2 + y^2, z - y^2"))
    for g in weak.generators:
        assert member(g, proper)
    witness = poly(b.cox, "x'^2 u1^4 + z'")
    assert member(witness, proper)
    assert not member(witness, weak)


def test_invariant_table_across_the_four_log_structures():
    table = {
        3: ("(inf)", (), {(2, 0, 0), (0, 2, 1), (0, 0, 3)}, "((x^2, y^2*z, z^3))"),
        2: ("(2, inf)", ("x",), {(0, 2, 1), (0, 0, 3)}, "(x, (y^2*z, z^3)^{1/2})"),
        1: ("(2, inf)", ("x",), {(0, 0, 1)}, "(x, (z)^{1/2})"),
        0: ("(2, 3, 3)", ("x", "y", "z"), set(), "(x^{1/3}, y^{1/2}, z^{1/2})"),
    }
    for k, amb in quartet_ambients().items():
        inv, ctr = invariant_at(ideal(amb, F_TEXT), ORIGIN3)
        want_inv, contacts, q_gens, display = table[k]
        assert str(inv) == want_inv
        assert tuple(c.name for c in ctr.contacts) == contacts
        assert set(ctr.q.gens) == q_gens
        assert center_display(ctr, amb) == display
    cid, root, _ = reduced_center(
        invariant_at(ideal(quartet_ambients()[0], F_TEXT), ORIGIN3)[1],
        quartet_ambients()[0],
    )
    assert cid.ordinary == (("x", 2), ("y", 3), ("z", 3))
    assert root == 6


def test_resolution_step_counts_and_transforms():
    trees = quartet_trees()

    t = trees[3]
    assert t.order() == 1
    assert [c.label for c in t.root.children] == ["x'", "y'z'", "z'u2"]
    assert t.root.multiplicities == {"u1": 6, "u2": 2}
    for c in t.root.children:
        assert fmt_ideal(c.ideal) == ["z'^3*u2^4 + y'^2*z' + x'^2"]

    t = trees[0]
    assert t.order() == 1
    assert t.root.multiplicities == {"u": 6}
    for c in t.root.children:
        assert fmt_ideal(c.ideal) == ["y'^2*z' + z'^3 + x'^2"]

    t = trees[1]
    assert t.order() == 2
    assert [c.label for c in t.root.children] == ["x'", "z'"]
    mid = t.root.children[1]
    assert str(mid.invariant) == "(2, 2, inf)"
    assert set(assemble_center(mid.center_ideal, mid.ambient).gens) == {
        (2, 0, 0, 0),
        (0, 2, 0, 0),
        (0, 0, 0, 4),
    }
    assert mid.center_ideal.root == 2
    for c in mid.children:
        assert fmt_ideal(c.ideal) == ["z'^3*u'^4 + y'^2*z' + x''^2"]
    # the two pullbacks compose to a pure exceptional factor times the leaf
    b1, b2 = t.root.blowup, mid.blowup
    composite = {
        k: substitute(v, b2.pullback, b2.cox) for k, v in b1.pullback.items()
    }
    amb1 = ambient(ordinary="x,y", monomial="z")
    total = substitute(poly(amb1, F_TEXT), composite, b2.cox)
    factor = poly(b2.cox, "u'^2 v^6")
    final = Polynomial(b2.cox, mid.children[0].ideal.generators[0].terms)
    assert total.terms == (factor * final).terms


def test_well_order_chain_and_random_triples():
    assert len(CHAIN) == 9
    for i, u in enumerate(CHAIN):
        for j, v in enumerate(CHAIN):
            assert compare(u, v) == (i > j) - (i < j)
    rng = random.Random(411)
    pool = []
    for _ in range(60):
        k = rng.randrange(0, 4)
        entries = [
            Fraction(rng.randrange(1, 8), rng.randrange(1, 4)) for _ in range(k)
        ]
        if k and rng.random() < 0.3:
            entries[-1] = INF
        pool.append(inv_of(tuple(entries)))
    for _ in range(1000):
        u, v, w = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        cuv, cvw, cuw = compare(u, v), compare(v, w), compare(u, w)
        assert cuv in (-1, 0, 1)  # totality
        assert compare(v, u) == -cuv
        if cuv == 0:
            assert u.entries == v.entries
        if cuv <= 0 and cvw <= 0:  # transitivity
            assert cuw <= 0
        if cuv < 0 and cvw <= 0:
            assert cuw < 0


def test_invariant_strictly_drops_along_every_edge():
    cases = drop_corpus()
    assert len(cases) >= 20
    edges = 0
    for tree in corpus_trees():
        for node in walk(tree.root):
            for child in node.children:
                if node.invariant is None or child.invariant is None:
                    continue
                assert compare(child.invariant, node.invariant) < 0
                edges += 1
    assert edges > 0


def test_reembedding_extends_the_invariant_by_one():
    for k, amb in quartet_ambients().items():
        report = reembed_check(ideal(amb, F_TEXT), chart_origin(amb))
        original = report["invariant"].entries
        assert report["extended_invariant"].entries == (Fraction(1),) + original
        assert report["invariant_ok"]
        assert report["applicable"]
        assert report["center_ok"]
        assert report["root_ok"]
        assert report["blowup_ok"]
        assert report["transforms_ok"]
        assert report["ok"]


def test_newton_nondegeneracy_and_one_step_resolution():
    a33 = quartet_ambients()[3]
    f = poly(a33, F_TEXT)
    ok, witness = newton_nondegenerate(f)
    assert ok and witness is None
    report = one_step_check(f)
    assert report["resolved"]
    assert all(report["charts"].values())
    assert all(report["faces"].values())
    bad = poly(ambient(monomial="x,y"), "(x + y)^2")
    ok, witness = newton_nondegenerate(bad)
    assert not ok
    assert witness == "face spanned by x^2, y^2"
    for sample in nondegenerate_samples(9005, 50):
        assert one_step_check(sample)["resolved"]


def test_the_chart_origin_refutes_only_what_the_lift_refutes(monkeypatch):
    # every yes/no chart question of the drop corpus and the golden
    # commands whose generators all vanish at the chart's origin (inverted
    # variables 1, the rest 0) is answered "not the unit ideal", and the
    # Rabinowitsch lift, built by renaming, gives a nonnegative dimension
    asked = {}
    original = groebner.saturates_to_unit_on_charts

    def recording(ideal, name_sets):
        answers = original(ideal, name_sets)
        for names, unit in zip(name_sets, answers):
            asked[ideal, frozenset(names)] = unit
        return answers

    monkeypatch.setattr(groebner, "saturates_to_unit_on_charts", recording)
    for kind, i in drop_corpus():
        resolve(i, mode=kind)
    for commands in TRANSCRIPTS.values():
        render(commands)
    monkeypatch.undo()
    witnessed = 0
    for (i, names), unit in asked.items():
        origin = [int(n in names) for n in i.ambient.names()]
        if all(g.evaluate(origin) == 0 for g in i.generators):
            assert not unit, (i, names)
            lift = oracles.rabinowitsch_by_rename(i, Polynomial(i.ambient, {tuple(origin): 1}))
            assert oracles.basis_dimension(lift) >= 0, (i, names)
            witnessed += 1
    assert witnessed >= 20 and True in asked.values()


def test_oracle_suites_agree_with_the_package():
    # polyhedron vertices against the convex-combination oracle
    for n, gens in random_cases(9101, 200):
        p = newton_polyhedron(gens, n)
        assert set(p.vertices) == oracles.hull_vertices(gens)

    # the weak transform's multiplicity k_rho on the blown-up ideal itself
    # is the rescaled facet level, and the valuation oracle's
    rng = random.Random(9102)
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
            assert (
                mult[b.ray_vars[j]]
                == b.weights[j] * r.level
                == oracles.valuation(b.weights[j], r.direction, pa)
            )
        samples += 1

    # integral-closure membership against the hull oracle
    rng = random.Random(9103)
    for mono, gens in random_ideals(9104, 200):
        for _ in range(5):
            probe = tuple(rng.randint(0, 7) for _ in range(mono.dim))
            assert closure_member(probe, mono) == oracles.in_hull(probe, gens)

    # the three center identities on every center the driver produced
    checked = 0
    trees = list(quartet_trees().values()) + corpus_trees()
    trees.append(resolve(ideal(ambient(ordinary="x,y"), "x^2, x y^2"), mode="principalize"))
    for tree in trees:
        for node in walk(tree.root):
            if node.center_ideal is None:
                continue
            assert center_violations(node.center_ideal, node.ambient) == []
            if node.center_ideal.ordinary and node.center_ideal.monomial.gens:
                checked += 1
    assert checked >= 3


def order_three_four_samples(seed, count):
    """Seeded ideals in one ordinary variable x and monomial y, z with log
    order b = 3 or 4 at their point: (x - t)^b plus monomials times two of
    (x - t)^0, (x - t)^1, (x - t)^2, and for b = 3 maybe a second generator
    without the leading power.  t alternates between 0 and 1.  At b = 4 the
    power (x - t)^3 is left out: its Tschirnhaus shift makes the product
    oracle take seconds per ideal."""
    rng = random.Random(seed)
    amb = ambient(ordinary="x", monomial="y,z")
    out = []
    for k in range(count):
        point = (k % 2, 0, 0)
        x = variable(amb, "x") - constant(amb, point[0])
        b = 3 + k // 2 % 2
        leads = [x**b]
        if rng.randint(0, 1) and b == 3:
            leads.append(constant(amb, 0))
        gens = []
        for f in leads:
            for a in rng.sample(range(3), 2):
                e = (0, rng.randint(1, 2), rng.randint(0, 2))
                f = f + rng.choice((-2, -1, 1, 3)) * x**a * Polynomial(amb, {e: 1})
            gens.append(f)
        out.append((PolyIdeal(amb, gens), point))
    return out


def point_outcome(i, p):
    """invariant_at, or the error it raised."""
    try:
        return invariant_at(i, p)
    except MwbError as e:
        return type(e).__name__, str(e)


def canonical_center(center, amb):
    """The center's Rees class, independent of the scale the center is
    stored at: per ray of its blow-up, the direction u, the weight w and
    N w / l.  The reduced fraction N / l, which these two give, fixes P / l,
    so the class; the fan and Cox data alone do not: (x^2, y^3)^{1/6} and
    (x^4, y^6)^{1/6} share them."""
    if center is None:
        return None
    b = center_to_blowup(reduced_center(center, amb)[0], amb)
    return [(r.direction, w, r.level * w // b.root) for r, w in zip(b.fan.rays, b.weights)]


def random_vanishing_ideals(seed, count):
    """Seeded ideals of one or two random polynomials in two or three
    variables, each variable ordinary or monomial at random, that vanish at
    the origin.  Exponents stay below four: with four, the product-form
    oracle takes seconds on some draws."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        flags = [rng.choice(("ordinary", "monomial")) for _ in range(n)]
        amb = ambient(
            ordinary=",".join(v for v, f in zip("xyz", flags) if f == "ordinary"),
            monomial=",".join(v for v, f in zip("xyz", flags) if f == "monomial"),
        )
        gens = [random_polynomial(rng, amb, max_entry=3) for _ in range(rng.randint(1, 2))]
        if all(g.evaluate((0,) * n) == 0 for g in gens):
            out.append((PolyIdeal(amb, gens), (0,) * n))
    return out


def test_family_invariant_agrees_with_the_tower_oracle(monkeypatch):
    """The Rees-family invariant against the derivative tower with the
    product-form coefficient ideal, on every invariant_at call the drop
    corpus makes, the order-3/4 samples and seeded random ideals: wherever
    the oracle answers, the family gives the same entries and the same
    canonical center, and refuses none of them."""
    calls = []

    def recording(i, p):
        calls.append((i, p))
        return invariant_at(i, p)

    monkeypatch.setattr(mwb.engine, "invariant_at", recording)
    for kind, i in drop_corpus():
        resolve(i, mode=kind)
    monkeypatch.undo()
    cases = calls + order_three_four_samples(9203, 32) + random_vanishing_ideals(1107, 150)
    answered, refused = 0, []
    for i, p in cases:
        try:
            want_inv, want_center = oracles.tower_invariant(i, p)
        except MwbError:
            refused.append((i, p))
            continue
        inv, center = invariant_at(i, p)
        assert inv.entries == want_inv.entries, (i, p)
        assert canonical_center(center, i.ambient) == canonical_center(want_center, i.ambient), (i, p)
        answered += 1
    widened = sum(isinstance(point_outcome(i, p)[0], Invariant) for i, p in refused)
    assert len(calls) == 40 and answered >= 180 and widened > 0


def test_brieskorn_pham_sums_have_the_closed_form():
    """x_1^{a_1} + ... on ordinary variables: the invariant is the sorted
    exponents and the reduced center (x_i^{1/(L/a_i)}), L = lcm(a_i), with
    contacts by increasing exponent, ties to the earlier variable."""
    rng = random.Random(2203)
    for _ in range(40):
        n = rng.randint(2, 3)
        exps = [rng.randint(2, 7) for _ in range(n)]
        amb = ambient(ordinary=",".join("xyz"[:n]))
        text = " + ".join(f"{v}^{a}" for v, a in zip("xyz", exps))
        inv, center = invariant_at(ideal(amb, text), (0,) * n)
        assert inv.entries == tuple(sorted(exps)), text
        order = sorted(range(n), key=lambda k: (exps[k], k))
        assert [c.name for c in center.contacts] == ["xyz"[k] for k in order], text
        L = math.lcm(*exps)
        _, root, weights = reduced_center(center, amb)
        assert weights == tuple(L // exps[k] for k in order), text
    amb = ambient(ordinary="x,y,z")
    _, center = invariant_at(ideal(amb, "x^3 + y^4 + z^5"), ORIGIN3)
    assert center_display(center, amb) == "(x^{1/20}, y^{1/15}, z^{1/12})"


FRONTIER = ["x^3 + y^4 + z^5", "x^3 + y^3 + z^3", "x y z", "x^2 + y^2 z^3"]


def test_the_roadmap_frontier_keeps_its_counts_and_refusals():
    """Seeds 104, 106 and 108 of conftest.frontier, 120 hypersurfaces
    each: how many resolve, and each refusal's input and message, as
    golden/frontier.json records them.  A change that resolves more of
    them updates the file on purpose, with MWB_REGEN=1."""
    got = {}
    for seed, max_entry in ((104, 4), (106, 6), (108, 8)):
        resolved, refused = 0, []
        for k, i in enumerate(frontier(seed, max_entry)):
            try:
                resolve(i)
                resolved += 1
            except MwbError as e:
                refused.append(f"#{k} {i}: {type(e).__name__}: {e}")
        got[str(seed)] = {"resolved": resolved, "refused": refused}
    path = GOLDEN / "frontier.json"
    if os.environ.get("MWB_REGEN"):
        path.write_text(json.dumps(got, indent=1) + "\n")
    assert json.loads(path.read_text()) == got
    counts = [(v["resolved"], len(v["refused"])) for v in got.values()]
    assert counts == [(100, 20), (86, 34), (87, 33)]


def test_frontier_inputs_resolve_with_strict_drop():
    """The inputs of order three and up that the factorial coefficient
    ideal refused: each resolves to smooth leaves, and the invariant drops
    along every edge whose child computes one."""
    edges = 0
    for text in FRONTIER:
        tree = resolve(ideal(A3, text))
        for node in walk(tree.root):
            if node.is_leaf():
                assert node.status == "smooth", text
            for child in node.children:
                if child.invariant is not None:
                    assert compare(child.invariant, node.invariant) < 0, text
                    edges += 1
    assert edges > 0

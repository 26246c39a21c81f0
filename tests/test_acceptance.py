"""End-to-end acceptance: the worked examples, the order laws, and the
oracle cross-checks, one test per claim.  Run with -v for the checklist."""

import random
from fractions import Fraction
from functools import lru_cache

from conftest import (
    ambient,
    drop_corpus,
    ideal,
    nondegenerate_samples,
    poly,
)
from test_cli import GOLDEN, TRANSCRIPTS, render
from test_invariant import CHAIN, inv_of
from test_monomials import random_ideals
from test_polyhedra import random_cases

import mwb.invariant
import oracles
from mwb.blowup import (
    FractionalIdeal,
    assemble_center,
    build_blowup,
    k_rho,
    proper_transform,
    rees_blowup,
    total_transform,
    weak_transform,
)
from mwb.engine import chart_origin, newton_nondegenerate, one_step_check, reembed_check, resolve
from mwb.errors import MwbError
from mwb.groebner import ideal_equal, is_unit_ideal, member, saturate_at_variables
from mwb.invariant import INF, compare, invariant_at, reduced_center
from mwb.monomials import closure_member, monomial_ideal
from mwb.poly import (
    PolyIdeal,
    Polynomial,
    constant,
    format_polynomial,
    monomial,
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
    from mwb.invariant import center_display

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
    assert cid.ordinary == (("x", 480), ("y", 720), ("z", 720))
    assert root == 1440


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


def test_oracle_suites_agree_with_the_package():
    # polyhedron vertices against the convex-combination oracle
    for n, gens in random_cases(9101, 200):
        p = newton_polyhedron(gens, n)
        assert set(p.vertices) == oracles.hull_vertices(gens)

    # k_rho of the blown-up ideal is the rescaled facet level
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
        for j in b.eplus():
            r = b.fan.rays[j]
            assert k_rho(b, j, pa) == b.weights[j] * r.level
            assert k_rho(b, j, pa) == oracles.valuation(b.weights[j], r.direction, pa)
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


def node_record(node):
    """What a resolve tree fixes at a node."""
    root = node.center_ideal.root if node.center_ideal else None
    return (
        node.path,
        node.invariant,
        node.worst_point,
        node.center,
        root,
        node.status,
        node.scope,
    )


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
                f = f + rng.choice((-2, -1, 1, 3)) * x**a * monomial(amb, e)
            gens.append(f)
        out.append((PolyIdeal(amb, gens), point))
    return out


def point_outcome(i, p):
    """invariant_at, or the error it raised."""
    try:
        return invariant_at(i, p)
    except MwbError as e:
        return type(e).__name__, str(e)


def test_pure_power_coefficient_ideals_agree_with_the_product_form(monkeypatch):
    """C(I, b) from the pure powers against the product form over every
    minimal tuple: the same trees on the drop corpus, and the same
    invariants and centers on seeded ideals of order 3 and 4.  The two forms
    agree up to integral closure, and a center's monomial part is stored by
    its Newton polyhedron's vertices, so centers are compared exactly."""
    samples = order_three_four_samples(9203, 32)
    want_trees = [[node_record(n) for n in t.nodes()] for t in corpus_trees()]
    want_points = [point_outcome(i, p) for i, p in samples]
    multi = set()  # orders b met with a stage of two or more generators

    def product_form(levels, b, amb):
        if max(len(mwb.invariant._prune(amb, lv)[0]) for lv in levels) > 1:
            multi.add(b)
        # no basis: the tower computes the product form's own
        return oracles.product_coefficient_ideal(levels, b, amb), None

    monkeypatch.setattr(mwb.invariant, "_products_ideal", product_form)
    for (kind, i), want in zip(drop_corpus(), want_trees):
        assert [node_record(n) for n in resolve(i, mode=kind).nodes()] == want
    covered = set()
    for (i, p), want in zip(samples, want_points):
        multi.clear()
        assert point_outcome(i, p) == want
        covered |= {(b, p) for b in multi}
    assert {(3, (0, 0, 0)), (3, (1, 0, 0)), (4, (0, 0, 0)), (4, (1, 0, 0))} <= covered

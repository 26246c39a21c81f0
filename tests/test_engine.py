"""Resolution driver: worked trees, the drop law, and the one-step checks."""

import random
from fractions import Fraction

import oracles
import pytest

from conftest import (
    F_TEXT,
    ambient,
    drop_corpus,
    ideal,
    nondegenerate_samples,
    poly,
    random_polynomial,
)
from mwb import engine, groebner, monomials, polyhedra
from mwb.blowup import build_blowup, weak_transform
from mwb.engine import (
    blowup_equal,
    chart_origin,
    depth_limit,
    newton_nondegenerate,
    one_step_check,
    principalize,
    reembed_check,
    resolve,
)
from mwb.errors import DepthExceeded, MwbError
from mwb.invariant import compare, d_leq, invariant_at
from mwb.monomials import newton
from mwb.poly import (
    PolyIdeal,
    Polynomial,
    constant,
    format_monomial,
    format_polynomial,
    monomial_saturation,
    rename,
    substitute,
    variable,
)
from mwb.polyhedra import _bits, affinely_independent, dot, faces, newton_polyhedron


def fmt_ideal(i):
    return sorted(format_polynomial(g) for g in i.generators)


def walk(node):
    yield node
    for c in node.children:
        yield from walk(c)


def record_faces(p):
    """Each face of P from the subset oracle as (defining, vertices,
    generators): the defining mask, the vertices on the face, and the
    generators tight on every defining facet, by dot products."""
    out = []
    for defining, on, _, _ in oracles.subset_faces(p):
        facets = [p.facets[j] for j in _bits(defining)]
        gens = tuple(
            g for g in p.generators if all(dot(t.normal, g) == t.level for t in facets)
        )
        out.append((defining, tuple(p.vertices[k] for k in _bits(on)), gens))
    return out


def record_nondegenerate(f, face_list):
    """newton_nondegenerate's verdict and witness from record_faces: each
    distinct face polynomial through the support test and the lift."""
    amb = f.ambient
    checked = set()
    for _, vertices, gens in face_list:
        if gens in checked:
            continue
        checked.add(gens)
        ftau = Polynomial(amb, {e: f.terms[e] for e in gens})
        if not engine._smooth_on_charts(PolyIdeal(amb, (ftau,)), [amb.names()])[0]:
            return False, "face spanned by " + ", ".join(
                format_monomial(amb, v) for v in vertices
            )
    return True, None


def record_orbit(f, p, face_list, report):
    """one_step_check's faces dict from record_faces: each face's orbit
    restriction of the weak transform against f's terms on the face,
    keyed by the face's vertices, the checks of one key ANDed."""
    b, amb = report["blowup"], f.ambient
    on_cox = dict(zip(f.terms, rename(f, b.name_map, b.cox).terms))
    tagged = engine._orbit_terms(report["weak"], b)
    names = {v: format_monomial(amb, v) for v in p.vertices}
    orbit = {}
    for defining, vertices, gens in face_list:
        ftau = {on_cox[e]: f.terms[e] for e in gens}
        ok = engine._orbit_restriction(tagged, defining) == ftau
        label = ", ".join(names[v] for v in vertices)
        orbit[label] = orbit.get(label, True) and ok
    return orbit


class TestQuartetResolutions:
    def test_all_monomial_one_step(self, a33):
        tree = resolve(ideal(a33, F_TEXT))
        assert tree.order() == 1
        root = tree.root
        assert str(root.invariant) == "(inf)"
        assert root.multiplicities == {"u1": 6, "u2": 2}
        assert [c.label for c in root.children] == ["x'", "y'z'", "z'u2"]
        for c in root.children:
            assert c.status == "smooth"
            assert c.scope == "chart"
            assert fmt_ideal(c.ideal) == ["z'^3*u2^4 + y'^2*z' + x'^2"]

    def test_one_ordinary_one_step(self, a32):
        tree = resolve(ideal(a32, F_TEXT))
        assert tree.order() == 1
        root = tree.root
        assert str(root.invariant) == "(2, inf)"
        assert root.multiplicities == {"u1": 6, "u2": 2}
        assert all(c.status == "smooth" for c in root.children)

    def test_two_ordinary_needs_two_steps(self, a31):
        tree = resolve(ideal(a31, F_TEXT))
        assert tree.order() == 2
        root = tree.root
        assert str(root.invariant) == "(2, inf)"
        assert root.multiplicities == {"u": 2}
        by_label = {c.label: c for c in root.children}
        assert set(by_label) == {"x'", "z'"}
        assert by_label["x'"].status == "smooth"
        mid = by_label["z'"]
        assert str(mid.invariant) == "(2, 2, inf)"
        assert mid.worst_point == (0, 0, 1, 0)
        assert fmt_ideal(mid.ideal) == ["z'^3*u^4 + y^2*z' + x'^2"]
        ci = mid.center_ideal
        assert ci.ordinary == (("x'", 2), ("y", 2))
        assert set(ci.monomial.gens) == {(0, 0, 0, 4)}
        assert ci.root == 2
        assert mid.multiplicities == {"v": 4}
        assert [c.label for c in mid.children] == ["x''", "y'", "u'"]
        for c in mid.children:
            assert c.status == "smooth"
            assert fmt_ideal(c.ideal) == ["z'^3*u'^4 + y'^2*z' + x''^2"]

    def test_two_step_composite_factorization(self, a31):
        tree = resolve(ideal(a31, F_TEXT))
        root = tree.root
        mid = [c for c in root.children if c.label == "z'"][0]
        b1, b2 = root.blowup, mid.blowup
        composite = {
            k: substitute(v, b2.pullback, b2.cox) for k, v in b1.pullback.items()
        }
        assert {k: format_polynomial(v) for k, v in composite.items()} == {
            "x": "x''*u'*v^3",
            "y": "y'*v^2",
            "z": "z'*u'^2*v^2",
        }
        total = substitute(poly(a31, F_TEXT), composite, b2.cox)
        factor = poly(b2.cox, "u'^2 v^6")
        final = mid.children[0].ideal.generators[0]
        # the leaf ideal lives on the chart ambient; same coordinates
        final_on_cox = Polynomial(b2.cox, final.terms)
        assert total.terms == (factor * final_on_cox).terms

    def test_all_ordinary_one_step(self, a30):
        tree = resolve(ideal(a30, F_TEXT))
        assert tree.order() == 1
        root = tree.root
        assert str(root.invariant) == "(2, 3, 3)"
        assert root.multiplicities == {"u": 6}
        assert [c.label for c in root.children] == ["x'", "y'", "z'"]
        for c in root.children:
            assert c.status == "smooth"
            assert fmt_ideal(c.ideal) == ["y'^2*z' + z'^3 + x'^2"]


    def test_nodes_keep_the_weak_transform_of_their_step(self):
        # --trace formats each principal node's total transform from it
        blown_up = 0
        for mode, i in drop_corpus()[:10]:
            for node in walk(resolve(i, mode=mode).root):
                if node.blowup is None:
                    assert node.weak is None
                    continue
                weak, mult = weak_transform(node.blowup, node.ideal)
                assert (node.weak, node.multiplicities) == (weak, mult)
                blown_up += 1
        assert blown_up >= 10


class TestPrincipalization:
    def test_point_ideal(self):
        a20 = ambient(ordinary="x,y")
        tree = principalize(ideal(a20, "x, y"))
        assert tree.order() == 1
        assert str(tree.root.invariant) == "(1, 1)"
        for c in tree.root.children:
            assert c.status == "principal"
            assert c.scope == "chart"

    def test_divisor_step(self):
        # (x^2, xy) needs a second, purely divisorial blow-up on the y'
        # chart; that step spends no fresh Cox variable and an empty label
        a20 = ambient(ordinary="x,y")
        tree = principalize(ideal(a20, "x^2, x y"))
        assert tree.order() == 2
        by_label = {c.label: c for c in tree.root.children}
        assert by_label["x'"].status == "principal"
        deeper = by_label["y'"]
        assert str(deeper.invariant) == "(1)"
        assert deeper.multiplicities == {"x'": 1}
        (leaf,) = deeper.children
        assert leaf.label == ""
        assert leaf.path == "root/y'/"
        assert leaf.status == "principal"
        assert fmt_ideal(leaf.ideal) == ["x'", "y'"]

    def test_cusp_leaves_marked_scope(self):
        a20 = ambient(ordinary="x,y")
        tree = principalize(ideal(a20, "x^2 + y^3"))
        assert tree.order() == 1
        for c in tree.root.children:
            assert c.status == "principal"
            assert c.scope == "marked-points"
            assert str(c.invariant) == "(0)"


class TestDropLaw:
    def test_corpus_strictly_drops(self):
        corpus = drop_corpus()
        assert len(corpus) >= 20
        runs = 0
        for mode, i in corpus:
            tree = resolve(i, mode=mode)
            for node in walk(tree.root):
                if node.invariant is None:
                    continue
                for child in node.children:
                    if child.invariant is None:
                        continue
                    assert compare(child.invariant, node.invariant) < 0, (
                        f"{mode}: {child.path} failed to drop"
                    )
            runs += 1
        assert runs == len(corpus)

    def test_depth_limit(self):
        a20 = ambient(ordinary="x,y")
        with pytest.raises(DepthExceeded):
            resolve(ideal(a20, "x^2 + y^3"), limit=0)
        assert depth_limit() == 16


class TestReembedding:
    def test_reports_ok(self, a30):
        a20 = ambient(ordinary="x,y")
        for i in (ideal(a20, "x^2 + y^3"), ideal(a30, F_TEXT)):
            report = reembed_check(i)
            assert report["ok"]
            assert report["invariant_ok"]
            assert str(report["extended_invariant"]).startswith("(1, ")
            if report["applicable"]:
                assert report["blowup_ok"] and report["transforms_ok"]

    def test_extended_invariant_literal(self):
        a20 = ambient(ordinary="x,y")
        report = reembed_check(ideal(a20, "x^2 + y^3"))
        assert str(report["invariant"]) == "(2, 3)"
        assert str(report["extended_invariant"]) == "(1, 2, 3)"
        assert report["root"] == report["extended_root"] == 6


class TestOneStep:
    def test_quartet_passes(self, a33):
        f = poly(a33, F_TEXT)
        ok, witness = newton_nondegenerate(f)
        assert ok and witness is None
        report = one_step_check(f)
        assert report["nondegenerate"]
        assert report["resolved"]
        assert report["multiplicities"] == {"u1": 6, "u2": 2}
        assert format_polynomial(report["weak"]) == "z'^3*u2^4 + y'^2*z' + x'^2"
        assert report["charts"] == {"x'": True, "y'z'": True, "z'u2": True}
        assert all(report["faces"].values())

    def test_degenerate_square(self):
        a22 = ambient(monomial="x,y")
        ok, witness = newton_nondegenerate(poly(a22, "(x + y)^2"))
        assert not ok
        assert witness == "face spanned by x^2, y^2"
        report = one_step_check(poly(a22, "(x + y)^2"))
        assert not report["nondegenerate"]
        assert not report["resolved"]

    def test_preconditions(self):
        a22 = ambient(monomial="x,y")
        with pytest.raises(MwbError):
            one_step_check(poly(a22, "x y"))
        with pytest.raises(MwbError):
            one_step_check(poly(a22, "x + 1"))
        with pytest.raises(MwbError):
            one_step_check(poly(ambient(ordinary="x,y"), "x + y^2"))

    def test_certificates_saturate_nothing(self, a33, monkeypatch):
        # the support decides every face and chart of F_TEXT, so no lift
        # runs; a collinear face leaves questions open, and exactly those
        # reach chart_dimensions, one call per face polynomial and one for
        # the charts, with the verdicts the lift gives every question
        calls = {"saturate": 0, "saturates_to_unit": 0}
        lifts = []

        def count(name):
            original = getattr(groebner, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(groebner, name, counting)

        for name in calls:
            count(name)
        original = groebner.chart_dimensions

        def recording(ideal, sets):
            lifts.append((ideal.generators[0], [frozenset(s) for s in sets]))
            return original(ideal, sets)

        monkeypatch.setattr(groebner, "chart_dimensions", recording)
        report = one_step_check(poly(a33, F_TEXT))
        assert report["resolved"]
        assert calls == {"saturate": 0, "saturates_to_unit": 0} and lifts == []

        f = poly(a33, "x^2 + x y + y^2 + z^3")
        report = one_step_check(f)
        got = list(lifts)
        monkeypatch.undo()
        assert calls == {"saturate": 0, "saturates_to_unit": 0}

        def lift(g, names):
            return groebner.saturates_to_unit(d_leq(PolyIdeal(g.ambient, (g,)), 1), names)

        names = frozenset(a33.names())
        restrictions = []
        p = newton_polyhedron(list(f.terms), a33.n)
        for defining, _, _, _ in faces(p):
            on_face = [g for g, t in zip(p.generators, p.tags) if t & defining == defining]
            ftau = Polynomial(a33, {e: f.terms[e] for e in on_face})
            if ftau not in restrictions:
                restrictions.append(ftau)
        assert all(lift(ftau, names) for ftau in restrictions)
        assert report["nondegenerate"] and report["resolved"]
        fm, charts = report["weak"], report["blowup"].charts
        assert report["charts"] == {c.label: lift(fm, c.inverted) for c in charts}

        def undecided(g, inverted):
            # True from the support needs g's exponents independent too
            verdict = engine._support_verdict(g, inverted)
            return verdict is None or (verdict and not affinely_independent(g.terms))

        open_faces = [g for g in restrictions if undecided(g, names)]
        open_charts = [frozenset(c.inverted) for c in charts if undecided(fm, c.inverted)]
        # x^2, x y, y^2 are collinear, so that face and the whole support
        # are affinely dependent, and every chart keeps all four terms of fm
        assert [str(g) for g in open_faces] == ["z^3 + x^2 + x*y + y^2", "x^2 + x*y + y^2"]
        assert len(open_charts) == len(charts) == 3
        assert got == [(g, [names]) for g in open_faces] + [(fm, open_charts)]

    def test_random_nondegenerate_samples(self):
        for f in nondegenerate_samples(1203, 10):
            report = one_step_check(f)
            assert report["nondegenerate"]
            assert report["resolved"], format_polynomial(f)

    def test_one_newton_polyhedron_per_check(self, a33, monkeypatch):
        # the nondegeneracy certificate, the orbit check and the blow-up's
        # fan share f's polyhedron and one face lattice, read as masks; the
        # blow-up builds no polyhedron of its own, and no face record type
        # is left to build
        calls = {"newton_polyhedron": 0, "faces": 0}

        def count(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        count(engine, "newton_polyhedron")
        count(engine, "faces")
        count(monomials, "newton_polyhedron")
        assert not hasattr(polyhedra, "Face")
        report = one_step_check(poly(a33, F_TEXT))
        assert report["resolved"] and len(report["faces"]) == 7
        assert calls == {"newton_polyhedron": 1, "faces": 1}
        assert "total" not in report
        # dependent exponents: the witness search shares the lattice too
        f = poly(a33, "x^2 + x y + y^2 + z^3")
        assert not affinely_independent(f.terms)
        report = one_step_check(f)
        assert report["resolved"] and report["witness"] is None
        assert calls == {"newton_polyhedron": 2, "faces": 2}
        report = one_step_check(poly(a33, "x^2 + 2 x y + y^2 + z^3"))
        assert report["witness"] == "face spanned by x^2, y^2"
        assert calls == {"newton_polyhedron": 3, "faces": 3}

    def test_independent_exponents_build_no_faces(self, a33, monkeypatch):
        # affinely independent exponents pass every face at once, so
        # newton_nondegenerate builds neither the polyhedron nor its face
        # lattice; dependent ones build each once
        calls = {"newton_polyhedron": 0, "faces": 0}

        def count(name):
            original = getattr(engine, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(engine, name, counting)

        count("newton_polyhedron")
        count("faces")
        assert newton_nondegenerate(poly(a33, "x^2 + y^3 + z^5")) == (True, None)
        assert calls == {"newton_polyhedron": 0, "faces": 0}
        assert newton_nondegenerate(poly(a33, "x^2 + x y + y^2 + z^3")) == (True, None)
        assert calls == {"newton_polyhedron": 1, "faces": 1}

    def test_the_mask_view_matches_the_record_view(self):
        # one_step_check reads the face lattice as bitmasks; the two loops
        # below read the subset oracle's faces, with the generators on each
        # by dot products, and are the reference: the same verdict and
        # witness, and the same faces
        # dict, keys and order included.  The samples are the seeded
        # trinomials, 300 random polynomials of up to five terms, many with
        # dependent exponents, and 40 with a square on a segment, some of
        # them degenerate
        rng = random.Random(2401)
        samples = [f for seed in (7, 4101, 5150, 31337) for f in nondegenerate_samples(seed, 18)]
        drawn = 0
        while drawn < 340:
            n = rng.randint(2, 3)
            amb = ambient(monomial=",".join("xyz"[:n]))
            if drawn < 300:
                f = random_polynomial(rng, amb, 5, 4)
            else:  # a square on a segment: degenerate when that is a face
                g = random_polynomial(rng, amb, 2, 2)
                f = g * g + random_polynomial(rng, amb, 2, 4)
            if (0,) * n in f.terms or any(all(e[i] for e in f.terms) for i in range(n)):
                continue
            samples.append(f)
            drawn += 1
        orbits = dependent = degenerate = 0
        for f in samples:
            report = one_step_check(f)
            p = newton_polyhedron(list(f.terms), f.ambient.n)
            face_list = record_faces(p)
            want = record_nondegenerate(f, face_list)
            assert (report["nondegenerate"], report["witness"]) == want, format_polynomial(f)
            assert newton_nondegenerate(f) == want
            degenerate += not want[0]
            if not want[0]:
                continue
            got = list(report["faces"].items())
            assert got == list(record_orbit(f, p, face_list, report).items()), format_polynomial(f)
            orbits += 1
            dependent += not affinely_independent(f.terms)
        counts = orbits, dependent, degenerate
        assert orbits >= 400 and dependent >= 170 and degenerate >= 8, counts

    def test_no_point_set_is_ranked_twice(self, a33, monkeypatch):
        # one check asks the support of the same weak transform about every
        # chart, and f's own support about the whole torus when its face
        # list starts with P; each point set is ranked once
        original = engine.affinely_independent
        ranked = []

        def recording(points):
            ranked.append(frozenset(points))
            return original(points)

        monkeypatch.setattr(engine, "affinely_independent", recording)
        samples = nondegenerate_samples(7, 12) + [
            poly(a33, "x^2 + x y + y^2 + z^3"),
            poly(a33, "x^3 + x y + y^3 + z^2 + x z"),
        ]
        total = 0
        for f in samples:
            ranked.clear()
            assert one_step_check(f)["resolved"]
            assert len(ranked) == len(set(ranked)), format_polynomial(f)
            total += len(ranked)
        assert total > 2 * len(samples)

    def test_one_rank_per_check(self, monkeypatch):
        # the weak transform's exponents are f's under an injective affine
        # map, so f's rank answers the charts too: a check of f with
        # independent exponents ranks exactly one point set, f's own
        original = engine.affinely_independent
        ranked = []

        def recording(points):
            ranked.append(frozenset(points))
            return original(points)

        monkeypatch.setattr(engine, "affinely_independent", recording)
        samples = nondegenerate_samples(4101, 18)
        for f in samples:
            ranked.clear()
            assert one_step_check(f)["resolved"], format_polynomial(f)
            assert ranked == [frozenset(f.terms)], format_polynomial(f)

    def test_every_face_check_counts(self, a33, monkeypatch):
        # faces that share their vertices share a label; a failing face
        # must fail the check even when a later face with its label passes
        f = poly(a33, F_TEXT)
        p = newton_polyhedron(list(f.terms), a33.n)
        labels = [on for _, on, _, _ in faces(p)]
        bad = next(i for i, v in enumerate(labels) if v in labels[i + 1 :])
        original = engine._orbit_restriction
        seen = []

        def failing(tagged, defining):
            seen.append(defining)
            out = original(tagged, defining)
            if len(seen) == bad + 1:
                out = {e: c + 1 for e, c in out.items()}
            return out

        monkeypatch.setattr(engine, "_orbit_restriction", failing)
        report = one_step_check(f)
        assert len(seen) == len(labels)
        assert report["charts"] and all(report["charts"].values())
        assert report["resolved"] is False
        assert list(report["faces"].values()).count(False) == 1

    def test_polyhedron_of_the_terms_is_that_of_the_term_ideal(self):
        # the orbit check reads faces of the term ideal off f's polyhedron
        for f in nondegenerate_samples(1204, 40):
            term_ideal = monomial_saturation(PolyIdeal(f.ambient, (f,)))
            assert newton_polyhedron(list(f.terms), f.ambient.n) == newton(term_ideal)

    def test_orbit_restriction_is_the_substitution(self):
        # reading the orbit restriction off the exponents agrees with the
        # ring map it stands for, term order included, on every face (the
        # map picks the rays by facet normal, the package by facet index); for
        # the weak transform and for a random polynomial on the Cox ring,
        # whose terms merge and cancel once variables go to 1
        rng = random.Random(1205)
        for f in nondegenerate_samples(1204, 40):
            amb = f.ambient
            ideal_f = PolyIdeal(amb, (f,))
            b = build_blowup(monomial_saturation(ideal_f), amb)
            fm = weak_transform(b, ideal_f)[0].generators[0]
            p = newton_polyhedron(list(f.terms), amb.n)
            for mask, _, _, _ in faces(p):
                defining = {p.facets[k].normal for k in _bits(mask)}
                images = {}
                for ray, v in zip(b.fan.rays, b.ray_vars):
                    if ray.direction in defining:
                        images[v] = constant(b.cox, 0)
                    elif ray.standard:
                        images[v] = variable(b.cox, v)
                    else:
                        images[v] = constant(b.cox, 1)
                for g in (fm, random_polynomial(rng, b.cox, max_terms=8, max_entry=1)):
                    got = engine._orbit_restriction(engine._orbit_terms(g, b), mask)
                    want = substitute(g, images, b.cox)
                    assert list(got.items()) == list(want.terms.items())


class TestSupportCriterion:
    def test_verdicts_agree_with_the_lift(self):
        # on all-log and mixed ambients with random inverted subsets, a
        # verdict the support gives is the Groebner lift's, and the batched
        # path answers every chart as the lift does
        rng = random.Random(1901)
        ambients = [
            ambient(monomial="x,y"),
            ambient(monomial="x,y,z"),
            ambient(ordinary="x", monomial="y,z"),
            ambient(ordinary="x,y", monomial="z"),
        ]
        seen = {True: 0, False: 0, None: 0}
        for _ in range(300):
            amb = rng.choice(ambients)
            g = random_polynomial(rng, amb, max_terms=4, max_entry=2)
            principal = PolyIdeal(amb, (g,))
            stage = d_leq(principal, 1)
            sets = [
                [n for n in amb.names() if rng.random() < 0.5] for _ in range(3)
            ]
            lifted = [groebner.saturates_to_unit(stage, names) for names in sets]
            for names, want in zip(sets, lifted):
                verdict = engine._support_verdict(g, names)
                seen[verdict] += 1
                if verdict is not None:
                    assert verdict == want, (format_polynomial(g), names)
            assert engine._smooth_on_charts(principal, sets) == lifted
        assert min(seen.values()) >= 100, seen

    def test_affine_independence_matches_the_rank_oracle(self):
        rng = random.Random(1902)
        for _ in range(400):
            n = rng.randint(1, 4)
            points = [
                tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(0, n + 2))
            ]
            rows = [(1, *a) for a in points]
            want = not rows or oracles.rank(rows) == len(rows)
            assert affinely_independent(points) == want, points


def test_principal_resolutions_eliminate_nothing(monkeypatch):
    # a principal ideal is saturated by division; only the pair still
    # builds an elimination basis in its proper transforms.  Every basis,
    # reduced or grown, is built by extend
    blocks = []
    original = groebner.extend

    def recording(basis, gens, block=0):
        blocks.append(block)
        return original(basis, gens, block)

    monkeypatch.setattr(groebner, "extend", recording)
    principal = [(kind, i) for kind, i in drop_corpus() if len(i.generators) == 1]
    assert len(principal) == 22
    for kind, i in principal:
        resolve(i, mode=kind)
    assert blocks and set(blocks) == {0}
    blocks.clear()
    resolve(ideal(ambient(ordinary="x,y,z"), "x^2 + y^2, z - y^2"))
    assert 1 in blocks


def test_a_singular_chart_origin_builds_no_basis(monkeypatch):
    # where (g, Dg) vanishes at a chart's origin, that point shows the
    # chart is not smooth, so the question never reaches chart_dimensions
    lifted = []
    original = groebner.chart_dimensions

    def recording(ideal, name_sets):
        lifted.extend((ideal, frozenset(names)) for names in name_sets)
        return original(ideal, name_sets)

    monkeypatch.setattr(groebner, "chart_dimensions", recording)
    tree = resolve(ideal(ambient(ordinary="x,y"), "x^2 + y^3"))
    singular = []
    for node in tree.nodes():
        assert not node.changes  # so node.ideal is the ideal that was asked about
        stage = d_leq(node.ideal, 1)
        if all(g.evaluate(chart_origin(node.ambient)) == 0 for g in stage.generators):
            singular.append((stage, frozenset(node.ambient.inverted)))
    assert all(leaf.status == "smooth" for leaf in tree.leaves())
    assert singular and lifted
    assert not set(singular) & set(lifted)


class TestSmallHelpers:
    def test_chart_origin(self):
        assert chart_origin(ambient(ordinary="x,y")) == (0, 0)
        a = ambient(ordinary="x,y", monomial="z", inverted=("z",))
        assert chart_origin(a) == (0, 0, 1)

    def test_blowup_equal(self):
        a20 = ambient(ordinary="x,y")
        b1 = resolve(ideal(a20, "x^2 + y^3")).root.blowup
        b2 = resolve(ideal(a20, "x^2 + y^3")).root.blowup
        b3 = resolve(ideal(a20, "x^2 + y^5")).root.blowup
        assert blowup_equal(b1, b2)
        assert not blowup_equal(b1, b3)

    def test_tied_marked_points_keep_the_earlier(self, a30):
        # the origin is off the locus; both marks have invariant (2, 3)
        i = ideal(a30, "x^2 + (y - 1)^3")
        for marks in (((0, 1, 1), (0, 1, 0)), ((0, 1, 0), (0, 1, 1))):
            root = resolve(i, marks=marks).root
            assert str(root.invariant) == "(2, 3)"
            assert root.worst_point == marks[0]

    def test_marked_points_follow_the_blowup(self, a30):
        tree = resolve(ideal(a30, F_TEXT))
        for c in tree.root.children:
            (p,) = c.marked
            inv_idx = [c.ambient.index(v) for v in c.ambient.inverted]
            assert all(p[i] == 1 for i in inv_idx)
            assert all(
                p[i] == 0 for i in range(c.ambient.n) if i not in inv_idx
            )

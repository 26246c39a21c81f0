"""Resolution driver: worked trees, the drop law, and the one-step checks."""

import random
from fractions import Fraction

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
from mwb import engine, groebner
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
from mwb.invariant import compare, invariant_at
from mwb.monomials import newton
from mwb.poly import (
    PolyIdeal,
    Polynomial,
    constant,
    format_polynomial,
    monomial_saturation,
    substitute,
    variable,
)
from mwb.polyhedra import dot, faces, newton_polyhedron


def fmt_ideal(i):
    return sorted(format_polynomial(g) for g in i.generators)


def walk(node):
    yield node
    for c in node.children:
        yield from walk(c)


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
        calls = {"saturate": 0, "saturates_to_unit": 0}

        def count(name):
            original = getattr(groebner, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(f"mwb.groebner.{name}", counting)

        for name in calls:
            count(name)
        f = poly(a33, F_TEXT)
        report = one_step_check(f)
        assert report["resolved"]
        p = newton_polyhedron(list(f.terms), a33.n)
        # one certificate per distinct face restriction, not per face
        restrictions = {
            frozenset(
                e
                for e in f.terms
                if all(
                    dot(p.facets[k].normal, e) == p.facets[k].level for k in face.defining
                )
            )
            for face in faces(p)
        }
        assert len(restrictions) < len(faces(p))
        assert calls == {
            "saturate": 0,
            "saturates_to_unit": len(restrictions) + len(report["blowup"].charts),
        }

    def test_random_nondegenerate_samples(self):
        for f in nondegenerate_samples(1203, 10):
            report = one_step_check(f)
            assert report["nondegenerate"]
            assert report["resolved"], format_polynomial(f)

    def test_one_newton_polyhedron_per_check(self, a33, monkeypatch):
        # the nondegeneracy certificate and the orbit check share f's
        # polyhedron and face list; the blow-up builds its own from the
        # term ideal, and the multiplicities one more
        calls = {"newton_polyhedron": 0, "faces": 0}

        def count(name):
            original = getattr(engine, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(engine, name, counting)

        for name in calls:
            count(name)
        report = one_step_check(poly(a33, F_TEXT))
        assert report["resolved"] and len(report["faces"]) == 7
        assert calls == {"newton_polyhedron": 1, "faces": 1}
        assert "total" not in report

    def test_polyhedron_of_the_terms_is_that_of_the_term_ideal(self):
        # the orbit check reads faces of the term ideal off f's polyhedron
        for f in nondegenerate_samples(1204, 40):
            term_ideal = monomial_saturation(PolyIdeal(f.ambient, (f,)))
            assert newton_polyhedron(list(f.terms), f.ambient.n) == newton(term_ideal)

    def test_orbit_restriction_is_the_substitution(self):
        # reading the orbit restriction off the exponents agrees with the
        # ring map it stands for, term order included, on every face; for
        # the weak transform and for a random polynomial on the Cox ring,
        # whose terms merge and cancel once variables go to 1
        rng = random.Random(1205)
        for f in nondegenerate_samples(1204, 40):
            amb = f.ambient
            ideal_f = PolyIdeal(amb, (f,))
            b = build_blowup(monomial_saturation(ideal_f), amb)
            fm = weak_transform(b, ideal_f)[0].generators[0]
            p = newton_polyhedron(list(f.terms), amb.n)
            for face in faces(p):
                defining = {p.facets[k].normal for k in face.defining}
                images = {}
                for ray, v in zip(b.fan.rays, b.ray_vars):
                    if ray.direction in defining:
                        images[v] = constant(b.cox, 0)
                    elif ray.standard:
                        images[v] = variable(b.cox, v)
                    else:
                        images[v] = constant(b.cox, 1)
                for g in (fm, random_polynomial(rng, b.cox, max_terms=8, max_entry=1)):
                    got = engine._orbit_restriction(g, b, defining)
                    want = substitute(g, images, b.cox)
                    assert got.ambient == want.ambient
                    assert list(got.terms.items()) == list(want.terms.items())


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

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import ambient, ideal, poly
from mwb import LogAmbient, Polynomial, PolyIdeal, groebner, monomial_ideal
from mwb.blowup import build_blowup
from mwb.errors import AmbientMismatch, IncompleteSubstitution
from mwb.poly import (
    constant,
    derivative,
    format_polynomial,
    log_derivation,
    monomial,
    monomial_saturation,
    rename,
    restrict,
    strip_inverted_units,
    substitute,
    variable,
)
from oracles import naive_substitute


@st.composite
def polys(draw, amb, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        e = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in range(amb.n)
        )
        c = draw(st.integers(min_value=-4, max_value=4))
        if c:
            terms[e] = terms.get(e, 0) + c
    return Polynomial(amb, {e: c for e, c in terms.items() if c})


A2 = ambient(ordinary="x", monomial="y")
A3 = ambient(ordinary="x,y,z")


def test_describe_strings():
    assert ambient(monomial="x,y,z").describe() == "A^{3;3}(x monomial, y monomial, z monomial)"
    assert (
        ambient(ordinary="x", monomial="y,z").describe()
        == "A^{3;2}(x ordinary, y monomial, z monomial)"
    )
    amb = ambient(ordinary="x", monomial="z", inverted=("z",))
    assert amb.describe() == "A^{2;1}(x ordinary, z monomial*)"


def test_with_inverted_unions():
    amb = ambient(ordinary="x,y", inverted=("x",))
    more = amb.with_inverted(("y",))
    assert more.inverted == frozenset({"x", "y"})


def test_arithmetic_expansion():
    f = poly(A3, "(x + y)^2")
    assert f.terms == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
    g = poly(A3, "(x + y) (x - y)")
    assert g.terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    h = poly(A3, "1/2 x - 1/2 x")
    assert h.is_zero()


@given(polys(A3), polys(A3), polys(A3))
def test_ring_axioms(f, g, h):
    assert (f + g).terms == (g + f).terms
    assert ((f + g) + h).terms == (f + (g + h)).terms
    assert (f * (g + h)).terms == (f * g + f * h).terms
    assert ((f * g) * h).terms == (f * (g * h)).terms
    assert (f - f).is_zero()


@given(polys(A2), polys(A2))
def test_log_derivation_is_a_derivation(f, g):
    for name in ("x", "y"):
        left = log_derivation(f * g, name)
        right = log_derivation(f, name) * g + f * log_derivation(g, name)
        assert left.terms == right.terms


def test_log_derivation_styles():
    # ordinary coordinates differentiate, monomial ones scale
    f = poly(A2, "x^3 y^2")
    assert log_derivation(f, "x").terms == {(2, 2): 3}
    assert log_derivation(f, "y").terms == {(3, 2): 2}
    assert derivative(f, "y").terms == {(3, 1): 2}


def test_evaluate():
    f = poly(A3, "x^2 + y z - 3")
    assert f.evaluate((1, 2, 3)) == 4
    assert f.evaluate((Fraction(1, 2), 0, 0)) == Fraction(-11, 4)


def test_restrict_drops_the_variable():
    f = poly(A3, "x^2 + x z + y")
    r = restrict(f, "x")
    assert r.ambient.n == 2
    assert [v for v, _ in r.ambient.variables] == ["y", "z"]
    assert r.terms == {(1, 0): 1}
    s = restrict(f, "x", value=poly(ambient(ordinary="y,z"), "y + z"))
    # substituting x = y + z: (y+z)^2 + (y+z) z + y
    assert s.terms == poly(ambient(ordinary="y,z"), "(y+z)^2 + (y+z) z + y").terms


def test_substitute_and_rename():
    target = ambient(ordinary="u,v")
    f = poly(A3, "x y + z^2")
    images = {
        "x": poly(target, "u"),
        "y": poly(target, "v"),
        "z": poly(target, "u + v"),
    }
    g = substitute(f, images, target)
    assert g.terms == poly(target, "u v + (u + v)^2").terms
    h = rename(poly(A3, "x^2 + y"), {"x": "u", "y": "v", "z": "w"}, ambient(ordinary="u,v,w"))
    assert format_polynomial(h) == "u^2 + v"


def test_substitute_requires_all_names():
    target = ambient(ordinary="u")
    with pytest.raises(IncompleteSubstitution):
        substitute(poly(A3, "x + y"), {"x": poly(target, "u")}, target)


def test_ambient_mismatch_is_rejected():
    f = poly(A3, "x")
    g = poly(ambient(ordinary="x,y"), "x")
    with pytest.raises(AmbientMismatch):
        f + g


def test_strip_inverted_units():
    amb = ambient(ordinary="x,y", inverted=("y",))
    f = poly(amb, "y^2 x + y^3")
    s, e = strip_inverted_units(f)
    assert e == (0, 2)
    assert s.terms == {(1, 0): 1, (0, 1): 1}
    g = poly(amb, "y^2")
    s, e = strip_inverted_units(g)
    assert e == (0, 2) and s.terms == {(0, 0): 1}


def test_monomial_saturation():
    amb = ambient(monomial="x,y,z")
    assert set(monomial_saturation(ideal(amb, "x^2 + y^2 + z^2")).gens) == {
        (2, 0, 0),
        (0, 2, 0),
        (0, 0, 2),
    }
    assert set(monomial_saturation(ideal(amb, "x^2 + y^2 z + z^3")).gens) == {
        (2, 0, 0),
        (0, 2, 1),
        (0, 0, 3),
    }


def test_format_ordering_is_stable():
    f = poly(A3, "z^3 + x^2 + y^2 z")
    assert format_polynomial(f) == "y^2*z + z^3 + x^2"
    assert str(ideal(A3, "0")) == "(0)"
    assert format_polynomial(constant(A3, Fraction(3, 2))) == "3/2"
    assert format_polynomial(constant(A3, 0)) == "0"
    assert format_polynomial(variable(A3, "y") ** 2 - monomial(A3, (1, 0, 0), 2)) == "y^2 - 2*x"


def test_ideal_container():
    i = ideal(A3, "x^2 + y, z")
    assert len(i.generators) == 2
    assert str(i) == "(x^2 + y, z)"


def random_poly(rng, amb, size, max_exp=3):
    terms = {}
    for _ in range(size):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(amb.n))
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        terms[e] = terms.get(e, 0) + c
    return Polynomial(amb, terms)


def numbered(prefix, n, flag="ordinary"):
    return LogAmbient([(f"{prefix}{i}", flag) for i in range(n)])


def random_images(rng, kind, source):
    """(images, target) of one kind the package substitutes."""
    if kind == "pullback":
        gens = [tuple(rng.randrange(0, 4) for _ in range(source.n)) for _ in range(3)]
        gens = [g for g in gens if any(g)] or [(1,) * source.n]
        b = build_blowup(monomial_ideal(gens, source.n), source)
        return b.pullback, b.cox
    if kind == "shift":
        # x -> x + s on one variable, as a tier-2 coordinate change
        images = {n: variable(source, n) for n in source.names()}
        name = rng.choice(source.names())
        images[name] = images[name] + random_poly(rng, source, rng.randrange(1, 4), 2)
        return images, source
    # monomials with coefficients, the constants 0 and 1, the zero polynomial
    target = numbered("u", rng.randrange(1, 5), "monomial")
    images = {}
    for n in source.names():
        pick = rng.choice(("monomial", "0", "1", "zero"))
        if pick == "monomial":
            e = tuple(rng.randrange(0, 4) for _ in range(target.n))
            images[n] = monomial(target, e, rng.choice((1, 2, Fraction(-1, 3))))
        elif pick == "zero":
            images[n] = Polynomial(target, {})
        else:
            images[n] = constant(target, int(pick))
    return images, target


def test_substitute_matches_polynomial_arithmetic():
    # the term-dict substitution agrees with powers and products of
    # Polynomials on every kind of image the package substitutes, term
    # order included
    rng = random.Random(7101)
    for i in range(300):
        kind = ("pullback", "shift", "mixed")[i % 3]
        source = numbered("x", rng.randrange(1, 4), "monomial")
        images, target = random_images(rng, kind, source)
        p = random_poly(rng, source, rng.randrange(0, 6))
        got = substitute(p, images, target)
        want = naive_substitute(p, images, target)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())


def test_substitute_rejects_images_off_the_target():
    source = numbered("x", 2)
    target = numbered("u", 2)
    images = {"x0": variable(target, "u0"), "x1": variable(numbered("v", 2), "v1")}
    with pytest.raises(AmbientMismatch):
        substitute(poly(source, "x0^2 + x0 x1"), images, target)
    # also where the variable with the stray image does not occur
    with pytest.raises(AmbientMismatch):
        substitute(poly(source, "x0"), images, target)


def assert_validated(p):
    """p is what the public constructor makes of its own terms."""
    n = p.ambient.n
    assert Polynomial(p.ambient, p.terms).terms == p.terms
    for e, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == n
        assert all(type(x) is int and x >= 0 for x in e)


def test_trusted_results_pass_the_public_constructor(monkeypatch):
    # results built without validation hold what validation would enforce;
    # groebner_basis builds every S-polynomial it reduces in _s_polynomial,
    # which records them
    reduced = []
    original_s_polynomial = groebner._s_polynomial

    def recording_s_polynomial(a, b, lcm):
        s = original_s_polynomial(a, b, lcm)
        reduced.append(s)
        return s

    monkeypatch.setattr(groebner, "_s_polynomial", recording_s_polynomial)
    rng = random.Random(7102)
    relabel = random.Random(7103)  # draws for renaming and unit stripping
    spolys = 0
    for _ in range(120):
        amb = numbered("x", rng.randrange(1, 4), rng.choice(("ordinary", "monomial")))
        f, g = (random_poly(rng, amb, rng.randrange(0, 5)) for _ in range(2))
        scalar = rng.choice((0, 2, Fraction(-1, 2)))
        results = [f + g, f - g, -f, f * g, f * scalar, f ** rng.randrange(0, 4)]
        for name in amb.names():
            results += [derivative(f, name), log_derivation(f, name)]
        names = list(amb.names())
        relabel.shuffle(names)
        target = numbered("v", amb.n)
        results.append(rename(f, dict(zip(names, target.names())), target))
        inverted = relabel.sample(names, relabel.randrange(0, amb.n + 1))
        inv = amb.with_inverted(inverted)
        unit = monomial(inv, [relabel.randrange(0, 3) for _ in range(amb.n)])
        results.append(strip_inverted_units(Polynomial(inv, f.terms) * unit)[0])
        if not f.is_zero():
            block = rng.randrange(0, amb.n + 1)
            results.append(groebner.monic(f, block))
            basis = [groebner.monic(h, block) for h in (g, f) if not h.is_zero()]
            results.append(groebner.normal_form(f * g + g, basis, block))
            results += groebner._rabinowitsch(PolyIdeal(amb, (f, g)), f)[1].generators
            reduced.clear()
            groebner.groebner_basis(PolyIdeal(amb, (f, g, f * g + f)), block)
            results += [Polynomial._trusted(amb, s) for s in reduced]
            spolys += len(reduced)
        target = numbered("u", rng.randrange(1, 4))
        images = {n: random_poly(rng, target, rng.randrange(0, 3)) for n in amb.names()}
        results.append(substitute(f, images, target))
        for r in results:
            assert_validated(r)
    assert spolys > 100

import random
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import ambient, drop_corpus, ideal, poly, random_polynomial
from mwb import LogAmbient, Polynomial, PolyIdeal, cli, engine, groebner, monomial_ideal
from mwb.blowup import build_blowup, total_transform, weak_transform
from mwb.errors import AmbientMismatch, IncompleteSubstitution, MwbError
from mwb.poly import (
    EVALUATE_BITS,
    coefficient_bits,
    constant,
    derivative,
    format_polynomial,
    log_derivation,
    monomial_saturation,
    rename,
    restrict,
    strip_inverted_units,
    substitute,
    substitute_one,
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


GOLDEN = Path(__file__).parent / "golden"
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


def random_ambients(seed, count):
    """count ambients on 1 to 5 names drawn from seven, random flags and
    random inverted names."""
    rng = random.Random(seed)
    for _ in range(count):
        names = rng.sample(["x", "y", "z", "w", "u", "x'", "t1"], rng.randrange(1, 6))
        variables = [(n, rng.choice(("ordinary", "monomial", "exceptional"))) for n in names]
        yield LogAmbient(variables, rng.sample(names, rng.randrange(0, len(names) + 1))), rng


def same_ambient(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.variables == want.variables and got.inverted == want.inverted
    assert got.describe() == want.describe()
    assert [got.index(n) for n in want.names()] == list(range(want.n))


def test_drop_matches_the_validating_constructor():
    # drop builds its ambient without the constructor's checks, once per
    # name; it must be the ambient the constructor builds, inverted names
    # included
    fixed = ambient(ordinary="x,y", monomial="z,w", inverted=("y", "w"))
    for amb, _ in [(fixed, None), *random_ambients(3607, 200)]:
        for name in amb.names():
            i = amb.index(name)
            built = LogAmbient(amb.variables[:i] + amb.variables[i + 1 :], amb.inverted - {name})
            dropped = amb.drop(name)
            assert amb.drop(name) is dropped
            same_ambient(dropped, built)
            with pytest.raises(MwbError):
                dropped.index(name)


def test_with_inverted_unions():
    amb = ambient(ordinary="x,y", inverted=("x",))
    more = amb.with_inverted(("y",))
    assert more.inverted == frozenset({"x", "y"})
    # it checks only the names it adds, and must still build the ambient
    # the constructor builds, and refuse an unknown name with its message
    for amb, rng in random_ambients(3613, 200):
        names = list(amb.names())
        more = rng.sample(names, rng.randrange(0, len(names) + 1))
        same_ambient(amb.with_inverted(more), LogAmbient(amb.variables, amb.inverted | set(more)))
        with pytest.raises(MwbError) as built:
            LogAmbient(amb.variables, amb.inverted | set(more) | {"q"})
        with pytest.raises(MwbError) as derived:
            amb.with_inverted(more + ["q"])
        assert str(derived.value) == str(built.value)


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


def test_evaluate_bounds_the_powers_it_builds():
    # 2 and 1/2 take two bits, so x^k stops one step past EVALUATE_BITS / 2
    k = EVALUATE_BITS // 2
    assert Polynomial(A3, {(k, 0, 0): 1}).evaluate((2, 0, 0)) == 2**k
    for x in (2, Fraction(1, 2), -3):
        with pytest.raises(MwbError, match="exceeds"):
            Polynomial(A3, {(k + 1, 0, 0): 1}).evaluate((x, 0, 0))
    huge = Polynomial(A3, {(10**20, 10**20, 10**20): 5})
    assert huge.evaluate((1, -1, 1)) == 5
    assert huge.evaluate((0, 1, -1)) == 0
    # a coordinate too long to print in decimal still gets a message
    with pytest.raises(MwbError, match="exceeds") as err:
        Polynomial(A3, {(100, 0, 0): 1}).evaluate((10**5000, 0, 0))
    assert "16610-bit" in str(err.value)


def test_products_and_powers_stay_within_the_term_budget(monkeypatch):
    # each multiplication is checked before it expands: len(a) * len(b)
    # term products at most, and a power checks every squaring step
    monkeypatch.setattr("mwb.poly.TERM_BUDGET", 9)
    a, b = poly(A3, "x + y + z"), poly(A3, "x - y")
    assert format_polynomial(a * a) == format_polynomial(a**2)
    assert len((a * b).terms) == 4
    with pytest.raises(MwbError, match="forms 12 term products"):
        a * poly(A3, "x + y + z + 1")
    # (x - y)^4 squares 2 terms, then 3; ^6 then multiplies 3 terms by 5
    assert len((b**4).terms) == 5
    with pytest.raises(MwbError, match="3 terms by 5 terms"):
        b**6
    assert (a * 7).terms == {e: 7 for e in a.terms}


def test_products_and_powers_stay_within_the_coefficient_budget(monkeypatch):
    # over the common denominator D of each factor, a product's numerators
    # sum at most min(len) products of numerators and its denominator divides
    # D_a * D_b: both bounds are checked before the multiplication expands
    monkeypatch.setattr("mwb.poly.COEFF_BITS", 16)
    assert coefficient_bits(poly(A3, "1/2 x + 3/4 y").terms) == (2, 3)
    assert coefficient_bits(poly(A3, "200 x - 3").terms) == (8, 1)
    assert coefficient_bits({}) == (0, 0)
    assert format_polynomial(poly(A3, "x + 3") * poly(A3, "x - 3")) == "x^2 - 9"
    with pytest.raises(MwbError, match="8 and 8 bits may form 17-bit"):
        constant(A3, 255) * constant(A3, 255)
    with pytest.raises(MwbError, match="form 18-bit"):
        poly(A3, "1/256 x") * poly(A3, "1/256 y")
    # (2 x)^8 squares up to 16 x^4 and 256 x^8; ^16 would square 256 x^8
    assert format_polynomial(poly(A3, "2 x") ** 8) == "256*x^8"
    with pytest.raises(MwbError, match="9 and 9 bits may form 19-bit"):
        poly(A3, "2 x") ** 16
    assert (poly(A3, "200 x") * Fraction(1, 300)).terms == {(1, 0, 0): Fraction(2, 3)}


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


def test_substitute_one_is_substitute_with_identity_images():
    # term for term and in the same order, with the variable dropped (a
    # restriction to a value) and kept (a coordinate change x -> x + s)
    rng = random.Random(3707)
    amb = ambient(ordinary="x,y", monomial="z")
    for _ in range(60):
        p = random_polynomial(rng, amb, max_terms=5, max_entry=4)
        name = rng.choice(amb.names())
        for drop in (True, False):
            target = amb.drop(name) if drop else amb
            image = random_polynomial(rng, target, max_terms=3, max_entry=2)
            if rng.random() < 0.3:
                image = image * Fraction(rng.randint(1, 5), rng.randint(2, 7))
            images = {n: variable(target, n) for n in target.names()}
            images[name] = image
            got = substitute_one(p, name, image, drop=drop)
            want = substitute(p, images, target)
            assert got.ambient == target
            assert list(got.terms.items()) == list(want.terms.items())
    with pytest.raises(AmbientMismatch):
        substitute_one(poly(A3, "x + y"), "x", poly(A3, "y"), drop=True)


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
    assert format_polynomial(variable(A3, "y") ** 2 - Polynomial(A3, {(1, 0, 0): 2})) == "y^2 - 2*x"


def test_ideal_container():
    i = ideal(A3, "x^2 + y, z")
    assert len(i.generators) == 2
    assert str(i) == "(x^2 + y, z)"


def test_value_types_compare_hash_and_freeze():
    amb = ambient(ordinary="x", monomial="y", inverted=("y",))
    same = LogAmbient((("x", "ordinary"), ("y", "monomial")), ("y",))
    f = Polynomial(amb, {(2, 0): 3, (0, 1): Fraction(-1, 2)})
    g = Polynomial._trusted(same, dict(f.terms))
    samples = [
        (amb, same, "LogAmbient(A^{2;1}(x ordinary, y monomial*))"),
        (f, g, "Polynomial(3*x^2 - 1/2*y)"),
        (PolyIdeal(amb, [f]), PolyIdeal(same, [g]), "PolyIdeal(3*x^2 - 1/2*y)"),
    ]
    for a, b, text in samples:
        assert a == b and hash(a) == hash(b)
        assert repr(a) == text
        with pytest.raises(AttributeError):
            setattr(a, type(a).__record_fields__[0].name, None)
    assert amb != amb.with_inverted(("x",))
    assert amb != LogAmbient(amb.variables)
    assert f != Polynomial(amb, {(2, 0): 3})


def test_constructor_checks_exponents_before_dropping_zeros():
    with pytest.raises(MwbError, match="negative entry"):
        Polynomial(A2, {(-1, 0): 0})
    with pytest.raises(MwbError, match="entries"):
        Polynomial(A2, {(1,): 0})


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
            images[n] = Polynomial(target, {e: rng.choice((1, 2, Fraction(-1, 3)))})
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


def random_flagged_ambient(rng, n):
    """n variables with random flags, some of them inverted."""
    flags = ("ordinary", "monomial", "exceptional")
    variables = [(f"x{i}", rng.choice(flags)) for i in range(n)]
    inverted = [v for v, _ in variables if rng.random() < 0.3]
    return LogAmbient(variables, inverted)


def test_restriction_by_exponents_matches_substitution():
    # restrict with no value or the zero value against substitute with a
    # zero image, term order included, on ordinary, log and inverted
    # variables
    rng = random.Random(7104)
    kinds = set()
    for _ in range(200):
        amb = random_flagged_ambient(rng, rng.randrange(1, 5))
        p = random_poly(rng, amb, rng.randrange(0, 7))
        name = rng.choice(amb.names())
        sub = amb.drop(name)
        images = {n: variable(sub, n) for n in amb.names() if n != name}
        images[name] = Polynomial(sub, {})
        want = substitute(p, images, sub)
        for got in (restrict(p, name), restrict(p, name, Polynomial(sub, {}))):
            assert got.ambient == sub
            assert list(got.terms.items()) == list(want.terms.items())
        kind = "inverted" if name in amb.inverted else amb.flag(name)
        kinds.add((kind, want.is_zero()))
    flags = ("ordinary", "monomial", "exceptional", "inverted")
    assert {(k, z) for k in flags for z in (True, False)} <= kinds


def assert_rational_form(c):
    """c is an int when integral and a Fraction otherwise: never a float, a
    bool or a Fraction with denominator 1."""
    assert type(c) in (int, Fraction), repr(c)
    assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


def assert_validated(p):
    """p is what the public constructor makes of its own terms."""
    n = p.ambient.n
    assert Polynomial(p.ambient, p.terms).terms == p.terms
    for e, c in p.terms.items():
        assert_rational_form(c)
        assert c != 0
        assert type(e) is tuple and len(e) == n
        assert all(type(x) is int and x >= 0 for x in e)


def golden_results():
    """Every polynomial of the golden resolve, principalize and transform
    commands' results, and every tree they build; each transcript block
    starts with a "$ mwb ..." line."""
    commands = set()
    for path in GOLDEN.rglob("*.txt"):
        for line in path.read_text().splitlines():
            argv = shlex.split(line)[2:] if line.startswith("$ mwb ") else []
            if argv and argv[0] in ("resolve", "principalize", "transform"):
                commands.add(tuple(argv))
    polys, trees = [], []
    for argv in sorted(commands):
        args = cli.build_parser().parse_args(argv)
        if argv[0] == "transform":
            amb = cli.build_ambient(args)
            b = cli.make_blowup(args, amb)
            source = cli.parse_ideal(args.ideal, amb)
            weak, mult = weak_transform(b, source)
            proper = groebner.saturate_at_variables(weak, mult)
            for result in (total_transform(b, source), weak, proper):
                polys += result.generators
            polys += b.pullback.values()
        else:
            amb = cli.build_ambient(args, args.ideal)
            source = cli.parse_ideal(args.ideal, amb)
            marks = tuple(args.mark or ())
            trees.append(engine.resolve(source, mode=args.mode, marks=marks))
    assert len(trees) >= 5 and len(polys) > 20
    return polys, trees


def tree_results(tree):
    """The polynomials and points of a resolution tree: node ideals, weak
    and proper transforms, contact shifts, reduced bases, marked points."""
    polys, points = [], []
    for node in tree.nodes():
        polys += node.ideal.generators
        polys += groebner.groebner_basis(node.ideal)
        if node.weak is not None:
            polys += node.weak.generators
            proper = groebner.saturate_at_variables(node.weak, node.multiplicities)
            polys += proper.generators
        contacts = node.changes + (node.center.contacts if node.center else ())
        polys += [c.shift for c in contacts if c.shift is not None]
        points += node.marked
        if node.worst_point is not None:
            points.append(node.worst_point)
    return polys, points


def test_results_keep_integral_coefficients_as_ints():
    # the drop corpus and the golden commands, walked through every result
    # they make: an integral coefficient or coordinate is an int, any other
    # a Fraction, and none is a float
    polys, trees = golden_results()
    trees += [engine.resolve(i, mode=mode) for mode, i in drop_corpus()]
    points = []
    for tree in trees:
        more, pts = tree_results(tree)
        polys += more
        points += pts
    for p in polys:
        assert_validated(p)
    assert any(type(c) is Fraction for p in polys for c in p.terms.values())
    for q in points:
        for x in q:
            assert_rational_form(x)
    assert any(x == 1 for q in points for x in q)


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
    relabel = random.Random(7103)  # draws for renaming, unit stripping, restriction
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
        unit = Polynomial(inv, {tuple(relabel.randrange(0, 3) for _ in range(amb.n)): 1})
        results.append(strip_inverted_units(Polynomial(inv, f.terms) * unit)[0])
        if not f.is_zero():
            block = rng.randrange(0, amb.n + 1)
            results.append(groebner.monic(f, block))
            basis = [groebner.monic(h, block) for h in (g, f) if not h.is_zero()]
            results.append(groebner.normal_form(f * g + g, basis, block))
            results += groebner.saturate(PolyIdeal(amb, (f, g)), f).generators
            reduced.clear()
            groebner.groebner_basis(PolyIdeal(amb, (f, g, f * g + f)), block)
            results += [Polynomial._trusted(amb, s) for s in reduced]
            spolys += len(reduced)
        target = numbered("u", rng.randrange(1, 4))
        images = {n: random_poly(rng, target, rng.randrange(0, 3)) for n in amb.names()}
        results.append(substitute(f, images, target))
        name = relabel.choice(amb.names())
        zero = Polynomial(amb.drop(name), {})
        results += [restrict(f, name), restrict(f, name, zero)]
        for r in results:
            assert_validated(r)
    assert spolys > 100

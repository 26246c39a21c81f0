import itertools
import random
from fractions import Fraction

import sympy

import oracles
from conftest import (
    F_TEXT,
    ambient,
    ideal,
    nondegenerate_samples,
    poly,
    random_polynomial,
)
from mwb import PolyIdeal, Polynomial, groebner, kernel
from mwb.groebner import (
    codimension,
    dimension,
    groebner_basis,
    ideal_equal,
    is_unit_ideal,
    leading_term,
    member,
    monic,
    normal_form,
    saturate,
    saturate_at_variables,
    saturates_to_unit,
)
from mwb.blowup import build_blowup, weak_transform
from mwb.invariant import INF, d_leq, max_logord
from mwb.poly import (
    constant,
    derivative,
    format_polynomial,
    monomial_saturation,
    variable,
)
from mwb.polyhedra import _bits, dot, faces, newton_polyhedron

A3 = ambient(ordinary="x,y,z")


def to_sympy(p, syms):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c)
        for s, k in zip(syms, e):
            term *= s**k
        expr += term
    return expr


def test_membership_matches_sympy():
    rng = random.Random(3001)
    syms = sympy.symbols("x y z")
    for _ in range(25):
        gens = [random_polynomial(rng, A3, max_terms=3, max_entry=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        i = PolyIdeal(A3, tuple(gens))
        probe = random_polynomial(rng, A3, max_terms=2, max_entry=3)
        combo = gens[0] * probe  # a guaranteed member with nontrivial shape
        gb = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order="grevlex")
        for q in (probe, combo):
            expected = gb.reduce(to_sympy(q, syms))[1] == 0
            assert member(q, i) == expected


def test_member_known_cases():
    i = ideal(A3, "x^2 + y^2, z - y^2")
    assert member(poly(A3, "x^2 + z"), i)
    assert not member(poly(A3, "x^2 + y"), i)
    assert member(poly(A3, "0"), i)
    for g in i.generators:
        assert member(g, i)


def test_ideal_equal_is_presentation_independent():
    i1 = ideal(A3, "x^2 + y^2, z - y^2")
    i2 = ideal(A3, "x^2 + z, z - y^2")
    i3 = ideal(A3, "2 x^2 + 2 z, z - y^2, x^2 + y^2")
    assert ideal_equal(i1, i2)
    assert ideal_equal(i1, i3)
    assert not ideal_equal(i1, ideal(A3, "x, z"))


def test_unit_detection():
    assert is_unit_ideal(ideal(A3, "1"))
    assert is_unit_ideal(ideal(A3, "x, x + 1"))
    assert not is_unit_ideal(ideal(A3, "x, y"))
    assert not is_unit_ideal(ideal(A3, "0"))
    # Buchberger stops at the first constant remainder with exactly [1]
    for text in ("1", "3", "x, x + 1", "x^2 + y, x y - 1, y", "x y + 1, x^2 z, y - z"):
        for block in (0, 1):
            assert groebner_basis(ideal(A3, text), block) == [constant(A3, 1)]


def test_unit_basis_matches_sympy():
    rng = random.Random(3004)
    syms = sympy.symbols("x y z")
    one = constant(A3, 1)
    seen = set()
    for k in range(40):
        gens = [
            random_polynomial(rng, A3, max_terms=3, max_entry=2)
            for _ in range(rng.randint(2, 3))
        ]
        if k % 3 == 0:
            # 1 = (g h + 1) - h g, a unit ideal Buchberger has to find
            h = random_polynomial(rng, A3, max_terms=2, max_entry=2)
            gens.append(gens[0] * h + one)
        gb = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order="grevlex")
        expected = gb.exprs == [1]
        assert (groebner_basis(PolyIdeal(A3, tuple(gens))) == [one]) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_normal_form_properties():
    rng = random.Random(3002)
    for _ in range(10):
        gens = [random_polynomial(rng, A3, max_terms=2, max_entry=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        i = PolyIdeal(A3, tuple(gens))
        basis = groebner_basis(i)
        p = random_polynomial(rng, A3, max_terms=3, max_entry=3)
        r = normal_form(p, basis)
        assert normal_form(r, basis).terms == r.terms
        assert member(p - r, i)


def test_normal_form_makes_each_element_monic():
    # the kernel reduces by monic elements; a basis given with other
    # leading coefficients must give the same remainders
    amb = ambient(ordinary="x")
    two = [poly(amb, "2 x + 2")]
    assert normal_form(poly(amb, "x"), two) == constant(amb, -1)
    assert member(poly(amb, "x + 1"), two)
    assert not member(poly(amb, "x"), two)
    r = normal_form(poly(A3, "x^2 y"), [poly(A3, "3 x y - z")])
    assert r == poly(A3, "1/3 x z")


def test_yes_no_questions_build_no_reduced_basis(monkeypatch):
    # saturation, the unit test and membership in a PolyIdeal read extend's
    # basis; only ideal_equal compares reduced bases
    def refused(*args):
        raise AssertionError("groebner_basis called")

    monkeypatch.setattr(groebner, "groebner_basis", refused)
    i = ideal(A3, "x^2 - y z, x y - 1")
    assert not is_unit_ideal(i)
    assert is_unit_ideal(ideal(A3, "x^2 - y, x^2 - y + 1"))
    assert member(poly(A3, "x^3 - x y z"), i)
    assert not member(poly(A3, "x"), i, 1)
    s = saturate(i, poly(A3, "x + y"))
    assert s == saturate(ideal(A3, "x y - 1, x^2 - y z"), poly(A3, "y + x"))
    assert saturate(i, variable(A3, "x")).generators


def test_groebner_basis_is_monic_and_reduces_generators():
    i = ideal(A3, "2 x^2 + 2 y, 3 z^3")
    basis = groebner_basis(i)
    for b in basis:
        _, lc = leading_term(b)
        assert lc == 1
    for g in i.generators:
        assert normal_form(g, basis).is_zero()


def test_saturation():
    amb = ambient(ordinary="x,y")
    i = ideal(amb, "x^2 y, x^3 y^2")
    s = saturate(i, variable(amb, "x"))
    assert ideal_equal(s, ideal(amb, "y"))
    # saturating by a variable absent from the ideal changes nothing
    j = ideal(amb, "y^2")
    assert ideal_equal(saturate(j, variable(amb, "x")), j)
    k = saturate_at_variables(ideal(A3, "x^2 y z, x y^2 z"), ("x", "y"))
    assert ideal_equal(k, ideal(A3, "z"))


def test_saturation_unit_cases():
    amb = ambient(ordinary="x,y")
    assert is_unit_ideal(saturate(ideal(amb, "x^3"), variable(amb, "x")))
    assert is_unit_ideal(
        saturate_at_variables(ideal(amb, "x^2 y^3"), ("x", "y"))
    )


def _every_subset(names):
    for size in range(len(names) + 1):
        yield from itertools.combinations(names, size)


def test_saturates_to_unit_matches_oracle():
    rng = random.Random(3005)
    seen = set()
    for k in range(200):
        names = "xyz"[: rng.randint(2, 3)]
        split = rng.randint(0, len(names))
        amb = ambient(ordinary=",".join(names[:split]), monomial=",".join(names[split:]))
        # multilinear trinomials and binomials of higher degree, alternately
        terms, entry = (3, 1) if k % 2 else (2, 3)
        gens = [
            random_polynomial(rng, amb, max_terms=terms, max_entry=entry)
            for _ in range(rng.randint(1, 2))
        ]
        i = PolyIdeal(amb, tuple(gens))
        for sub in _every_subset(amb.names()):
            unit = saturates_to_unit(i, sub)
            assert unit == oracles.unit_after_saturation(i, sub), (gens, sub)
            seen.add(unit)
    assert seen == {True, False}


def face_jacobians(f):
    """The Jacobian ideal (f_tau, df_tau/dx, ...) of f restricted to each
    face tau of its Newton polyhedron."""
    amb = f.ambient
    p = newton_polyhedron(list(f.terms), amb.n)
    for defining, _, _, _ in faces(p):
        tight = [p.facets[k] for k in _bits(defining)]
        ftau = Polynomial(
            amb,
            {
                e: c
                for e, c in f.terms.items()
                if all(dot(t.normal, e) == t.level for t in tight)
            },
        )
        yield PolyIdeal(amb, [ftau] + [derivative(ftau, n) for n in amb.names()])


def test_saturates_to_unit_on_face_jacobians():
    degenerate = poly(ambient(monomial="x,y"), "x^2 - 2 x y + y^2")
    golden = poly(ambient(monomial="x,y,z"), F_TEXT)
    for f in (degenerate, golden):
        for jac in face_jacobians(f):
            for sub in _every_subset(f.ambient.names()):
                assert saturates_to_unit(jac, sub) == oracles.unit_after_saturation(
                    jac, sub
                )
    names = degenerate.ambient.names()
    assert not all(saturates_to_unit(j, names) for j in face_jacobians(degenerate))
    names = golden.ambient.names()
    assert all(saturates_to_unit(j, names) for j in face_jacobians(golden))


def random_log_ambient(rng, n):
    names = "xyzw"[:n]
    split = rng.randint(0, n)
    return ambient(ordinary=",".join(names[:split]), monomial=",".join(names[split:]))


def test_principal_saturation_is_division():
    # (g) : m^inf against elimination, term dict for term dict: m a
    # constant, a variable or a product; g carrying high powers of m's
    # variables, and g that is a monomial times a constant
    rng = random.Random(3011)
    shapes = set()
    for k in range(160):
        amb = random_log_ambient(rng, rng.randint(2, 4))
        n = amb.n
        m = tuple(rng.randint(0, 1) if k % 3 else 0 for _ in range(n))
        m = m if k % 4 else tuple(int(i == k % n) for i in range(n))
        g = random_polynomial(rng, amb, max_terms=1 if k % 5 == 0 else 3, max_entry=3)
        shift = tuple(rng.randint(0, 6) for _ in range(n))
        g = g * Polynomial(amb, {shift: rng.choice((1, -2, Fraction(1, 3)))})
        f = Polynomial(amb, {m: rng.choice((1, 3))})
        got = saturate(PolyIdeal(amb, (g,)), f)
        want = oracles.elimination_saturate(PolyIdeal(amb, (g,)), f)
        assert [h.terms for h in got.generators] == [h.terms for h in want.generators]
        shapes.add((sum(m), got.generators[0].is_constant()))
    assert {0, 1, 2} <= {k for k, _ in shapes}
    assert {True, False} == {c for _, c in shapes}


def test_saturation_of_the_zero_ideal_is_zero():
    amb = ambient(ordinary="x,y")
    assert saturate(PolyIdeal(amb, ()), variable(amb, "x")).is_zero()
    assert oracles.elimination_saturate(PolyIdeal(amb, ()), variable(amb, "x")).is_zero()


def _chart_dimension_inputs(rng, amb, shape):
    """Generators of one input shape for the chart dimension test."""
    n = amb.n
    if shape == "random":
        return [
            random_polynomial(rng, amb, max_terms=2, max_entry=3)
            for _ in range(rng.randint(2, 3))
        ]
    if shape == "principal":
        return [random_polynomial(rng, amb, max_terms=3, max_entry=3)]
    others = [
        random_polynomial(rng, amb, max_terms=2, max_entry=2)
        for _ in range(rng.randint(0, 2))
    ]
    if shape == "monomial":
        # a term c x^a on one or two variables: a unit exactly when every
        # one of them is inverted
        support = rng.sample(range(n), rng.randint(1, 2))
        e = tuple(rng.randint(1, 3) if i in support else 0 for i in range(n))
        gens = [Polynomial(amb, {e: rng.choice((1, -2, Fraction(1, 3)))})]
    elif shape == "constant":
        # a nonzero constant, or 0, which leaves the zero ideal when alone
        gens = [constant(amb, rng.choice((0, 1, -2, Fraction(1, 3))))]
        others = others[:1]
    else:
        # u (1 + x): a unit times a nonunit when u is inverted
        u, x = rng.sample(amb.names(), 2)
        unit = variable(amb, u) ** rng.randint(1, 2)
        return [unit * (variable(amb, x) + constant(amb, 1))]
    gens += others
    rng.shuffle(gens)
    return gens


def test_dimension_on_a_chart_matches_the_saturated_ideal():
    # dim (R/I)_f against dim R/(I : f^inf), saturated by elimination and
    # read off a basis with no shortcut, under every set of inverted names:
    # random ideals of two or three generators, and the inputs the unit and
    # principal theorems answer or must leave alone (principal ideals, a
    # unit-monomial generator, monomials on a variable left uninverted,
    # constants, the zero ideal, u (1 + x))
    rng = random.Random(3012)
    shapes = ("random", "principal", "monomial", "constant", "unit times 1 + x")
    seen = set()
    for k in range(120):
        shape = shapes[k % len(shapes)]
        amb = random_log_ambient(rng, rng.randint(2, 3))
        gens = _chart_dimension_inputs(rng, amb, shape)
        i = PolyIdeal(amb, tuple(gens))
        for sub in _every_subset(amb.names()):
            saturated = i
            for name in sub:
                saturated = oracles.elimination_saturate(saturated, variable(amb, name))
            dim = dimension(i, sub)
            assert dim == oracles.basis_dimension(saturated), (gens, sub)
            assert codimension(i, sub) == amb.n - dim
            assert saturates_to_unit(i, sub) == (dim < 0)
            kind = {-1: "unit", amb.n - 1: "hypersurface", amb.n: "all"}.get(dim)
            seen.add((shape, kind))
    assert {
        ("random", "unit"),
        ("random", "hypersurface"),
        ("random", None),
        ("principal", "unit"),
        ("principal", "hypersurface"),
        ("monomial", "unit"),
        ("monomial", "hypersurface"),
        ("monomial", None),
        ("constant", "unit"),
        ("constant", "hypersurface"),
        ("constant", "all"),
        ("unit times 1 + x", "hypersurface"),
    } <= seen


def test_chart_dimensions_match_the_lifts():
    # every name set of one call against the basis dimension of its own
    # Rabinowitsch lift, built by renaming, and d < 0 against saturation by
    # elimination: the shapes of the chart dimension test (principal ideals
    # and unit-monomial generators among them), the zero ideal, a unit
    # ideal that only a basis shows, the empty name set, repeated names,
    # and the chart lifts of the one-step check's first derivation stage
    rng = random.Random(3015)
    shapes = ("random", "principal", "monomial", "constant", "unit times 1 + x")
    cases = []
    for k in range(50):
        amb = random_log_ambient(rng, rng.randint(2, 3))
        gens = _chart_dimension_inputs(rng, amb, shapes[k % len(shapes)])
        cases.append((PolyIdeal(amb, tuple(gens)), list(_every_subset(amb.names()))))
    amb = ambient(ordinary="x,y", monomial="z")
    every = list(_every_subset(amb.names()))
    cases.append((PolyIdeal(amb, ()), every))
    cases.append((ideal(amb, "x, 1 - x"), every))
    repeated = [("x", "x"), ("z", "y", "z"), (), ("y",), ()]
    cases.append((ideal(amb, "x^2 - y z, y^2 + x"), repeated))
    for f in nondegenerate_samples(1204, 6):
        pi = PolyIdeal(f.ambient, (f,))
        b = build_blowup(monomial_saturation(pi), f.ambient)
        dl = d_leq(weak_transform(b, pi)[0], 1)
        cases.append((dl, [chart.inverted for chart in b.charts] + [()]))
    seen = set()
    for i, name_sets in cases:
        n = i.ambient.n
        got = groebner.chart_dimensions(i, name_sets)
        assert len(got) == len(name_sets)
        for names, d in zip(name_sets, got):
            e = [0] * n
            for name in names:
                e[i.ambient.index(name)] += 1
            f = Polynomial(i.ambient, {tuple(e): 1})
            lift = oracles.rabinowitsch_by_rename(i, f)
            assert d == oracles.basis_dimension(lift), (i, names)
            assert (d < 0) == oracles.unit_after_saturation(i, names), (i, names)
            assert dimension(i, names) == d
            seen.add({-1: "unit", n - 1: "hypersurface", n: "all"}.get(d, "other"))
    assert seen == {"unit", "hypersurface", "all", "other"}


def interreduced(amb, pairs, block):
    """The minimal part of (lead, terms) pairs, each element reduced by the
    others, sorted by lead: the reduced basis when the pairs are a
    Groebner basis."""
    kept = [
        (lead, terms)
        for lead, terms in pairs
        if not any(m != lead and kernel.mono_divides(m, lead) for m, _ in pairs)
    ]
    out = [
        (lead, kernel.normal_form(terms, [q for q in kept if q[0] != lead], block))
        for lead, terms in kept
    ]
    out.sort(key=lambda lt: kernel.order_key(lt[0], block))
    return [Polynomial._trusted(amb, r) for _, r in out]


def test_groebner_basis_matches_the_all_pairs_oracle():
    # the Gebauer-Moller run against Buchberger over every pair, term dict
    # for term dict and term order included, under every block order: on
    # 2-4 variables and 1-4 generators, plus inputs with equal and dividing
    # leads, unit ideals and Rabinowitsch lifts of 2-3 variables.  The
    # basis extend grows one generator at a time is checked too: once
    # interreduced it is the reduced basis, and remainders against it are
    # those against the reduced basis
    rng = random.Random(3013)
    rem_rng = random.Random(3113)  # keeps rng's ideals what they were
    kinds = set()
    for k in range(48):
        shape = k % 4
        # lifts add a variable; binomials on four variables keep the
        # all-pairs runs short
        amb = random_log_ambient(rng, rng.randint(2, 3 if shape == 3 else 4))
        gens = [
            random_polynomial(rng, amb, max_terms=5 - amb.n, max_entry=2)
            for _ in range(rng.randint(1, 4))
        ]
        if shape == 1:
            # multiples of gens[0] before and after it, two with one lead:
            # leads divide or equal each other under every order
            x, y = (variable(amb, n) for n in (amb.names()[0], amb.names()[-1]))
            g = gens[0]
            gens = [g * x] + gens + [g * (x + constant(amb, 1)), g * y]
        elif shape == 2:
            h = random_polynomial(rng, amb, max_terms=2, max_entry=1)
            gens.append(gens[0] * h + constant(amb, 1))
        i = PolyIdeal(amb, tuple(gens))
        if shape == 3:
            m = Polynomial(amb, {tuple(rng.randint(0, 1) for _ in range(amb.n)): 1})
            i = oracles.rabinowitsch_by_rename(i, m)
        for block in range(i.ambient.n + 1):
            got = groebner_basis(i, block)
            want = oracles.all_pairs_groebner_basis(i, block)
            assert [list(g.terms.items()) for g in got] == [
                list(g.terms.items()) for g in want
            ], (i, block)
            kinds.add((shape, got == [constant(i.ambient, 1)]))
            grown = []
            for g in i.generators:
                grown = groebner.extend(grown, [g], block)
            assert [
                list(g.terms.items()) for g in interreduced(i.ambient, grown, block)
            ] == [list(g.terms.items()) for g in want], (i, block)
            for _ in range(3):
                p = random_polynomial(rem_rng, i.ambient, max_terms=4, max_entry=3)
                r = groebner.monic_remainder(p, grown, block)
                r0 = groebner.monic_remainder(p, oracles.lead_pairs(got), block)
                assert list(r.terms.items()) == list(r0.terms.items()), (i, block, p)
    assert {(0, False), (1, False), (2, True), (3, False), (3, True)} <= kinds


def count_s_polynomials(monkeypatch) -> list:
    """Patch _s_polynomial to record the lcm of each S-polynomial formed."""
    formed = []
    original = groebner._s_polynomial

    def recording(a, b, lcm):
        formed.append(lcm)
        return original(a, b, lcm)

    monkeypatch.setattr(groebner, "_s_polynomial", recording)
    return formed


def test_monomial_generators_form_no_s_polynomial(monkeypatch):
    # the S-polynomial of two monomials is 0, so their lcm class goes as a
    # coprime one does: no pair of them is formed, whether the monomials
    # come as generators or as a basis being extended
    formed = count_s_polynomials(monkeypatch)
    rng = random.Random(3019)
    for _ in range(30):
        amb = random_log_ambient(rng, rng.randint(2, 4))
        gens = [
            Polynomial(amb, {tuple(rng.randint(0, 3) for _ in range(amb.n)): rng.choice((1, -3))})
            for _ in range(rng.randint(2, 5))
        ]
        block = rng.randint(0, amb.n)
        half = rng.randint(0, len(gens))
        basis = groebner.extend(groebner.extend([], gens[:half], block), gens[half:], block)
        want = oracles.all_pairs_groebner_basis(PolyIdeal(amb, tuple(gens)), block)
        assert interreduced(amb, basis, block) == want, (gens, block)
    amb = ambient(ordinary="x,y")
    groebner.extend([], ideal(amb, "x^2, x y, y^3").generators)
    assert formed == []


def mixed_generators(rng, amb):
    """One to four generators, each a single term or a random polynomial
    with equal odds."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            e = tuple(rng.randint(0, 2) for _ in range(amb.n))
            gens.append(Polynomial(amb, {e: rng.choice((1, 2, Fraction(-1, 3)))}))
        else:
            gens.append(random_polynomial(rng, amb, max_terms=5 - amb.n, max_entry=2))
    return gens


def test_mixed_monomial_inputs_match_the_all_pairs_oracle(monkeypatch):
    # monomials among polynomials: dropping a class for one pair of two
    # monomials drops the other pairs of that lcm too, and every basis,
    # reduced or grown one generator at a time, is still the oracle's.  In
    # the two fixed inputs the class of x y holds the monomial pair
    # (x, x y) and the pair (y + z, x y), whose S-polynomial x z reduces to
    # 0 by x: no S-polynomial is formed, whichever of x and y + z is older
    formed = count_s_polynomials(monkeypatch)
    amb = ambient(ordinary="x,y,z")
    for text in ("x, y + z, x y", "y + z, x, x y"):
        i = ideal(amb, text)
        basis = groebner.extend([], i.generators)
        assert formed == [] and len(basis) == 3
        assert groebner_basis(i) == oracles.all_pairs_groebner_basis(i) == [
            poly(amb, "z + y"),
            poly(amb, "x"),
        ]
    rng = random.Random(3021)
    rem_rng = random.Random(3121)
    monomial_pairs = 0
    for _ in range(40):
        amb = random_log_ambient(rng, rng.randint(2, 4))
        i = PolyIdeal(amb, tuple(mixed_generators(rng, amb)))
        monomial_pairs += sum(len(g.terms) == 1 for g in i.generators) >= 2
        for block in range(amb.n + 1):
            want = [list(g.terms.items()) for g in oracles.all_pairs_groebner_basis(i, block)]
            got = groebner_basis(i, block)
            assert [list(g.terms.items()) for g in got] == want, (i, block)
            grown = []
            for g in i.generators:
                grown = groebner.extend(grown, [g], block)
            assert [list(g.terms.items()) for g in interreduced(amb, grown, block)] == want
            p = random_polynomial(rem_rng, amb, max_terms=4, max_entry=3)
            r = groebner.monic_remainder(p, grown, block)
            r0 = groebner.monic_remainder(p, oracles.lead_pairs(got), block)
            assert list(r.terms.items()) == list(r0.terms.items()), (i, block, p)
    assert monomial_pairs >= 10 and formed


def test_rabinowitsch_lift_matches_polynomial_arithmetic():
    # the lift built from term dicts (_lift_ambient, _lift and
    # _inverse_equation) against renaming and arithmetic, on ambients that
    # already use the name w
    rng = random.Random(3014)
    for k in range(60):
        n = rng.randint(1, 3)
        if k % 3:
            amb = random_log_ambient(rng, n)
        else:
            amb = ambient(ordinary=",".join(("w", "w_", "w__")[:n]))
        gens = [
            random_polynomial(rng, amb, max_terms=3) for _ in range(rng.randint(0, 3))
        ]
        f = random_polynomial(rng, amb, max_terms=2 if k % 2 else 1, max_entry=2)
        i = PolyIdeal(amb, tuple(gens))
        scratch = groebner._lift_ambient(amb)
        pairs = [(leading_term(g)[0], g.terms) for g in i.generators]
        lifted = [Polynomial._trusted(scratch, t) for _, t in groebner._lift(pairs)]
        lifted.append(groebner._inverse_equation(scratch, f.terms))
        got = PolyIdeal(scratch, lifted)
        want = oracles.rabinowitsch_by_rename(i, f)
        assert got == want
        assert [list(g.terms.items()) for g in got.generators] == [
            list(g.terms.items()) for g in want.generators
        ]


def test_codimension_and_dimension():
    assert codimension(ideal(A3, "x")) == 1
    assert codimension(ideal(A3, "x, y")) == 2
    assert codimension(ideal(A3, "x, y, z")) == 3
    assert dimension(ideal(A3, "x, y")) == 1
    assert codimension(ideal(A3, "x^2 + y^2, z - y^2")) == 2
    # the cuspidal curve in the plane has codimension one
    a2 = ambient(ordinary="x,y")
    assert codimension(ideal(a2, "x^2 + y^3")) == 1


def test_zero_ideal_values():
    # extend has no generator to read the arity from
    amb = ambient(ordinary="x,y")
    zero = PolyIdeal(amb, ())
    assert groebner.extend([], ()) == []
    assert groebner_basis(zero) == []
    assert dimension(zero) == 2
    assert dimension(zero, ["x"]) == 2
    assert max_logord(zero) is INF


def test_monic_scales_leading_coefficient():
    f = poly(A3, "3 x^2 + 6 y")
    m = monic(f)
    assert leading_term(m)[1] == 1
    assert format_polynomial(m) == "x^2 + 2*y"

"""Refusals at the public boundary: each malformed call raises the error
class and message its module promises, and the class is an MwbError, so
the command line reports it as a domain error (exit 1)."""

import pytest

from conftest import ambient, ideal, poly
from mwb import (
    AmbientMismatch,
    EmptyCenter,
    EmptyIdeal,
    FractionalIdeal,
    LogAmbient,
    MwbError,
    PolyIdeal,
    Polynomial,
    ZeroIdeal,
    ZeroVector,
    assemble_center,
    groebner,
    make_center,
    monomial_ideal,
    monomials,
    newton_nondegenerate,
    one_step_check,
    rees_blowup,
    resolve,
)
from mwb.poly import rename, restrict
from mwb.polyhedra import facet_level

XY = ambient(ordinary="x,y")
XYZ = ambient(ordinary="x,y,z")
MXY = ambient(monomial="x,y")
SQUARE = monomial_ideal([(1, 0), (0, 1)], 2)


def zero(amb):
    return Polynomial(amb, {})


CASES = [
    (
        "LogAmbient duplicate names",
        lambda: LogAmbient([("x", "ordinary"), ("x", "monomial")]),
        MwbError,
        "duplicate variable names",
    ),
    (
        "LogAmbient unknown flag",
        lambda: LogAmbient([("x", "toric")]),
        MwbError,
        "unknown flag 'toric' for variable x",
    ),
    (
        "LogAmbient inverted name outside",
        lambda: LogAmbient([("x", "ordinary")], ["y"]),
        MwbError,
        "inverted variables ['y'] not in ambient",
    ),
    (
        "Polynomial non-rational coefficient",
        lambda: Polynomial(XY, {(1, 0): 0.5}),
        MwbError,
        "coefficient 0.5 is not rational",
    ),
    (
        "Polynomial negative power",
        lambda: poly(XY, "x + y") ** -1,
        MwbError,
        "negative polynomial power",
    ),
    (
        "Polynomial evaluate arity",
        lambda: poly(XY, "x + y").evaluate([1]),
        MwbError,
        "point arity does not match ambient",
    ),
    (
        "rename sending two variables to one",
        lambda: rename(poly(XY, "x + y"), {"y": "x"}, ambient(ordinary="x")),
        MwbError,
        "rename sends two variables to one target variable",
    ),
    (
        "rename with a key that names no source variable",
        lambda: rename(poly(XY, "x + y"), {"q": "x"}, XY),
        MwbError,
        "rename maps q, which names no source variable",
    ),
    (
        "restrict value on the wrong ambient",
        lambda: restrict(poly(XY, "x + y"), "x", poly(XY, "y")),
        AmbientMismatch,
        "restriction value must live on the reduced ambient",
    ),
    (
        "PolyIdeal generator on another ambient",
        lambda: PolyIdeal(XY, [poly(XYZ, "x")]),
        AmbientMismatch,
        "generator over a different ambient",
    ),
    (
        "monomials.newton of the zero ideal",
        lambda: monomials.newton(monomial_ideal([], 2)),
        EmptyIdeal,
        "the zero ideal has no Newton polyhedron",
    ),
    (
        "integral_closure box guard",
        lambda: monomials.integral_closure(monomial_ideal([(2000, 0), (0, 2000)], 2)),
        MwbError,
        "closure box [2001, 2001] too large to enumerate",
    ),
    (
        "make_center exponent 0",
        lambda: make_center([("x", 0)], monomial_ideal([], 2)),
        MwbError,
        "center exponent 0 on x must be positive",
    ),
    (
        "make_center empty",
        lambda: make_center([], monomial_ideal([], 2)),
        EmptyCenter,
        "center with no ordinary part and zero monomial part",
    ),
    (
        "assemble_center arity",
        lambda: assemble_center(make_center([], SQUARE), XYZ),
        MwbError,
        "center monomial part has the wrong arity",
    ),
    (
        "rees_blowup arity",
        lambda: rees_blowup(FractionalIdeal(SQUARE, 2), XYZ),
        MwbError,
        "ideal arity does not match the ambient",
    ),
    (
        "resolve unknown mode",
        lambda: resolve(ideal(XY, "x"), mode="desingularize"),
        MwbError,
        "unknown mode 'desingularize'",
    ),
    (
        "newton_nondegenerate of zero",
        lambda: newton_nondegenerate(zero(MXY)),
        ZeroIdeal,
        "the zero polynomial has no Newton polyhedron",
    ),
    (
        "one_step_check of zero",
        lambda: one_step_check(zero(MXY)),
        ZeroIdeal,
        "the zero polynomial",
    ),
    (
        "leading_term of zero",
        lambda: groebner.leading_term(zero(XY)),
        MwbError,
        "the zero polynomial has no leading term",
    ),
    (
        "ideal_equal across ambients",
        lambda: groebner.ideal_equal(ideal(XY, "x"), ideal(XYZ, "x")),
        AmbientMismatch,
        "comparing ideals over different ambients",
    ),
    (
        "saturate across ambients",
        lambda: groebner.saturate(ideal(XY, "x"), poly(XYZ, "y")),
        AmbientMismatch,
        "saturation element over a different ambient",
    ),
    (
        "member across ambients",
        lambda: groebner.member(poly(ambient(ordinary="y,x"), "y"), ideal(XY, "x")),
        AmbientMismatch,
        "membership of a polynomial over a different ambient",
    ),
    (
        "normal_form across ambients",
        lambda: groebner.normal_form(poly(XY, "x"), [poly(XYZ, "x")]),
        AmbientMismatch,
        "reducing against polynomials over a different ambient",
    ),
    (
        "saturate at zero",
        lambda: groebner.saturate(ideal(XY, "x"), zero(XY)),
        MwbError,
        "saturation at zero",
    ),
    (
        "facet_level zero direction",
        lambda: facet_level(monomials.newton(SQUARE), (0, 0)),
        ZeroVector,
        "must be nonnegative and nonzero",
    ),
    (
        "facet_level negative direction",
        lambda: facet_level(monomials.newton(SQUARE), (1, -1)),
        ZeroVector,
        "support direction (1, -1) must be nonnegative and nonzero",
    ),
]


@pytest.mark.parametrize(
    "call, cls, fragment", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_refusal(call, cls, fragment):
    with pytest.raises(MwbError) as info:
        call()
    assert info.type is cls
    assert issubclass(cls, MwbError)
    assert fragment in str(info.value)

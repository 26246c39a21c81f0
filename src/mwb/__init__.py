"""Multi-weighted blow-ups and logarithmic resolution of singularities.

The pieces, bottom up: Newton polyhedra and their normal fans
(:mod:`mwb.polyhedra`), monomial ideals with integral closure
(:mod:`mwb.monomials`), exact polynomials on logarithmic ambients
(:mod:`mwb.poly`), Groebner bases and saturation (:mod:`mwb.groebner`),
the blow-up construction with its transforms (:mod:`mwb.blowup`), the
resolution invariant and centers (:mod:`mwb.invariant`), and the chart
trees that drive resolution and principalization (:mod:`mwb.engine`).
"""

from .blowup import (
    CenterIdeal,
    Chart,
    FractionalIdeal,
    MultiWeightedBlowup,
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
from .engine import (
    ResolutionNode,
    ResolutionTree,
    blowup_equal,
    chart_origin,
    newton_nondegenerate,
    one_step_check,
    principalize,
    reembed_check,
    resolve,
)
from .errors import (
    AmbientMismatch,
    BadOrder,
    DepthExceeded,
    EmptyCenter,
    EmptyIdeal,
    HypothesisViolated,
    IncompleteSubstitution,
    InvariantNotDropped,
    MwbError,
    NoRectifiableContact,
    ZeroIdeal,
    ZeroVector,
)
from .invariant import (
    INF,
    Center,
    Contact,
    Invariant,
    center_display,
    coefficient_ideal,
    compare,
    d_leq,
    invariant_at,
    logord_at,
    max_logord,
    maximal_contact,
    reduced_center,
)
from .monomials import MonomialIdeal, integral_closure, monomial_ideal
from .poly import (
    EXCEPTIONAL,
    MONOMIAL,
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    constant,
    derivative,
    format_monomial,
    format_polynomial,
    log_derivation,
    monomial_saturation,
    rename,
    restrict,
    strip_inverted_units,
    substitute,
    variable,
)
from .polyhedra import (
    Facet,
    NewtonPolyhedron,
    NormalFan,
    facet_level,
    faces,
    newton_polyhedron,
    normal_fan,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

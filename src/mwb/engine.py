"""Resolution and principalization trees, plus one-step certificates.

A tree node is a chart: an ambient with its inversions, the transformed
ideal, and the marked points being tracked (the chart origin plus valid
lifts of the parent's marked points).  Expanding a node either certifies it
terminal or blows up the center attached to the worst marked point and
recurses into the charts.

Terminal tests come in two honesty scopes.  "chart" means a point-free
certificate on the whole chart: for a hypersurface, the first derivation
stage saturated at the chart's inverted variables is the unit ideal; for
principalization, the ideal itself saturates to the unit ideal.  The
chart's origin (inverted variables 1, the rest 0) is asked before any
basis: when every generator of that ideal vanishes there, it is a point
of the chart where the ideal is not the unit ideal, so the certificate
fails with no Groebner lift (groebner.saturates_to_unit_on_charts), and
the node goes on to its invariant and its blow-up.  When only the marked
points can be certified (smooth there, or the ideal does not vanish
there), the leaf is honest about it with scope "marked-points".

The first derivation stage (g, Dg) of a hypersurface is often settled by
g's exponents alone (Kouchnirenko, Polyedres de Newton et nombres de
Milnor, 1976), and then no Groebner basis is built.  Write g = sum c_a x^a
with every c_a != 0 on the chart R_f, f the product of the inverted
variables, and call a term a unit term when its monomial is in inverted
variables only.  Suppose every variable that is not inverted is
logarithmic, D_j = x_j d/dx_j; for an inverted ordinary variable d/dx_j and
x_j d/dx_j generate the same ideal of R_f, so every D_j may be taken to be
x_j d/dx_j, and D_j x^a = a_j x^a.

  * No unit term: (g, Dg) is not the unit ideal.  On the stratum where
    every variable that is not inverted is 0 and the inverted ones are
    not, every term of g vanishes, and so does every term of each D_j g,
    each a multiple of a term of g.
  * A unit term, and the vectors (1, a) over the support of g linearly
    independent (the exponents affinely independent): (g, Dg) is the unit
    ideal.  At a point p of the chart let Z be the variables that vanish
    there, and g_Z the terms of g free of Z; it holds the unit terms.
    Then g(p) = g_Z(p) and D_j g(p) = D_j g_Z(p), which is 0 for j in Z.
    A common zero p gives sum t_a (1, a) = 0 over the support of g_Z,
    with every t_a = c_a p^a != 0, against the independence of that
    subset.

When every variable is inverted this is the torus lemma for a face
polynomial: f_tau is nonsingular in the torus when its exponents are
affinely independent.  Anything else, a variable that is neither inverted
nor logarithmic included, goes to groebner.saturates_to_unit_on_charts:
the chart origin answers where (g, Dg) vanishes there, and the charts of
one g it leaves open share one groebner.chart_dimensions call.

The charts of one blow-up are certified together, with one call
(_certified) before any child expands, and each child is handed its
verdict; only the root certifies itself.  This is exact: sibling charts
carry the same generator terms over the same Cox variables, and their
ambients differ only in the inverted names.  d_leq reads the variables'
flags, not the inversions, and _support_verdict, the chart-origin test
and chart_dimensions read the inverted names only through the name sets
they are passed, so each chart's verdict is the one its own ambient gives.

Every produced center is re-checked against the blow-up it induces
(center_consistency), and a child whose worst invariant fails to drop
strictly below the parent's raises InvariantNotDropped rather than
recursing forever; MWB_DEPTH_LIMIT (default 16) caps the tree height.
"""

from __future__ import annotations

import os
from fractions import Fraction

from . import groebner
from .blowup import (
    CenterIdeal,
    MultiWeightedBlowup,
    _assemble,
    center_consistency,
    center_to_blowup,
    restrict_blowup,
    weak_transform,
)
from .errors import (
    DepthExceeded,
    InvariantNotDropped,
    MwbError,
    ZeroIdeal,
)
from .invariant import (
    Center,
    Contact,
    Invariant,
    compare,
    d_leq,
    invariant_at,
    reduced_center,
)
from .poly import (
    MONOMIAL,
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    format_monomial,
    monomial_saturation,
    rational,
    rename,
    substitute_one,
    variable,
)
from .polyhedra import _bits, affinely_independent, faces, newton_polyhedron, normal_fan
from .record import field, record


def depth_limit() -> int:
    """MWB_DEPTH_LIMIT as a nonnegative integer, 16 when unset."""
    value = os.environ.get("MWB_DEPTH_LIMIT", "16")
    try:
        limit = int(value)
        if limit >= 0:
            return limit
    except ValueError:
        pass
    raise MwbError(f"MWB_DEPTH_LIMIT={value!r} is not a nonnegative integer")


def chart_origin(ambient: LogAmbient) -> tuple:
    """The most degenerate point of a chart: inverted variables at 1,
    everything else at 0."""
    return tuple(1 if n in ambient.inverted else 0 for n in ambient.names())


# -- the tree ---------------------------------------------------------------


@record
class ResolutionNode:
    label: str
    path: str
    ambient: LogAmbient
    ideal: PolyIdeal
    depth: int
    marked: tuple
    invariant: Invariant | None = None
    worst_point: tuple | None = None
    changes: tuple = ()  # tier-2 coordinate changes applied before blowing up
    center: Center | None = None
    center_ideal: CenterIdeal | None = None
    blowup: MultiWeightedBlowup | None = None
    weak: PolyIdeal | None = None  # weak transform of ideal under blowup
    multiplicities: dict | None = None
    status: str | None = None
    scope: str | None = None
    children: list = field(default_factory=list)

    def is_leaf(self) -> bool:
        return self.status is not None


@record
class ResolutionTree:
    mode: str
    root: ResolutionNode

    def nodes(self) -> list[ResolutionNode]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def leaves(self) -> list[ResolutionNode]:
        return [n for n in self.nodes() if n.is_leaf()]

    def order(self) -> int:
        """Blow-ups along the longest branch."""
        return max(n.depth for n in self.leaves())


# -- expansion --------------------------------------------------------------


def resolve(
    ideal: PolyIdeal,
    mode: str = "resolve",
    marks: tuple = (),
) -> ResolutionTree:
    if mode not in ("resolve", "principalize"):
        raise MwbError(f"unknown mode {mode!r}")
    if mode == "principalize" and ideal.is_zero():
        raise ZeroIdeal("the zero ideal cannot become the unit ideal")
    limit = depth_limit()
    amb = ideal.ambient
    marked = [chart_origin(amb)]
    for p in marks:
        if len(p) != amb.n:
            raise MwbError(
                f"marked point has {len(p)} coordinates, the ambient has {amb.n}"
            )
        p = tuple(rational(x) for x in p)
        if p not in marked:
            marked.append(p)
    root = ResolutionNode("root", "root", amb, ideal, 0, tuple(marked))
    _expand(root, mode, limit, None, _certified(ideal, mode, [sorted(amb.inverted)])[0])
    return ResolutionTree(mode, root)


def principalize(ideal: PolyIdeal) -> ResolutionTree:
    return resolve(ideal, "principalize")


def _certified(ideal: PolyIdeal, mode: str, name_sets) -> list[bool]:
    """For each set of inverted names, whether the chart-scope certificate
    holds on that chart: for principalize, the ideal saturates to the unit
    ideal; for resolve, it is zero, or a hypersurface whose first
    derivation stage does.  Only the name sets are read, not the ideal's
    own inversions, so one call serves every chart of a blow-up."""
    if mode == "principalize":
        return groebner.saturates_to_unit_on_charts(ideal, name_sets)
    if ideal.is_zero():
        return [True] * len(name_sets)
    if len(ideal.generators) == 1:
        return _smooth_on_charts(ideal, name_sets)
    return [False] * len(name_sets)


def _expand(node: ResolutionNode, mode: str, limit: int, parent_inv, certified: bool):
    # the chart-scope certificate, point-free, was asked by the caller
    if certified:
        node.status = "principal" if mode == "principalize" else "smooth"
        node.scope = "chart"
        return

    ideal = node.ideal
    pts = [(p,) + invariant_at(ideal, p) for p in node.marked]
    worst_p, worst_inv, worst_center = max(pts, key=lambda t: t[1])
    node.invariant = worst_inv
    node.worst_point = worst_p

    if parent_inv is not None and compare(worst_inv, parent_inv) >= 0:
        raise InvariantNotDropped(
            f"{node.path}: invariant {worst_inv} did not drop below {parent_inv}"
        )

    if mode == "principalize":
        if all(inv.entries == (Fraction(0),) for _, inv, _ in pts):
            node.status, node.scope = "principal", "marked-points"
            return
    else:
        # smooth at every marked point on the locus, in the chart's codimension
        on_locus = {inv.entries for _, inv, _ in pts} - {(Fraction(0),)}
        if not on_locus or on_locus == {
            (Fraction(1),) * groebner.codimension(ideal, sorted(node.ambient.inverted))
        }:
            node.status, node.scope = "smooth", "marked-points"
            return

    if worst_center is None:
        raise MwbError(f"{node.path}: worst point has no center to blow up")
    if node.depth >= limit:
        raise DepthExceeded(
            f"{node.path}: no termination within {limit} blow-ups"
        )

    # rectify tier-2 contacts, then blow up the now-coordinate center
    marked = list(node.marked)
    for c in worst_center.contacts:
        if c.shift is not None:
            ideal, marked = _apply_change(ideal, marked, c)
    node.ideal = ideal
    node.marked = tuple(marked)
    node.changes = tuple(
        c for c in worst_center.contacts if c.shift is not None
    )

    cid, _root, _w = reduced_center(worst_center, node.ambient)
    b = center_to_blowup(cid, node.ambient)
    bad = center_consistency(b, cid, node.ambient)
    if bad:
        raise MwbError(
            f"{node.path}: center fails its blow-up identities: " + "; ".join(bad)
        )
    node.center = worst_center
    node.center_ideal = cid
    node.blowup = b

    weak, mult = weak_transform(b, ideal)
    node.weak, node.multiplicities = weak, mult
    child_ideal = weak
    if mode == "resolve":  # the proper transform, as blowup's docstring argues
        child_ideal = groebner.saturate_at_variables(weak, mult)

    # the charts share child_ideal's terms, so one call certifies them all
    ambients = [b.chart_ambient(chart) for chart in b.charts]
    verdicts = _certified(child_ideal, mode, [sorted(amb.inverted) for amb in ambients])
    for chart, amb, certified in zip(b.charts, ambients, verdicts):
        gens = [Polynomial._trusted(amb, g.terms) for g in child_ideal.generators]
        child = ResolutionNode(
            chart.label,
            f"{node.path}/{chart.label}",
            amb,
            PolyIdeal(amb, gens),
            node.depth + 1,
            _child_marked(node, b, chart, amb),
        )
        node.children.append(child)
        _expand(child, mode, limit, worst_inv, certified)


def _apply_change(ideal: PolyIdeal, marked: list, contact: Contact):
    """Substitute x -> x + s so the triangular contact becomes the
    coordinate x; marked points move to their new coordinates."""
    amb = ideal.ambient
    i = amb.index(contact.name)
    lift = rename(contact.shift, {}, amb)
    image = variable(amb, contact.name) + lift
    new_ideal = PolyIdeal(
        amb, [substitute_one(g, contact.name, image) for g in ideal.generators]
    )
    shifted = [q[:i] + (rational(q[i] - lift.evaluate(q)),) + q[i + 1 :] for q in marked]
    return new_ideal, shifted


def _child_marked(node, b: MultiWeightedBlowup, chart, amb: LogAmbient):
    # the chart's variables are the Cox variables: one per source variable,
    # in source order, then the exceptional ones, which the lift sets to 1
    pts = [chart_origin(amb)]
    source_names = node.ambient.names()
    ones = (1,) * (amb.n - len(source_names))
    for q in node.marked:
        cand = q + ones
        if any(cand[amb.index(v)] == 0 for v in amb.inverted):
            continue
        # the naive lift must be an actual preimage (it can fail to be one
        # when a declared-exceptional variable pulls back with an exponent)
        if all(
            b.pullback[x].evaluate(cand) == q[i]
            for i, x in enumerate(source_names)
        ):
            if cand not in pts:
                pts.append(cand)
    return tuple(pts)


# -- re-embedding -----------------------------------------------------------


def reembed_check(ideal: PolyIdeal, point=None) -> dict:
    """Append a new first coordinate x0 and compare the invariant, center,
    and restricted blow-up of (x0) + I with those of I.

    The invariant must gain a leading 1, the center a factor x0^d with the
    root unchanged, and restricting the extended center's blow-up to x0 = 0
    must reproduce the original center's blow-up chart by chart.  Off the
    locus of I, (x0) + I is the unit ideal near the point too, and both
    invariants are (0).

    transforms_ok is blowup_ok: a proper transform reads only the rays,
    weights and Cox ring that blowup_equal compares, and the source, which
    is I's ambient for both blow-ups (the restriction drops x0 from the
    extended ambient), so equal blow-ups give I equal transforms term for
    term."""
    amb = ideal.ambient
    if point is None:
        point = chart_origin(amb)
    point = tuple(rational(x) for x in point)
    inv0, c0 = invariant_at(ideal, point)

    base = "x0"
    while base in amb.names():
        base += "0"
    ext = LogAmbient(((base, ORDINARY),) + amb.variables, amb.inverted)
    lifted = [rename(g, {}, ext) for g in ideal.generators]
    extended = PolyIdeal(ext, [variable(ext, base)] + lifted)
    epoint = (0,) + point
    inv1, c1 = invariant_at(extended, epoint)
    off_locus = inv0.entries == (Fraction(0),)

    report = {
        "variable": base,
        "invariant": inv0,
        "extended_invariant": inv1,
        "invariant_ok": inv1.entries
        == (inv0.entries if off_locus else (Fraction(1),) + inv0.entries),
        "applicable": c0 is not None,
    }
    if c0 is None:
        return report

    center_ok = (
        c1 is not None
        and len(c1.contacts) == len(c0.contacts) + 1
        and c1.contacts[0].name == base
        and c1.contacts[0].shift is None
        and tuple(c.name for c in c1.contacts[1:])
        == tuple(c.name for c in c0.contacts)
        and c1.orders == (Fraction(1),) + c0.orders
        and c1.q.gens == tuple((0,) + g for g in c0.q.gens)
    )
    cid0, root0, _ = reduced_center(c0, amb)
    cid1, root1, _ = reduced_center(c1, ext)
    b0 = center_to_blowup(cid0, amb)
    br = restrict_blowup(cid1, ext)
    blowup_ok = blowup_equal(b0, br)
    report.update(
        center_ok=center_ok,
        root=root0,
        extended_root=root1,
        root_ok=root0 == root1,
        blowup_ok=blowup_ok,
        transforms_ok=blowup_ok,
        ok=report["invariant_ok"] and center_ok and root0 == root1 and blowup_ok,
    )
    return report


def blowup_equal(b1: MultiWeightedBlowup, b2: MultiWeightedBlowup) -> bool:
    """Same rays, weights, root and Cox ring; the cones, charts, pullbacks
    and grading follow from these."""

    def data(b):
        return b.fan.rays, b.weights, b.root, b.cox

    return data(b1) == data(b2)


# -- one-step certificates --------------------------------------------------


def newton_nondegenerate(f: Polynomial):
    """Whether every face restriction of f cuts a nonsingular hypersurface
    in the torus.  Returns (True, None) or (False, witness face).  When f's
    exponents are affinely independent every face passes (see
    _faces_nondegenerate), and neither the polyhedron nor its faces are
    built."""
    if f.is_zero():
        raise ZeroIdeal("the zero polynomial has no Newton polyhedron")
    if affinely_independent(f.terms):
        return True, None
    poly = newton_polyhedron(list(f.terms), f.ambient.n)
    return _faces_nondegenerate(f, poly, faces(poly))


def _support_verdict(g: Polynomial, names):
    """What g's exponents say of (g, Dg) on the chart inverting names (the
    module docstring's two lemmas): False when g has no unit term there,
    None when a variable that is not inverted is ordinary, and True when
    the second lemma applies once g's exponents are affinely independent,
    which _smooth_on_charts tests once for all its charts."""
    inverted = set(names)
    free = []
    for i, (n, flag) in enumerate(g.ambient.variables):
        if n not in inverted:
            if flag == ORDINARY:
                return None
            free.append(i)
    return any(all(e[i] == 0 for i in free) for e in g.terms)


def _smooth_on_charts(ideal: PolyIdeal, name_sets, independent=None) -> list[bool]:
    """For each set of inverted names, whether the first derivation stage
    of the principal ideal (g) saturates to the unit ideal on that chart.
    The support of g answers first: it is ranked at most once per call,
    and not at all when the caller passes its affine independence; the
    charts it leaves open go to one saturates_to_unit_on_charts call."""
    (g,) = ideal.generators
    verdicts = [_support_verdict(g, names) for names in name_sets]
    if True in verdicts and independent is None:
        independent = affinely_independent(g.terms)
    if not independent:
        verdicts = [None if v else v for v in verdicts]
    undecided = [names for names, v in zip(name_sets, verdicts) if v is None]
    if undecided:
        units = iter(groebner.saturates_to_unit_on_charts(d_leq(ideal, 1), undecided))
        verdicts = [next(units) if v is None else v for v in verdicts]
    return verdicts


def _face_label(names: list, on: int) -> str:
    """The vertices in the mask on, looked up in names, which holds the
    polyhedron's vertices as monomials, formatted once per check."""
    return ", ".join(names[k] for k in _bits(on))


def _faces_nondegenerate(f: Polynomial, poly, lattice):
    """poly is f's own Newton polyhedron and lattice its faces, so the
    generators on a face (poly.tags) are f's terms on it.  Callers test f's
    exponents for affine independence first: it passes to subsets, so when
    they are independent every face restriction passes the torus lemma and
    none needs building.  They call this only when f's exponents are
    dependent, so the face holding all of them is not ranked again."""
    amb = f.ambient
    checked = set()
    for defining, on, _, _ in lattice:
        on_face = tuple(g for g, t in zip(poly.generators, poly.tags) if t & defining == defining)
        if on_face in checked:
            continue  # faces with the same terms share one certificate
        checked.add(on_face)
        # on the torus (f_tau, x d/dx f_tau, ...) is the Jacobian ideal
        ftau = Polynomial(amb, {e: f.terms[e] for e in on_face})
        # the caller found f's own exponents dependent
        independent = False if len(on_face) == len(f.terms) else None
        chart = [amb.names()]
        if not _smooth_on_charts(PolyIdeal(amb, (ftau,)), chart, independent)[0]:
            names = [format_monomial(amb, v) for v in poly.vertices]
            return False, f"face spanned by {_face_label(names, on)}"
    return True, None


def one_step_check(f: Polynomial) -> dict:
    """Certify that blowing up the term ideal of a Newton-nondegenerate f on
    a fully monomial ambient resolves it in one step: the first derivation
    stage of the weak transform is a unit on every chart, and on each
    exceptional orbit the weak transform restricts to the matching face of f.

    Each object is built once.  f's Newton polyhedron is that of its term
    ideal, so its face lattice, f's terms on each face and the fan of the
    blow-up all come from it.  The nondegeneracy witness search and the
    orbit check share one list of face rows (faces).  The support of the
    weak transform settles most chart questions (_smooth_on_charts); the
    rest go to one groebner.saturates_to_unit_on_charts call, which builds
    at most one basis of the first derivation stage.  That support is f's
    under the injective map e -> B e - shift (B's standard rows are
    w_i e_i), which keeps affine independence, so f is ranked once.
    report["faces"] is keyed by a face's vertices, which faces can share;
    each label holds the AND of the checks of its faces, so "resolved"
    covers every face, and is formatted once per vertex set.

    The orbit check is computed, not assumed.  In theory a term of the weak
    transform survives on a face's orbit iff its generator is tight on
    every defining facet, the tag test that picks f's terms on the face,
    so the check could be read off the tags.  Computing it instead
    compares what weak_transform built, over the fan _assemble built, with
    f's terms on each face: a fault in either, or a fan that lost the
    facet order, fails the check.  Each term of the weak transform is tagged once per
    check (_orbit_terms), and each face's restriction is a scan of tags.
    """
    amb = f.ambient
    if any(flag != MONOMIAL for _, flag in amb.variables):
        raise MwbError("one-step resolution lives on a fully monomial ambient")
    if f.is_zero():
        raise ZeroIdeal("the zero polynomial")
    zero = (0,) * amb.n
    if zero in f.terms:
        raise MwbError("f must vanish at the origin")
    for i, (name, _) in enumerate(amb.variables):
        if all(e[i] > 0 for e in f.terms):
            raise MwbError(f"{name} divides f")

    poly = newton_polyhedron(list(f.terms), amb.n)
    lattice = faces(poly)
    independent = affinely_independent(f.terms)
    if independent:
        nd, witness = True, None
    else:
        nd, witness = _faces_nondegenerate(f, poly, lattice)
    report = {"nondegenerate": nd, "witness": witness}
    if not nd:
        report["resolved"] = False
        return report

    ideal = PolyIdeal(amb, (f,))
    fan = normal_fan(poly)
    b = _assemble(amb, monomial_saturation(ideal), fan, [1] * len(fan.rays), None)
    weak, mult = weak_transform(b, ideal)
    fm = weak.generators[0]
    report["blowup"] = b
    report["multiplicities"] = mult
    report["weak"] = fm

    smooth = _smooth_on_charts(weak, [c.inverted for c in b.charts], independent)
    charts = {c.label: ok for c, ok in zip(b.charts, smooth)}
    report["charts"] = charts

    # each term of f as (tag, exponent on the Cox ring, coefficient);
    # rename keeps the term order
    on_cox = dict(zip(f.terms, rename(f, b.name_map, b.cox).terms))
    terms = [(t, on_cox[g], f.terms[g]) for g, t in zip(poly.generators, poly.tags)]
    tagged = _orbit_terms(fm, b)
    orbit = {}  # vertex mask -> the AND of the checks of its faces
    for defining, on, _, _ in lattice:
        ftau = {e: c for t, e, c in terms if t & defining == defining}
        ok = _orbit_restriction(tagged, defining) == ftau
        orbit[on] = orbit.get(on, True) and ok
    names = [format_monomial(amb, v) for v in poly.vertices]
    report["faces"] = {_face_label(names, on): ok for on, ok in orbit.items()}
    report["resolved"] = all(charts.values()) and all(orbit.values())
    return report


def _orbit_terms(fm: Polynomial, b: MultiWeightedBlowup) -> list:
    """Each term of fm on the Cox ring as (zero, image, c): zero is the
    bitmask of the rays where its exponent is 0, image the exponent with
    every exceptional coordinate set to 0.  The fan keeps the facet order
    and ray_vars is the Cox order, so facet j is ray j and its variable is
    exponent j."""
    exceptional = set(b.fan.exceptional())
    out = []
    for e, c in fm.terms.items():
        zero = sum(1 << i for i, k in enumerate(e) if not k)
        image = tuple(0 if i in exceptional else k for i, k in enumerate(e))
        out.append((zero, image, c))
    return out


def _orbit_restriction(tagged: list, defining: int) -> dict:
    """The terms of fm on the exceptional orbit of a face, from fm's
    _orbit_terms and the bitmask of the face's defining facets: the Cox
    variable of a ray in defining goes to 0, that of any other exceptional
    ray to 1, and a standard ray's variable stays.  Such a map sends each
    term to one term or to zero: a term survives iff its exponent is 0 on
    every defining ray, and then it goes to its image."""
    out: dict = {}
    for zero, e, c in tagged:
        if zero & defining == defining:
            if nc := out.get(e, 0) + c:
                out[e] = nc
            else:
                del out[e]
    return out

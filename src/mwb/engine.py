"""Resolution and principalization trees, plus one-step certificates.

A tree node is a chart: an ambient with its inversions, the transformed
ideal, and the marked points being tracked (the chart origin plus valid
lifts of the parent's marked points).  Expanding a node either certifies it
terminal or blows up the center attached to the worst marked point and
recurses into the charts.

Terminal tests come in two honesty scopes.  "chart" means a point-free
certificate on the whole chart: for a hypersurface, the first derivation
stage saturated at the chart's inverted variables is the unit ideal; for
principalization, the ideal itself saturates to the unit ideal.  When only
the marked points can be certified (smooth there, or the ideal does not
vanish there), the leaf is honest about it with scope "marked-points".

Every produced center is re-checked against the blow-up it induces
(center_consistency), and a child whose worst invariant fails to drop
strictly below the parent's raises InvariantNotDropped rather than
recursing forever; MWB_DEPTH_LIMIT (default 16) caps the tree height.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import groebner
from .blowup import (
    CenterIdeal,
    MultiWeightedBlowup,
    build_blowup,
    center_consistency,
    center_to_blowup,
    proper_transform,
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
    rename,
    substitute,
    variable,
)
from .polyhedra import dot, faces, newton_polyhedron


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
    return tuple(
        Fraction(1) if n in ambient.inverted else Fraction(0)
        for n in ambient.names()
    )


# -- the tree ---------------------------------------------------------------


@dataclass
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
    multiplicities: dict | None = None
    status: str | None = None
    scope: str | None = None
    children: list = field(default_factory=list)

    def is_leaf(self) -> bool:
        return self.status is not None


@dataclass
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
    limit: int | None = None,
    marks: tuple = (),
) -> ResolutionTree:
    if mode not in ("resolve", "principalize"):
        raise MwbError(f"unknown mode {mode!r}")
    if mode == "principalize" and ideal.is_zero():
        raise ZeroIdeal("the zero ideal cannot become the unit ideal")
    if limit is None:
        limit = depth_limit()
    amb = ideal.ambient
    marked = [chart_origin(amb)]
    for p in marks:
        if len(p) != amb.n:
            raise MwbError(
                f"marked point has {len(p)} coordinates, the ambient has {amb.n}"
            )
        if p not in marked:
            marked.append(tuple(Fraction(x) for x in p))
    root = ResolutionNode("root", "root", amb, ideal, 0, tuple(marked))
    _expand(root, mode, limit, None)
    return ResolutionTree(mode, root)


def principalize(ideal: PolyIdeal, limit: int | None = None) -> ResolutionTree:
    return resolve(ideal, "principalize", limit)


def _expand(node: ResolutionNode, mode: str, limit: int, parent_inv):
    ideal = node.ideal
    inverted = sorted(node.ambient.inverted)

    # chart-scope certificates first: point-free when they hold
    if mode == "principalize":
        if groebner.saturates_to_unit(ideal, inverted):
            node.status, node.scope = "principal", "chart"
            return
    else:
        if ideal.is_zero():
            node.status, node.scope = "smooth", "chart"
            return
        if len(ideal.generators) == 1 and groebner.saturates_to_unit(
            d_leq(ideal, 1), inverted
        ):
            node.status, node.scope = "smooth", "chart"
            return

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
            (Fraction(1),) * groebner.codimension(ideal, inverted)
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
    node.multiplicities = mult
    child_ideal = proper_transform(b, ideal) if mode == "resolve" else weak

    for chart in b.charts:
        amb = b.chart_ambient(chart)
        gens = [Polynomial(amb, g.terms) for g in child_ideal.generators]
        label = "".join(chart.inverted)
        child = ResolutionNode(
            label,
            f"{node.path}/{label}",
            amb,
            PolyIdeal(amb, gens),
            node.depth + 1,
            _child_marked(node, b, chart, amb),
        )
        node.children.append(child)
        _expand(child, mode, limit, worst_inv)


def _apply_change(ideal: PolyIdeal, marked: list, contact: Contact):
    """Substitute x -> x + s so the triangular contact becomes the
    coordinate x; marked points move to their new coordinates."""
    amb = ideal.ambient
    i = amb.index(contact.name)
    lift = rename(
        contact.shift, {n: n for n in contact.shift.ambient.names()}, amb
    )
    images = {n: variable(amb, n) for n in amb.names()}
    images[contact.name] = variable(amb, contact.name) + lift
    new_ideal = PolyIdeal(
        amb, [substitute(g, images, amb) for g in ideal.generators]
    )
    shifted = []
    for q in marked:
        sval = contact.shift.evaluate(
            tuple(
                q[amb.index(n)] for n in contact.shift.ambient.names()
            )
        )
        shifted.append(q[:i] + (q[i] - sval,) + q[i + 1 :])
    return new_ideal, shifted


def _child_marked(node, b: MultiWeightedBlowup, chart, amb: LogAmbient):
    pts = [chart_origin(amb)]
    source_names = node.ambient.names()
    exc = set(b.exceptional_vars())
    for q in node.marked:
        values = {}
        for name in amb.names():
            values[name] = Fraction(1) if name in exc else None
        for i, x in enumerate(source_names):
            values[b.name_map[x]] = q[i]
        cand = tuple(values[n] for n in amb.names())
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
    must reproduce the original center's blow-up chart by chart."""
    amb = ideal.ambient
    if point is None:
        point = chart_origin(amb)
    point = tuple(Fraction(x) for x in point)
    inv0, c0 = invariant_at(ideal, point)

    base = "x0"
    while base in amb.names():
        base += "0"
    ext = LogAmbient(((base, ORDINARY),) + amb.variables, amb.inverted)
    lifted = [
        rename(g, {n: n for n in amb.names()}, ext) for g in ideal.generators
    ]
    extended = PolyIdeal(ext, [variable(ext, base)] + lifted)
    epoint = (Fraction(0),) + point
    inv1, c1 = invariant_at(extended, epoint)

    report = {
        "variable": base,
        "invariant": inv0,
        "extended_invariant": inv1,
        "invariant_ok": inv1.entries == (Fraction(1),) + inv0.entries,
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
    transforms_ok = blowup_ok and groebner.ideal_equal(
        proper_transform(b0, ideal), proper_transform(br, ideal)
    )
    report.update(
        center_ok=center_ok,
        root=root0,
        extended_root=root1,
        root_ok=root0 == root1,
        blowup_ok=blowup_ok,
        transforms_ok=transforms_ok,
        ok=report["invariant_ok"]
        and center_ok
        and root0 == root1
        and blowup_ok
        and transforms_ok,
    )
    return report


def blowup_equal(b1: MultiWeightedBlowup, b2: MultiWeightedBlowup) -> bool:
    def data(b):
        return (
            tuple((r.direction, r.level, r.standard) for r in b.fan.rays),
            b.weights,
            b.root,
            b.cox.variables,
            b.cox.inverted,
            b.ray_vars,
            {k: tuple(sorted(v.terms.items())) for k, v in b.pullback.items()},
            b.irrelevant,
        )

    return data(b1) == data(b2)


# -- one-step certificates --------------------------------------------------


def newton_nondegenerate(f: Polynomial):
    """Whether every face restriction of f cuts a nonsingular hypersurface
    in the torus.  Returns (True, None) or (False, witness face)."""
    if f.is_zero():
        raise ZeroIdeal("the zero polynomial has no Newton polyhedron")
    poly = newton_polyhedron(list(f.terms), f.ambient.n)
    return _faces_nondegenerate(f, poly, faces(poly))


def _face_terms(f: Polynomial, poly, face) -> tuple:
    """The exponents of f on a face of its Newton polyhedron, in f's order."""
    return tuple(
        e
        for e in f.terms
        if all(
            dot(poly.facets[k].normal, e) == poly.facets[k].level
            for k in face.defining
        )
    )


def _faces_nondegenerate(f: Polynomial, poly, face_list):
    amb = f.ambient
    checked = set()
    for face in face_list:
        active = _face_terms(f, poly, face)
        if active in checked:
            continue  # faces with the same terms share one certificate
        checked.add(active)
        # on the torus (f_tau, x d/dx f_tau, ...) is the Jacobian ideal
        ftau = Polynomial(amb, {e: f.terms[e] for e in active})
        if not groebner.saturates_to_unit(
            d_leq(PolyIdeal(amb, (ftau,)), 1), amb.names()
        ):
            label = ", ".join(format_monomial(amb, v) for v in face.vertices)
            return False, f"face spanned by {label}"
    return True, None


def one_step_check(f: Polynomial) -> dict:
    """Certify that blowing up the term ideal of a Newton-nondegenerate f on
    a fully monomial ambient resolves it in one step: the first derivation
    stage of the weak transform is a unit on every chart, and on each
    exceptional orbit the weak transform restricts to the matching face of f.
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

    # f's Newton polyhedron is that of its term ideal: the orbit check
    # below reuses it and its faces
    poly = newton_polyhedron(list(f.terms), amb.n)
    face_list = faces(poly)
    nd, witness = _faces_nondegenerate(f, poly, face_list)
    report = {"nondegenerate": nd, "witness": witness}
    if not nd:
        report["resolved"] = False
        return report

    ideal = PolyIdeal(amb, (f,))
    term_ideal = monomial_saturation(ideal)
    b = build_blowup(term_ideal, amb)
    weak, mult = weak_transform(b, ideal)
    fm = weak.generators[0]
    report["blowup"] = b
    report["multiplicities"] = mult
    report["weak"] = fm

    dl = d_leq(weak, 1)
    charts = {}
    for chart in b.charts:
        charts["".join(chart.inverted)] = groebner.saturates_to_unit(
            dl, chart.inverted
        )
    report["charts"] = charts

    orbit = {}
    for face in face_list:
        defining = {poly.facets[k].normal for k in face.defining}
        restricted = _orbit_restriction(fm, b, defining)
        ftau = Polynomial(amb, {e: f.terms[e] for e in _face_terms(f, poly, face)})
        primed = rename(ftau, b.name_map, b.cox)
        label = ", ".join(format_monomial(amb, v) for v in face.vertices)
        orbit[label] = restricted == primed
    report["faces"] = orbit
    report["resolved"] = all(charts.values()) and all(orbit.values())
    return report


def _orbit_restriction(fm: Polynomial, b: MultiWeightedBlowup, defining) -> Polynomial:
    """fm on the exceptional orbit of a face: the Cox variable of a ray in
    defining goes to 0, that of any other exceptional ray to 1, and a
    standard ray's variable stays.  Such a map sends each term to one term
    or to zero, so it is read off the exponents."""
    zero, one = set(), set()
    for j, ray in enumerate(b.fan.rays):
        if ray.direction in defining:
            zero.add(b.cox.index(b.ray_vars[j]))
        elif not ray.standard:
            one.add(b.cox.index(b.ray_vars[j]))
    out: dict = {}
    for e, c in fm.terms.items():
        if any(e[i] for i in zero):
            continue
        e = tuple(0 if i in one else k for i, k in enumerate(e))
        nc = out.get(e, 0) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return Polynomial._trusted(b.cox, out)

"""Multi-weighted blow-ups of monomial ideals and transforms of ideals.

The blow-up of a monomial ideal a (with a positive integer weight on each
exceptional ray, all 1 by default) is presented through its Cox data:

  * rays of the normal fan of P_a, standard rays first;
  * one Cox variable per ray: the proper transform x' of each coordinate
    (renamed with a prime exactly when its pullback is nontrivial) and a
    fresh exceptional variable per exceptional ray;
  * the pullback x_i -> prod_rho var_rho^{w_rho * u_rho[i]}, the grading of
    the Cox variables by Z^(exceptional rays), and one chart per maximal
    cone with irrelevant monomial prod of the variables of rays not in the
    cone.

Rays whose facet level is positive form E+; they all acquire exceptional
multiplicities under transforms, including "declared exceptional" standard
rays (levels N_i > 0 happen exactly when a sits inside (x_i)).  The weak
transform divides the total transform by the E+ multiplicities of the term
ideal; the proper transform saturates them away.

The proper transform is computed from the weak transform: it is
weak : (prod_{E+} X_rho)^inf, with the same output as the definition,
total : (prod_{E+} X_rho)^inf.  As ideals, total = X^mult * weak, and
X^mult is a monomial in the E+ variables only, exactly the ones saturated.
In a UFD, (u J) : x^inf = u' (J : x^inf) for a monomial u, u' being u
with x removed: x is prime, and the other variables of u are prime and
coprime to x.  Saturating at every E+ variable in turn removes all of
X^mult, so the final saturations are equal ideals.  Each output is unique
for its ideal (a monic principal generator, or the reduced basis of the
elimination ideal), so the bytes are unchanged too.

Transforms are exponent maps: every pullback is one monomial with
coefficient 1, so c x^e goes to c X^(B e), row rho of B being beta_rows[rho]
for the rho-th Cox variable.  e -> B e is injective, since the standard rows
are w_i e_i with w_i >= 1: no terms merge, and coefficients and term order
carry over.  The multiplicity on rho is the least (B e)_rho over the terms
(for u_rho >= 0 that is w_rho N_rho of the term ideal, with no Newton
polyhedron built); the weak transform subtracts it in the same pass.

Root data: a fractional ideal a^{1/l} is blown up with the ray weights
w_rho = l / gcd(l, N_rho) (gcd(l, 0) read as l), which depends only on the
equivalence class of a^{1/l} under (a, l) ~ (closure(a^c), c*l).  Centers
combine coordinate powers with a monomial part and use the same rule.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import mul, sub

from .errors import EmptyCenter, HypothesisViolated, MwbError, ZeroIdeal
from .monomials import MonomialIdeal, minimalize, monomial_ideal, newton
from .poly import EXCEPTIONAL, ORDINARY, LogAmbient, PolyIdeal, Polynomial
from .polyhedra import NormalFan, Vec, normal_fan
from .record import record
from . import groebner

# -- fractional ideals ------------------------------------------------------


@record(frozen=True)
class FractionalIdeal:
    """A formal root a^{1/root} of a monomial ideal."""

    base: MonomialIdeal
    root: int

    def __post_init__(self):
        if self.root < 1:
            raise MwbError(f"root {self.root} must be positive")
        if self.base.is_zero():
            raise ZeroIdeal("fractional power of the zero ideal")

    def canonical(self) -> tuple[tuple[Vec, ...], int]:
        """Vertices of the Newton polyhedron and the root, divided by their
        common gcd.  Two fractional ideals generate the same Rees algebra
        iff their canonical forms agree, closure passing included; no
        closure generators are ever enumerated."""
        verts = newton(self.base).vertices
        g = self.root
        for v in verts:
            for x in v:
                g = gcd(g, x)
        return tuple(tuple(x // g for x in v) for v in verts), self.root // g


def equivalent(f1: FractionalIdeal, f2: FractionalIdeal) -> bool:
    """Pins that a^{1/l} and closure(a^c)^{1/(c l)} give the same blow-up."""
    return f1.canonical() == f2.canonical()


# -- centers ----------------------------------------------------------------


@record(frozen=True)
class CenterIdeal:
    """j = (x_1^{e_1}, ..., x_k^{e_k}) + a with Rees root lcm(e_i).

    ordinary: (variable name, positive exponent e_i) pairs;
    monomial: the monomial part, exponent vectors at full ambient arity;
    root: the Rees root l (1 when there is no ordinary part)."""

    ordinary: tuple[tuple[str, int], ...]
    monomial: MonomialIdeal
    root: int


def make_center(ordinary, monomial: MonomialIdeal, root: int | None = None) -> CenterIdeal:
    ordinary = tuple((str(n), int(e)) for n, e in ordinary)
    for n, e in ordinary:
        if e < 1:
            raise MwbError(f"center exponent {e} on {n} must be positive")
    if root is None:
        root = lcm(*[e for _, e in ordinary]) if ordinary else 1
    if not ordinary and monomial.is_zero():
        raise EmptyCenter("center with no ordinary part and zero monomial part")
    return CenterIdeal(ordinary, monomial, root)


def assemble_center(c: CenterIdeal, ambient: LogAmbient) -> MonomialIdeal:
    """The plain monomial ideal j behind the center."""
    n = ambient.n
    if c.monomial.dim != n:
        raise MwbError("center monomial part has the wrong arity")
    gens = []
    for name, e in c.ordinary:
        v = [0] * n
        v[ambient.index(name)] = e
        gens.append(tuple(v))
    gens.extend(c.monomial.gens)
    if not gens:
        raise EmptyCenter("center assembles to the zero ideal")
    return MonomialIdeal(n, minimalize(gens))


# -- the blow-up record -----------------------------------------------------


@record(frozen=True)
class Chart:
    """One chart per maximal cone: its vertex and the chart's irrelevant
    (inverted) variables, i.e. the variables of the rays not in the cone."""

    vertex: Vec
    inverted: tuple[str, ...]

    @property
    def label(self) -> str:
        """The inverted names, or 1, the empty product, if there are none."""
        return "".join(self.inverted) or "1"


@record(frozen=True)
class MultiWeightedBlowup:
    """The Cox data of a blow-up.  The fan lists the n standard rays first,
    in coordinate order, then the exceptional ones, and the Cox variables
    follow the same order, so ray j's variable is the j-th; the other views
    are derived from these fields."""

    source: LogAmbient
    ideal: MonomialIdeal
    fan: NormalFan
    weights: tuple[int, ...]  # per ray, fan order
    root: int | None  # Rees root when built from one
    cox: LogAmbient
    beta_rows: tuple[Vec, ...]  # w_rho * u_rho per ray
    charts: tuple[Chart, ...]

    @property
    def ray_vars(self) -> tuple[str, ...]:
        """Cox variable per ray."""
        return self.cox.names()

    @property
    def name_map(self) -> dict:
        """Source variable -> Cox variable."""
        return dict(zip(self.source.names(), self.cox.names()))

    @cached_property
    def pullback(self) -> dict:
        """Source variable -> Polynomial over cox: x_i goes to
        prod_rho var_rho^(w_rho u_rho[i]), whose exponent is column i of
        beta_rows."""
        return {
            name: Polynomial._trusted(self.cox, {column: 1})
            for name, column in zip(self.source.names(), zip(*self.beta_rows))
        }

    @property
    def grading(self) -> dict:
        """Cox variable -> its degree, a tuple over the exceptional rays."""
        exc = self.fan.exceptional()
        names = self.ray_vars
        out = {
            names[i]: tuple(self.beta_rows[j][i] for j in exc)
            for i in range(self.source.n)
        }
        for pos, j in enumerate(exc):
            out[names[j]] = tuple(-1 if q == pos else 0 for q in range(len(exc)))
        return out

    @property
    def irrelevant(self) -> tuple[tuple[str, ...], ...]:
        return tuple(chart.inverted for chart in self.charts)

    def eplus(self) -> list[int]:
        return self.fan.positive_level()

    def chart_ambient(self, chart: Chart) -> LogAmbient:
        return self.cox.with_inverted(chart.inverted)


_FRESH_LETTERS = "uvwstEabcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _fresh_names(source: LogAmbient, count: int) -> list[str]:
    """count names for exceptional variables: one letter that is no source
    variable's initial, numbered when count > 1, so no name is taken."""
    taken_initials = {n[0] for n in source.names()}
    letter = next((c for c in _FRESH_LETTERS if c not in taken_initials), None)
    if letter is None:
        raise MwbError("every letter is the initial of a source variable")
    if count == 1:
        return [letter]
    return [f"{letter}{i + 1}" for i in range(count)]


def _assemble(
    ambient: LogAmbient,
    ideal: MonomialIdeal,
    fan: NormalFan,
    weights: list[int],
    root: int | None,
) -> MultiWeightedBlowup:
    exc = fan.exceptional()
    beta_rows = tuple(
        tuple([w * x for x in r.direction]) for w, r in zip(weights, fan.rays)
    )

    # Cox variables: prime a source name iff its pullback is nontrivial.
    # Column i of beta_rows is w_i e_i plus the exceptional rays' entries,
    # all >= 0, so x_i pulls back to its own variable alone iff it sums to 1.
    # A primed name gains one more ' while another Cox variable holds it: a
    # source name kept as is, or a name primed before it.  Exceptional names
    # start with no source initial, so they hold none of these
    primed = [sum(column) > 1 for column in zip(*beta_rows)]
    taken = {name for name, p in zip(ambient.names(), primed) if not p}
    cox_vars = []
    for (name, flag), p in zip(ambient.variables, primed):
        if p:
            name += "'"
            while name in taken:
                name += "'"
            taken.add(name)
        cox_vars.append((name, flag))
    cox_vars += [(name, EXCEPTIONAL) for name in _fresh_names(ambient, len(exc))]
    carried = {cox_vars[ambient.index(v)][0] for v in ambient.inverted}
    cox = LogAmbient(cox_vars, carried)
    ray_vars = cox.names()

    # every facet inequality holds on P, so the rays not tight at the
    # vertex, the ones not in its cone, are those with dot > level
    charts = []
    for cone in fan.maximal_cones:
        inverted = tuple([v for j, v in enumerate(ray_vars) if j not in cone.rays])
        charts.append(Chart(cone.vertex, inverted))

    return MultiWeightedBlowup(
        source=ambient,
        ideal=ideal,
        fan=fan,
        weights=tuple(weights),
        root=root,
        cox=cox,
        beta_rows=beta_rows,
        charts=tuple(charts),
    )


def build_blowup(
    ideal: MonomialIdeal, ambient: LogAmbient, weights: dict | None = None
) -> MultiWeightedBlowup:
    """Blow-up with weight 1 on every ray unless overridden; overrides are
    keyed by exceptional ray direction."""
    if ideal.is_zero():
        raise ZeroIdeal("blow-up of the zero ideal")
    if ideal.dim != ambient.n:
        raise MwbError("ideal arity does not match the ambient")
    fan = normal_fan(newton(ideal))
    w = [1] * len(fan.rays)
    if weights:
        bydir = {fan.rays[j].direction: j for j in fan.exceptional()}
        for direction, b in weights.items():
            direction = tuple(int(x) for x in direction)
            if direction not in bydir:
                raise MwbError(f"{direction} is not an exceptional ray")
            if int(b) < 1:
                raise MwbError(f"weight {b} on {direction} must be positive")
            w[bydir[direction]] = int(b)
    return _assemble(ambient, ideal, fan, w, None)


def rees_weights(fan: NormalFan, root: int) -> list[int]:
    # gcd(root, 0) is root, so zero-level rays get weight 1
    return [root // gcd(root, r.level) for r in fan.rays]


def rees_blowup(frac: FractionalIdeal, ambient: LogAmbient) -> MultiWeightedBlowup:
    """Blow-up of a^{1/l}: ray weights l/gcd(l, N_rho) on every ray.

    Depends only on the canonical form of a^{1/l}: replacing (a, l) by
    (closure(a^c), c*l) scales every level by c and leaves the weights and
    the fan unchanged."""
    if frac.base.dim != ambient.n:
        raise MwbError("ideal arity does not match the ambient")
    fan = normal_fan(newton(frac.base))
    return _assemble(
        ambient, frac.base, fan, rees_weights(fan, frac.root), frac.root
    )


def center_to_blowup(c: CenterIdeal, ambient: LogAmbient) -> MultiWeightedBlowup:
    j = assemble_center(c, ambient)
    return rees_blowup(FractionalIdeal(j, c.root), ambient)


def restrict_blowup(c: CenterIdeal, ambient: LogAmbient) -> MultiWeightedBlowup:
    """Blow-up of the center restricted to the vanishing of its first
    ordinary element, on the smaller ambient.

    Needs e_1 | lcm(e_2, ..., e_k) (the lcm of nothing being 1); otherwise
    the restricted root would change the Rees algebra and we refuse."""
    if not c.ordinary:
        raise MwbError("restriction needs an ordinary center element")
    (name, e1), rest = c.ordinary[0], c.ordinary[1:]
    rest_root = lcm(*[e for _, e in rest]) if rest else 1
    if rest_root % e1 != 0:
        raise HypothesisViolated(
            f"first exponent {e1} does not divide lcm of the rest ({rest_root})"
        )
    i = ambient.index(name)
    for g in c.monomial.gens:
        if g[i]:
            raise MwbError(
                f"monomial part of the center involves the dropped variable {name}"
            )
    sub = ambient.drop(name)
    mono = monomial_ideal(
        [g[:i] + g[i + 1 :] for g in c.monomial.gens], c.monomial.dim - 1
    )
    restricted = make_center(rest, mono, rest_root)
    return center_to_blowup(restricted, sub)


# -- transforms -------------------------------------------------------------


def _cox_terms(b: MultiWeightedBlowup, ideal: PolyIdeal) -> list[list]:
    """Each generator's terms c x^e as (B e, c) pairs, in term order, B the
    matrix of beta_rows."""
    rows = b.beta_rows
    return [
        [(tuple([sum(map(mul, r, e)) for r in rows]), c) for e, c in g.terms.items()]
        for g in ideal.generators
    ]


def _column_minima(b: MultiWeightedBlowup, images: list[list]) -> dict:
    """Positive-level ray index -> the least (B e)_rho over the terms."""
    columns = list(zip(*[e for terms in images for e, _ in terms]))
    return {j: min(columns[j]) for j in b.eplus()}


def total_transform(b: MultiWeightedBlowup, ideal: PolyIdeal) -> PolyIdeal:
    """Every term c x^e sent to c X^(B e)."""
    if ideal.ambient.variables != b.source.variables:
        raise MwbError("ideal does not live on the blow-up's source")
    cox = b.cox
    return PolyIdeal(
        cox, [Polynomial._trusted(cox, dict(terms)) for terms in _cox_terms(b, ideal)]
    )


def exceptional_multiplicities(b: MultiWeightedBlowup, ideal: PolyIdeal) -> dict:
    """w_rho * min over terms of <u_rho, e> on every positive-level ray: the
    exceptional multiplicities of the total transform, read off the column
    minima of B e (see weak_transform)."""
    if ideal.is_zero():
        raise ZeroIdeal("multiplicities of the zero ideal")
    if ideal.ambient.variables != b.source.variables:
        raise MwbError("polynomial does not live on the blow-up's source")
    names = b.ray_vars
    return {names[j]: k for j, k in _column_minima(b, _cox_terms(b, ideal)).items()}


def weak_transform(
    b: MultiWeightedBlowup, ideal: PolyIdeal
) -> tuple[PolyIdeal, dict]:
    """Total transform divided by the exceptional multiplicities of the term
    ideal.  Returns (transform, multiplicities keyed by Cox variable).

    One pass: every term c x^e goes to c X^(B e) once, and the multiplicity
    on a positive-level ray rho is the least entry of column rho over those
    images, which the pass then subtracts.  That minimum is w_rho N_rho,
    N_rho the support of the term ideal's Newton polyhedron P along u_rho:
    (B e)_rho = w_rho u_rho . e, and u_rho >= 0, so u_rho . a is least over
    P = conv(terms) + R^n_{>=0} at one of the terms, and no polyhedron is
    built."""
    if ideal.is_zero():
        raise ZeroIdeal("weak transform of the zero ideal")
    if ideal.ambient.variables != b.source.variables:
        raise MwbError("polynomial does not live on the blow-up's source")
    images = _cox_terms(b, ideal)
    low = _column_minima(b, images)
    names = b.ray_vars
    shift = [low.get(j, 0) for j in range(len(names))]
    cox = b.cox
    gens = [
        Polynomial._trusted(cox, {tuple(map(sub, e, shift)): c for e, c in terms})
        for terms in images
    ]
    return PolyIdeal(cox, gens), {names[j]: k for j, k in low.items()}


def proper_transform(b: MultiWeightedBlowup, ideal: PolyIdeal) -> PolyIdeal:
    """Total transform saturated at every positive-level ray variable,
    computed as the weak transform saturated there (see the module
    docstring); the zero ideal maps to the zero ideal."""
    if ideal.is_zero():
        return total_transform(b, ideal)
    weak, mult = weak_transform(b, ideal)
    return groebner.saturate_at_variables(weak, mult)


# -- root bookkeeping -------------------------------------------------------


def factored_morphism(b: MultiWeightedBlowup) -> dict:
    """Pins the two-stage description of a root-l blow-up: the pullback of
    the coordinates plus the image of t^{-1}, the product over positive-level
    rays of var_rho^{N_rho / gcd(l, N_rho)}."""
    if b.root is None:
        raise MwbError("factored morphism needs a Rees root")
    t_inv = {}
    for j in b.eplus():
        g = gcd(b.root, b.fan.rays[j].level)
        t_inv[b.ray_vars[j]] = b.fan.rays[j].level // g
    return {"pullback": dict(b.pullback), "t_inverse": t_inv}


def canonical_stack_rays(ideal: MonomialIdeal, root: int) -> frozenset:
    """Pins the stack-theoretic fan of a root-l blow-up, rays in Z^(n+1):
    the coordinate rays (padded by 0) plus ((l/g) u_rho, N_rho/g) for each
    positive-level ray, g = gcd(l, N_rho)."""
    fan = normal_fan(newton(ideal))
    n = ideal.dim
    out = set()
    for i in range(n):
        out.add(tuple(1 if j == i else 0 for j in range(n)) + (0,))
    for j in fan.positive_level():
        r = fan.rays[j]
        g = gcd(root, r.level)
        out.add(tuple((root // g) * x for x in r.direction) + (r.level // g,))
    return frozenset(out)


# -- consistency checks -----------------------------------------------------


def center_consistency(b: MultiWeightedBlowup, c: CenterIdeal, ambient: LogAmbient) -> list[str]:
    """Structural identities of a center blow-up; returns violations.

    For a center with ordinary part: every exceptional ray level is divisible
    by the root, the level equals e_i * u_rho[i] on each ordinary center
    variable, and u_rho[i] = 0 on ordinary non-center variables.  With a
    nonzero monomial part, every positive-level ray is exceptional."""
    bad = []
    exc = b.fan.exceptional()
    center_idx = {ambient.index(n): e for n, e in c.ordinary}
    for j in exc:
        r = b.fan.rays[j]
        if c.ordinary:
            if r.level % c.root:
                bad.append(f"root {c.root} does not divide level {r.level} of {r.direction}")
            for i, e in center_idx.items():
                if e * r.direction[i] != r.level:
                    bad.append(
                        f"ray {r.direction}: {e} * u[{i}] != level {r.level}"
                    )
        for i, (name, flag) in enumerate(ambient.variables):
            if flag == ORDINARY and i not in center_idx and r.direction[i]:
                bad.append(f"ray {r.direction} meets ordinary non-center {name}")
    if c.ordinary and not c.monomial.is_zero():
        if sorted(b.eplus()) != sorted(exc):
            bad.append("positive-level rays differ from exceptional rays")
    return bad

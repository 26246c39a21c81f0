"""Command line front end.

Polynomials are written in a small expression language: integer or p/q
coefficients, variables with optional ^exponent, parentheses, + - and
multiplication (explicit * or juxtaposition with whitespace).  Ideals are
comma-separated expression lists.  Ambients are declared with --ordinary
and --monomial (ordinary variables first); `newton` can instead infer
variables from the generators in order of first appearance.

Option values are typed by argparse: names for --ordinary and --monomial,
tuples of Fractions for --point and --mark, a direction -> weight map for
--weights, an int for --rees.  So exit codes follow one rule: 0 on
success; 2 on a usage error, a value that does not parse included (argparse
names the option on stderr); 1 on a domain error, reported as an `error:`
line on stderr.  A value that parses but does not fit, such as a point
with the wrong number of coordinates, a root of 0 or a weight on a
direction that is no exceptional ray, is a domain error: the library
checks it, and the CLI does not check it again.  An integer literal longer
than LITERAL_DIGITS, or an input whose coefficients pass poly.COEFF_BITS, is
a domain error too, so every coefficient that parses can be printed.
When stdout closes before the report is written (a pipe into `head`), the
exit code is CLOSED_OUTPUT, 141, with no traceback and no `error:` line.

Each cmd_* handler returns one Report: it adds each fact once, as JSON fields
and the text lines that show them, and main prints the lines or dumps the
fields.  A blow-up and a resolution tree are each walked once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import engine, invariant as inv_mod
from .blowup import (
    FractionalIdeal,
    MultiWeightedBlowup,
    assemble_center,
    build_blowup,
    rees_blowup,
    total_transform,
    weak_transform,
)
from .errors import MwbError
from .groebner import saturate_at_variables
from .monomials import MonomialIdeal, minimalize
from .poly import (
    COEFF_BITS,
    MONOMIAL,
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    coefficient_bits,
    format_monomial,
    format_polynomial,
    monomial_saturation,
)
from .polyhedra import newton_polyhedron
from .record import field, record

# -- expression parsing -----------------------------------------------------

_NAME = r"[A-Za-z][A-Za-z0-9_]*'*"
_TOKEN = re.compile(
    r"\s*(?:(?P<frac>\d+/\d+)|(?P<int>\d+)"
    rf"|(?P<name>{_NAME})"
    r"|(?P<op>[-+*^(),]))"
)
# A literal of d digits is below 10**d < 2**(10 d / 3), so this many digits
# keep every literal within the coefficient budget, and int() within
# Python's 4300-digit conversion limit.
LITERAL_DIGITS = COEFF_BITS * 3 // 10
# What main returns when stdout closes early: the status a shell reports
# for a writer that SIGPIPE ends, 128 + 13.
CLOSED_OUTPUT = 141


def tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise MwbError(f"cannot read {rest[:20]!r}")
        pos = m.end()
        kind, val = m.lastgroup, m.group(m.lastgroup)
        digits = max(map(len, val.split("/"))) if kind in ("frac", "int") else 0
        if digits > LITERAL_DIGITS:
            raise MwbError(
                f"a number has {digits} digits, over the limit of {LITERAL_DIGITS}"
            )
        out.append((kind, val))
    return out


class _Parser:
    """expr := ['-'] term (('+'|'-') term)*
    term := factor factor*        (juxtaposition multiplies)
    factor := coefficient | name ['^' nat] | '(' expr ')' ['^' nat]"""

    def __init__(self, tokens, ambient: LogAmbient):
        self.tokens = tokens
        self.pos = 0
        self.ambient = ambient

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        p = self.term() * sign
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            elif kind in ("frac", "int", "name") or (kind, val) == ("op", "("):
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val = self.take()
        if kind == "frac":
            num, den = (int(x) for x in val.split("/"))
            if not den:
                raise MwbError(f"coefficient {val} has a zero denominator")
            return self._const(Fraction(num, den))
        if kind == "int":
            return self._const(int(val))
        if kind == "name":
            i = self.ambient.index(val)
            e = [0] * self.ambient.n
            e[i] = self._power()
            return Polynomial(self.ambient, {tuple(e): 1})
        if (kind, val) == ("op", "("):
            p = self.expr()
            if self.take() != ("op", ")"):
                raise MwbError("missing closing parenthesis")
            return p ** self._power()
        raise MwbError(f"unexpected {val!r}" if val else "unexpected end of input")

    def _power(self) -> int:
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise MwbError("exponent must be a natural number")
            return int(val)
        return 1

    def _const(self, c) -> Polynomial:
        return Polynomial(self.ambient, {(0,) * self.ambient.n: c})

    def end(self, polys: list[Polynomial]) -> list[Polynomial]:
        """The parsed polynomials, once the input is used up.  Products are
        bounded as they form; a sum may still pile up denominators, so each
        result is held to the coefficient budget too."""
        if self.peek() != (None, None):
            raise MwbError(f"trailing input near {self.peek()[1]!r}")
        for p in polys:
            bits = max(coefficient_bits(p.terms))
            if bits > COEFF_BITS:
                raise MwbError(
                    f"coefficients need {bits} bits, over the budget of {COEFF_BITS}"
                )
        return polys


def parse_polynomial(text: str, ambient: LogAmbient) -> Polynomial:
    parser = _Parser(tokenize(text), ambient)
    return parser.end([parser.expr()])[0]


def parse_ideal(text: str, ambient: LogAmbient) -> PolyIdeal:
    parser = _Parser(tokenize(text), ambient)
    gens = [parser.expr()]
    while parser.peek() == ("op", ","):
        parser.take()
        gens.append(parser.expr())
    return PolyIdeal(ambient, parser.end(gens))


def parse_monomial_ideal(text: str, ambient: LogAmbient) -> MonomialIdeal:
    ideal = parse_ideal(text, ambient)
    gens = []
    for g in ideal.generators:
        if len(g.terms) != 1:
            raise MwbError(f"{format_polynomial(g)} is not a monomial")
        (e, c), = g.terms.items()
        if c != 1:
            raise MwbError(f"monomial generator {format_polynomial(g)} has a coefficient")
        gens.append(e)
    return MonomialIdeal(ambient.n, minimalize(gens))


def inferred_names(text: str) -> list[str]:
    return list(dict.fromkeys(v for kind, v in tokenize(text) if kind == "name"))


# -- option values ----------------------------------------------------------


def _names(value: str) -> list[str]:
    """--ordinary, --monomial: comma-separated names, each one that the
    expression parser reads as one name, so that an ideal can use it."""
    names = [v.strip() for v in value.split(",") if v.strip()]
    for v in names:
        if not re.fullmatch(_NAME, v):
            raise argparse.ArgumentTypeError(f"{v!r} is not a variable name")
    return names


def _point(value: str) -> tuple:
    """--point, --mark: comma-separated rationals, each an integer, p/q or a
    decimal.  An exponent (1e5) is refused, so that 1e999999999 cannot build
    a billion-digit integer while the options parse."""
    if "e" in value.lower():
        raise argparse.ArgumentTypeError(f"{value!r} has an exponent")
    try:
        return tuple(Fraction(v) for v in value.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a list of rationals"
        ) from None


def _weights(value: str) -> dict:
    """--weights: direction=weight pairs, '3,2,2=1;1,0,2=2'."""
    out = {}
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        dirs, eq, w = part.rpartition("=")
        if not eq:
            raise argparse.ArgumentTypeError(f"{part!r} is not direction=weight")
        try:
            direction = tuple(int(x) for x in dirs.split(","))
            weight = int(w)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} needs integer entries on both sides"
            ) from None
        if direction in out:
            raise argparse.ArgumentTypeError(
                f"direction {dirs.strip()} is given two weights"
            )
        out[direction] = weight
    if not out:
        raise argparse.ArgumentTypeError(f"{value!r} names no direction")
    return out


def build_ambient(args, gens_text: str | None = None) -> LogAmbient:
    ordinary = args.ordinary
    if not ordinary and not args.monomial:
        if gens_text is None:
            raise MwbError("declare variables with --ordinary and/or --monomial")
        ordinary = inferred_names(gens_text)
        if not ordinary:
            raise MwbError("no variables found in the input")
    return LogAmbient(
        [(n, ORDINARY) for n in ordinary] + [(n, MONOMIAL) for n in args.monomial]
    )


def make_blowup(args, ambient: LogAmbient) -> MultiWeightedBlowup:
    ideal = parse_monomial_ideal(args.ideal_monomial, ambient)
    if args.rees is not None:
        return rees_blowup(FractionalIdeal(ideal, args.rees), ambient)
    return build_blowup(ideal, ambient, args.weights)


# -- reports ----------------------------------------------------------------


@record
class Report:
    """One subcommand's output: JSON fields and text lines, each fact
    added once as both.  main prints the lines or dumps the fields."""

    fields: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def add(self, *lines: str, **fields) -> None:
        self.lines.extend(lines)
        self.fields.update(fields)

    def item(self, key: str, value, text=None) -> None:
        """One field, shown as the line 'key: text' (text defaults to value)."""
        self.add(f"{key}: {value if text is None else text}", **{key: value})


def _paren(items) -> str:
    return "(" + ", ".join(items) + ")"


# how text shows a boolean field
_YES = {True: "yes", False: "no"}
_OK = {True: "ok", False: "MISMATCH"}


def _generators(ideal: PolyIdeal) -> tuple[list, str]:
    """An ideal's generators as JSON strings, and its text."""
    gens = [format_polynomial(g) for g in ideal.generators]
    return gens, _paren(gens) if gens else "(0)"


def _entries(values) -> tuple[list, str]:
    """Invariant entries or point coordinates as JSON strings, and their text."""
    strs = [inv_mod.entry_str(v) for v in values]
    return strs, _paren(strs)


def _change(c) -> str:
    return f"{c.name} -> {c.name} + ({format_polynomial(c.shift)})"


def blowup_report(b: MultiWeightedBlowup) -> Report:
    r = Report()
    r.item("ambient", b.source.describe())
    ideal = [format_monomial(b.source, g) for g in b.ideal.gens]
    r.item("ideal", ideal, _paren(ideal))
    r.add(root=b.root)
    if b.root is not None:
        r.add(f"root: {b.root}")
    rays = []
    for ray, weight, var in zip(b.fan.rays, b.weights, b.ray_vars):
        tag = "" if ray.standard else f" -> {var}"
        r.add(f"ray: {ray.direction}, level {ray.level}, weight {weight}{tag}")
        rays.append(
            {
                "direction": list(ray.direction),
                "level": ray.level,
                "weight": weight,
                "standard": ray.standard,
                "var": var,
            }
        )
    r.add(rays=rays)
    pullback = {n: format_polynomial(b.pullback[n]) for n in b.source.names()}
    r.add(*(f"pullback: {n} = {f}" for n, f in pullback.items()), pullback=pullback)
    grading = b.grading
    r.add(
        *(f"grading: {v} = {grading[v]}" for v in b.cox.names()),
        grading={v: list(grading[v]) for v in b.cox.names()},
    )
    charts = []
    for c in b.charts:
        vertex, inverted = format_monomial(b.source, c.vertex), list(c.inverted)
        r.add(f"chart {c.label}: vertex {vertex}, inverted {_paren(inverted)}")
        charts.append({"label": c.label, "vertex": vertex, "inverted": inverted})
    r.add(charts=charts)
    irrelevant = [list(group) for group in b.irrelevant]
    r.add(
        "irrelevant: " + _paren("*".join(group) for group in irrelevant),
        irrelevant=irrelevant,
    )
    return r


def format_factored(b: MultiWeightedBlowup, weak: Polynomial, mult: dict) -> str:
    """The total transform as u^k * (weak), from the weak transform and the
    exceptional multiplicities."""
    mono = format_monomial(b.cox, tuple(mult.get(v, 0) for v in b.cox.names()))
    if mono == "1":
        return format_polynomial(weak)
    return f"{mono} * ({format_polynomial(weak)})"


# -- subcommands ------------------------------------------------------------


def cmd_newton(args) -> Report:
    text = args.ideal if args.ideal is not None else args.ideal_monomial
    ambient = build_ambient(args, text)
    if args.ideal is not None:
        mono = monomial_saturation(parse_ideal(args.ideal, ambient))
    else:
        mono = parse_monomial_ideal(args.ideal_monomial, ambient)
    p = newton_polyhedron(list(mono.gens), ambient.n)
    r = Report()
    r.item("ambient", ambient.describe())
    r.add(
        "vertices: " + ", ".join(format_monomial(ambient, v) for v in p.vertices),
        vertices=[list(v) for v in p.vertices],
    )
    facets = [
        {"normal": list(f.normal), "level": f.level, "standard": f.is_standard()}
        for f in p.facets
    ]
    for f in facets:
        kind = "coordinate" if f["standard"] else "exceptional"
        r.add(f"facet: normal {tuple(f['normal'])}, level {f['level']} ({kind})")
    r.add(facets=facets)
    return r


def cmd_blowup(args) -> Report:
    ambient = build_ambient(args, args.ideal_monomial)
    return blowup_report(make_blowup(args, ambient))


def cmd_transform(args) -> Report:
    """One weak transform gives the factored total, the multiplicities and
    the proper transform: the weak one saturated at the multiplicities'
    variables, as blowup's docstring argues."""
    ambient = build_ambient(args)
    b = make_blowup(args, ambient)
    ideal = parse_ideal(args.ideal, ambient)
    total, total_text = _generators(total_transform(b, ideal))
    r = Report()
    r.item("kind", args.kind)
    principal = len(ideal.generators) == 1
    if principal or args.kind != "total":
        weak, mult = weak_transform(b, ideal)  # ZeroIdeal on (0)
        if principal:
            total_text = format_factored(b, weak.generators[0], mult)
    r.item("total", total, total_text)
    if args.kind != "total":
        result = weak if args.kind == "weak" else saturate_at_variables(weak, mult)
        r.item(args.kind, *_generators(result))
        mults = dict(sorted(mult.items()))
        r.add(
            *(f"multiplicity: {v} = {k}" for v, k in mults.items()),
            multiplicities=mults,
        )
    return r


def _invariant_data(args):
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    point = args.point if args.point is not None else engine.chart_origin(ambient)
    inv, center = inv_mod.invariant_at(ideal, point)
    return ambient, ideal, point, inv, center


def cmd_invariant(args) -> Report:
    ambient, ideal, point, inv, center = _invariant_data(args)
    r = Report()
    r.item("ambient", ambient.describe())
    r.item("ideal", *_generators(ideal))
    r.item("point", *_entries(point))
    r.item("invariant", *_entries(inv.entries))
    if center is not None:
        r.item("center", inv_mod.center_display(center, ambient))
    return r


def cmd_center(args) -> Report:
    ambient, ideal, point, inv, center = _invariant_data(args)
    r = Report()
    r.item("invariant", *_entries(inv.entries))
    if center is None:
        r.item("center", None, "none")
        return r
    cid, root, weights = inv_mod.reduced_center(center, ambient)
    r.item("center", inv_mod.center_display(center, ambient))
    gens = [format_monomial(ambient, g) for g in assemble_center(cid, ambient).gens]
    r.item("ideal", gens, _paren(gens))
    r.item("root", root)
    r.add(weights=list(weights))
    shifted = [c for c in center.contacts if c.shift is not None]
    r.add(
        *(f"change: {_change(c)}" for c in shifted),
        changes=[
            {"variable": c.name, "shift": format_polynomial(c.shift)} for c in shifted
        ],
    )
    return r


def tree_report(tree: engine.ResolutionTree, trace: bool = False) -> Report:
    """Summary transcript and per-node JSON in one walk; trace adds ambients,
    ideals and the per-step pullback/total/multiplicity lines so runs can be
    diffed in full."""
    r = Report()
    r.item("mode", tree.mode)
    r.item("order", tree.order())
    nodes = []
    for node in tree.nodes():
        p, ambient = node.path, node.ambient.describe()
        ideal, ideal_text = _generators(node.ideal)
        n = Report()
        n.add(path=p, ambient=ambient, ideal=ideal)
        # every node has these keys, in this order; set below when it has them
        n.add(invariant=None, point=None, center=None, root=None)
        if trace:
            n.add(f"{p}: ambient {ambient}", f"{p}: ideal {ideal_text}")
        if node.invariant is not None:
            inv, inv_text = _entries(node.invariant.entries)
            at, at_text = _entries(node.worst_point)
            n.add(f"{p}: invariant {inv_text} at {at_text}", invariant=inv, point=at)
        n.add(*(f"{p}: change {_change(c)}" for c in node.changes))
        if node.center is not None:
            center = inv_mod.center_display(node.center, node.ambient)
            root = node.center_ideal.root
            n.add(f"{p}: center {center}, root {root}", center=center, root=root)
        if trace and node.blowup is not None:
            b, mult = node.blowup, node.multiplicities
            for name in node.ambient.names():
                n.add(f"{p}: pullback {name} = {format_polynomial(b.pullback[name])}")
            if len(node.ideal.generators) == 1:
                n.add(f"{p}: total {format_factored(b, node.weak.generators[0], mult)}")
            if mult:
                mults = ", ".join(f"{v} = {mult[v]}" for v in sorted(mult))
                n.add(f"{p}: multiplicities {mults}")
        if node.is_leaf():
            n.add(f"{p}: leaf {node.status} [{node.scope}]")
        n.add(status=node.status, scope=node.scope)
        n.add(children=[c.path for c in node.children])
        r.add(*n.lines)
        nodes.append(n.fields)
    r.add(nodes=nodes)
    return r


def cmd_resolve(args) -> Report:
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    tree = engine.resolve(ideal, mode=args.mode, marks=tuple(args.mark or ()))
    return tree_report(tree, trace=args.trace)


def _one_polynomial(args, refusal: str) -> Polynomial:
    """The one generator of --ideal; refusal is the error for any other count."""
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    if len(ideal.generators) != 1:
        raise MwbError(refusal)
    return ideal.generators[0]


def cmd_nondegenerate(args) -> Report:
    f = _one_polynomial(args, "nondegeneracy is a property of one polynomial")
    ok, witness = engine.newton_nondegenerate(f)
    r = Report()
    r.item("polynomial", format_polynomial(f))
    r.item("nondegenerate", ok, _YES[ok])
    if witness:
        r.item("witness", witness)
    return r


def cmd_one_step(args) -> Report:
    f = _one_polynomial(args, "the one-step certificate takes one polynomial")
    report = engine.one_step_check(f)
    r = Report()
    r.item("polynomial", format_polynomial(f))
    r.item("nondegenerate", report["nondegenerate"], _YES[report["nondegenerate"]])
    if not report["nondegenerate"]:
        r.item("witness", report["witness"])
    else:
        b = report["blowup"]
        sub = blowup_report(b)
        r.add(*sub.lines, blowup=sub.fields)
        r.item("total", format_factored(b, report["weak"], report["multiplicities"]))
        for label, ok in report["charts"].items():
            r.add(f"chart {label}: unit {_YES[ok]}")
        for label, ok in report["faces"].items():
            r.add(f"face {label}: match {_YES[ok]}")
        r.add(charts=report["charts"], faces=report["faces"])
    resolved = report["resolved"]
    r.add(f"resolved in one step: {_YES[resolved]}", resolved=resolved)
    return r


def cmd_reembed(args) -> Report:
    ambient = build_ambient(args, args.ideal)
    c = engine.reembed_check(parse_ideal(args.ideal, ambient), args.point)
    r = Report()
    r.item("variable", c["variable"])
    inv, inv_text = _entries(c["invariant"].entries)
    ext, ext_text = _entries(c["extended_invariant"].entries)
    r.add(
        f"invariant: {inv_text} -> {ext_text}: {_OK[c['invariant_ok']]}",
        invariant=inv,
        extended_invariant=ext,
        invariant_ok=c["invariant_ok"],
        applicable=c["applicable"],
    )
    if not c["applicable"]:
        r.add("not applicable: no center at the point")
        return r
    keys = "center_ok root extended_root root_ok blowup_ok transforms_ok ok".split()
    r.add(
        f"center: {_OK[c['center_ok']]}",
        f"root: {c['root']} -> {c['extended_root']}: {_OK[c['root_ok']]}",
        f"restricted blowup: {_OK[c['blowup_ok']]}",
        f"transforms: {_OK[c['transforms_ok']]}",
        f"reembedding invariant: {_YES[c['ok']]}",
        **{k: c[k] for k in keys},
    )
    return r


# -- argument wiring --------------------------------------------------------


def _add_point_opt(sub):
    sub.add_argument(
        "--point", type=_point, help="comma-separated coordinates (default origin)"
    )


def _add_weight_opts(sub):
    g = sub.add_mutually_exclusive_group()
    g.add_argument("--weights", type=_weights, help="ray weights 'a,b,c=w;...'")
    g.add_argument("--rees", type=int, help="Rees root l for the weights")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mwb",
        description="Multi-weighted blow-ups and logarithmic resolution",
    )
    subs = top.add_subparsers(dest="command", required=True)

    def sub(name, fn, **kw):
        """A subcommand with --json and the ambient options."""
        s = subs.add_parser(name, **kw)
        s.add_argument("--json", action="store_true", help="machine output")
        for kind in (ORDINARY, MONOMIAL):
            text = f"comma-separated {kind} variables"
            s.add_argument(f"--{kind}", type=_names, default=(), help=text)
        s.set_defaults(func=fn)
        return s

    s = sub("newton", cmd_newton, help="Newton polyhedron of an ideal")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--ideal", help="generators")
    g.add_argument("--ideal-monomial", help="monomial generators")

    s = sub("blowup", cmd_blowup, help="multi-weighted blow-up of a monomial ideal")
    s.add_argument("--ideal-monomial", required=True, help="monomial generators")
    _add_weight_opts(s)

    s = sub("transform", cmd_transform, help="transform an ideal under a blow-up")
    s.add_argument("--ideal", required=True, help="ideal to transform")
    s.add_argument("--ideal-monomial", required=True, help="blow-up center")
    _add_weight_opts(s)
    s.add_argument(
        "--kind",
        choices=("total", "weak", "proper"),
        default="total",
        help="which transform",
    )

    s = sub("invariant", cmd_invariant, help="resolution invariant at a point")
    s.add_argument("--ideal", required=True)
    _add_point_opt(s)

    s = sub("center", cmd_center, help="reduced center attached to the invariant")
    s.add_argument("--ideal", required=True)
    _add_point_opt(s)

    for mode in ("resolve", "principalize"):
        s = sub(mode, cmd_resolve, help=f"{mode} by iterated blow-ups")
        s.set_defaults(mode=mode)
        s.add_argument("--ideal", required=True)
        s.add_argument(
            "--mark",
            type=_point,
            action="append",
            metavar="POINT",
            help="additional marked point (repeatable)",
        )
        s.add_argument(
            "--trace",
            action="store_true",
            help="emit every intermediate ideal, pullback and multiplicity",
        )

    s = sub("nondegenerate", cmd_nondegenerate, help="Newton nondegeneracy test")
    s.add_argument("--ideal", required=True, help="one polynomial")

    s = sub(
        "one-step-check",
        cmd_one_step,
        help="one-step resolution certificate for a nondegenerate polynomial",
    )
    s.add_argument("--ideal", required=True, help="one polynomial")

    s = sub("reembed-check", cmd_reembed, help="re-embedding invariance check")
    s.add_argument("--ideal", required=True)
    _add_point_opt(s)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except MwbError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    text = json.dumps(report.fields, indent=2) if args.json else "\n".join(report.lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (mwb ... | head): send the unwritten rest to
        # devnull, so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_OUTPUT
    return 0


if __name__ == "__main__":
    sys.exit(main())

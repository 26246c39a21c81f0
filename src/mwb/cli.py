"""Command line front end.

Polynomials are written in a small expression language: integer or p/q
coefficients, variables with optional ^exponent, parentheses, + - and
multiplication (explicit * or juxtaposition with whitespace).  Ideals are
comma-separated expression lists.  Ambients are declared with --ordinary
and --monomial (ordinary variables first); `newton` can instead infer
variables from the generators in order of first appearance.

Exit codes: 0 on success, 1 on a domain error (reported on stderr), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import engine, invariant as inv_mod
from .blowup import (
    FractionalIdeal,
    MultiWeightedBlowup,
    assemble_center,
    build_blowup,
    exceptional_multiplicities,
    proper_transform,
    rees_blowup,
    total_transform,
    weak_transform,
)
from .errors import MwbError
from .monomials import MonomialIdeal, minimalize
from .poly import (
    MONOMIAL,
    ORDINARY,
    LogAmbient,
    PolyIdeal,
    Polynomial,
    format_monomial,
    format_polynomial,
    monomial_saturation,
)
from .polyhedra import newton_polyhedron

# -- expression parsing -----------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<frac>\d+/\d+)|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*'*)"
    r"|(?P<op>[-+*^(),]))"
)


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
        for kind in ("frac", "int", "name", "op"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind)))
                break
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
        p = self.term() * Fraction(sign)
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
            return self._const(Fraction(int(val)))
        if kind == "name":
            i = self.ambient.index(val)
            e = [0] * self.ambient.n
            e[i] = self._power()
            return Polynomial(self.ambient, {tuple(e): Fraction(1)})
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

    def _const(self, c: Fraction) -> Polynomial:
        return Polynomial(self.ambient, {(0,) * self.ambient.n: c})


def parse_polynomial(text: str, ambient: LogAmbient) -> Polynomial:
    parser = _Parser(tokenize(text), ambient)
    p = parser.expr()
    if parser.peek() != (None, None):
        raise MwbError(f"trailing input near {parser.peek()[1]!r}")
    return p


def parse_ideal(text: str, ambient: LogAmbient) -> PolyIdeal:
    parser = _Parser(tokenize(text), ambient)
    gens = [parser.expr()]
    while parser.peek() == ("op", ","):
        parser.take()
        gens.append(parser.expr())
    if parser.peek() != (None, None):
        raise MwbError(f"trailing input near {parser.peek()[1]!r}")
    return PolyIdeal(ambient, gens)


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
    names = []
    for kind, val in tokenize(text):
        if kind == "name" and val not in names:
            names.append(val)
    return names


# -- shared option handling -------------------------------------------------


def _split_names(value: str | None) -> list[str]:
    if not value:
        return []
    return [v.strip() for v in value.split(",") if v.strip()]


def build_ambient(args, gens_text: str | None = None) -> LogAmbient:
    ordinary = _split_names(getattr(args, "ordinary", None))
    mono = _split_names(getattr(args, "monomial", None))
    if not ordinary and not mono:
        if gens_text is None:
            raise MwbError("declare variables with --ordinary and/or --monomial")
        ordinary = inferred_names(gens_text)
        if not ordinary:
            raise MwbError("no variables found in the input")
    variables = [(n, ORDINARY) for n in ordinary] + [(n, MONOMIAL) for n in mono]
    return LogAmbient(variables)


def parse_point(value: str, ambient: LogAmbient) -> tuple:
    parts = [v.strip() for v in value.split(",")]
    if len(parts) != ambient.n:
        raise MwbError(
            f"point has {len(parts)} coordinates, the ambient has {ambient.n}"
        )
    try:
        return tuple(Fraction(v) for v in parts)
    except (ValueError, ZeroDivisionError):
        raise MwbError(f"point {value!r} is not a list of rationals") from None


def point_or_origin(value: str | None, ambient: LogAmbient) -> tuple:
    """--point when it is given (an empty one is an error), else the origin."""
    if value is None:
        return engine.chart_origin(ambient)
    return parse_point(value, ambient)


def parse_weights(value: str | None) -> dict | None:
    """direction=weight pairs: '3,2,2=1;1,0,2=2'."""
    if value is None:
        return None
    out = {}
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise MwbError(f"weight {part!r} is not direction=weight")
        dirs, w = part.rsplit("=", 1)
        try:
            direction = tuple(int(x) for x in dirs.split(","))
            weight = int(w)
        except ValueError:
            raise MwbError(
                f"weight {part!r} needs integer entries on both sides"
            ) from None
        if direction in out:
            raise MwbError(f"direction {dirs.strip()} is given two weights")
        out[direction] = weight
    if not out:
        raise MwbError(f"--weights {value!r} names no direction")
    return out


def make_blowup(args, ambient: LogAmbient) -> MultiWeightedBlowup:
    if not getattr(args, "ideal_monomial", None):
        raise MwbError("--ideal-monomial is required to build the blow-up")
    ideal = parse_monomial_ideal(args.ideal_monomial, ambient)
    root = getattr(args, "rees", None)
    weights = parse_weights(getattr(args, "weights", None))
    if root is not None:
        if weights:
            raise MwbError("--rees determines the weights; drop --weights")
        return rees_blowup(FractionalIdeal(ideal, int(root)), ambient)
    return build_blowup(ideal, ambient, weights)


# -- serialization helpers --------------------------------------------------


def frac_str(x) -> str:
    return inv_mod.entry_str(x)


def point_json(p) -> list:
    return [frac_str(x) for x in p]


def ideal_json(ideal: PolyIdeal) -> list:
    return [format_polynomial(g) for g in ideal.generators]


def emit(args, lines, obj) -> None:
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        for line in lines:
            print(line)


def blowup_lines(b: MultiWeightedBlowup) -> list[str]:
    lines = []
    lines.append(f"ambient: {b.source.describe()}")
    lines.append(
        "ideal: ("
        + ", ".join(format_monomial(b.source, g) for g in b.ideal.gens)
        + ")"
    )
    if b.root is not None:
        lines.append(f"root: {b.root}")
    for j, ray in enumerate(b.fan.rays):
        tag = f" -> {b.ray_vars[j]}" if not ray.standard else ""
        lines.append(
            f"ray: {ray.direction}, level {ray.level}, weight {b.weights[j]}{tag}"
        )
    for name in b.source.names():
        lines.append(
            f"pullback: {name} = {format_polynomial(b.pullback[name])}"
        )
    for var in b.cox.names():
        lines.append(f"grading: {var} = {b.grading[var]}")
    for chart in b.charts:
        label = "".join(chart.inverted)
        lines.append(
            f"chart {label}: vertex {format_monomial(b.source, chart.vertex)}, "
            f"inverted ({', '.join(chart.inverted)})"
        )
    irr = ", ".join("*".join(group) for group in b.irrelevant)
    lines.append(f"irrelevant: ({irr})")
    return lines


def blowup_json(b: MultiWeightedBlowup) -> dict:
    return {
        "ambient": b.source.describe(),
        "ideal": [format_monomial(b.source, g) for g in b.ideal.gens],
        "root": b.root,
        "rays": [
            {
                "direction": list(r.direction),
                "level": r.level,
                "weight": b.weights[j],
                "standard": r.standard,
                "var": b.ray_vars[j],
            }
            for j, r in enumerate(b.fan.rays)
        ],
        "pullback": {
            n: format_polynomial(b.pullback[n]) for n in b.source.names()
        },
        "grading": {v: list(b.grading[v]) for v in b.cox.names()},
        "charts": [
            {
                "label": "".join(c.inverted),
                "vertex": format_monomial(b.source, c.vertex),
                "inverted": list(c.inverted),
            }
            for c in b.charts
        ],
        "irrelevant": [list(group) for group in b.irrelevant],
    }


def factored_total(b: MultiWeightedBlowup, ideal: PolyIdeal) -> str | None:
    """u^k * (weak) display for a principal ideal, None otherwise."""
    if len(ideal.generators) != 1:
        return None
    weak, mult = weak_transform(b, ideal)
    return format_factored(b, weak.generators[0], mult)


def format_factored(b: MultiWeightedBlowup, weak: Polynomial, mult: dict) -> str:
    """The total transform as u^k * (weak), from the weak transform and the
    exceptional multiplicities."""
    e = [0] * b.cox.n
    for var, k in mult.items():
        if k:
            e[b.cox.index(var)] = k
    mono = format_monomial(b.cox, tuple(e))
    if mono == "1":
        return format_polynomial(weak)
    return f"{mono} * ({format_polynomial(weak)})"


# -- subcommands ------------------------------------------------------------


def cmd_newton(args) -> None:
    text = args.ideal if args.ideal is not None else args.ideal_monomial
    ambient = build_ambient(args, text)
    if args.ideal is not None:
        mono = monomial_saturation(parse_ideal(args.ideal, ambient))
    else:
        mono = parse_monomial_ideal(args.ideal_monomial, ambient)
    p = newton_polyhedron(list(mono.gens), ambient.n)
    lines = [f"ambient: {ambient.describe()}"]
    lines.append(
        "vertices: " + ", ".join(format_monomial(ambient, v) for v in p.vertices)
    )
    for f in p.facets:
        kind = "coordinate" if f.is_standard() else "exceptional"
        lines.append(f"facet: normal {f.normal}, level {f.level} ({kind})")
    obj = {
        "ambient": ambient.describe(),
        "vertices": [list(v) for v in p.vertices],
        "facets": [
            {
                "normal": list(f.normal),
                "level": f.level,
                "standard": f.is_standard(),
            }
            for f in p.facets
        ],
    }
    emit(args, lines, obj)


def cmd_blowup(args) -> None:
    ambient = build_ambient(args, args.ideal_monomial)
    b = make_blowup(args, ambient)
    emit(args, blowup_lines(b), blowup_json(b))


def cmd_transform(args) -> None:
    ambient = build_ambient(args)
    b = make_blowup(args, ambient)
    ideal = parse_ideal(args.ideal, ambient)
    total = total_transform(b, ideal)
    lines = [f"kind: {args.kind}"]
    obj = {"kind": args.kind}
    if args.kind == "total":
        result = total
        mult = None
    elif args.kind == "weak":
        result, mult = weak_transform(b, ideal)
    else:
        result = proper_transform(b, ideal)
        mult = exceptional_multiplicities(b, ideal)
    factored = factored_total(b, ideal)
    if factored is not None:
        lines.append(f"total: {factored}")
    else:
        lines.append(f"total: {total}")
    obj["total"] = ideal_json(total)
    if args.kind != "total":
        lines.append(f"{args.kind}: {result}")
    obj[args.kind] = ideal_json(result)
    if mult is not None:
        for var in sorted(mult):
            lines.append(f"multiplicity: {var} = {mult[var]}")
        obj["multiplicities"] = {v: mult[v] for v in sorted(mult)}
    emit(args, lines, obj)


def _invariant_data(args):
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    point = point_or_origin(args.point, ambient)
    inv, center = inv_mod.invariant_at(ideal, point)
    return ambient, ideal, point, inv, center


def cmd_invariant(args) -> None:
    ambient, ideal, point, inv, center = _invariant_data(args)
    lines = [
        f"ambient: {ambient.describe()}",
        f"ideal: {ideal}",
        f"point: ({', '.join(frac_str(x) for x in point)})",
        f"invariant: {inv}",
    ]
    obj = {
        "ambient": ambient.describe(),
        "ideal": ideal_json(ideal),
        "point": point_json(point),
        "invariant": [frac_str(e) for e in inv.entries],
    }
    if center is not None:
        lines.append(f"center: {inv_mod.center_display(center, ambient)}")
        obj["center"] = inv_mod.center_display(center, ambient)
    emit(args, lines, obj)


def cmd_center(args) -> None:
    ambient, ideal, point, inv, center = _invariant_data(args)
    lines = [f"invariant: {inv}"]
    obj = {"invariant": [frac_str(e) for e in inv.entries]}
    if center is None:
        lines.append("center: none")
        obj["center"] = None
        emit(args, lines, obj)
        return
    cid, root, weights = inv_mod.reduced_center(center, ambient)
    assembled = assemble_center(cid, ambient)
    lines.append(f"center: {inv_mod.center_display(center, ambient)}")
    lines.append(
        "ideal: ("
        + ", ".join(format_monomial(ambient, g) for g in assembled.gens)
        + ")"
    )
    lines.append(f"root: {root}")
    for c in center.contacts:
        if c.shift is not None:
            lines.append(
                f"change: {c.name} -> {c.name} + ({format_polynomial(c.shift)})"
            )
    obj.update(
        center=inv_mod.center_display(center, ambient),
        ideal=[format_monomial(ambient, g) for g in assembled.gens],
        root=root,
        weights=list(weights),
        changes=[
            {"variable": c.name, "shift": format_polynomial(c.shift)}
            for c in center.contacts
            if c.shift is not None
        ],
    )
    emit(args, lines, obj)


def _tree_lines(tree: engine.ResolutionTree, trace: bool = False) -> list[str]:
    """Summary transcript; trace adds ambients, ideals and the per-step
    pullback/total/multiplicity data so runs can be diffed in full."""
    lines = [f"mode: {tree.mode}", f"order: {tree.order()}"]
    for node in tree.nodes():
        p = node.path
        if trace:
            lines.append(f"{p}: ambient {node.ambient.describe()}")
            lines.append(f"{p}: ideal {node.ideal}")
        if node.invariant is not None:
            at = ", ".join(frac_str(x) for x in node.worst_point)
            lines.append(f"{p}: invariant {node.invariant} at ({at})")
        for c in node.changes:
            lines.append(
                f"{p}: change {c.name} -> {c.name} + ({format_polynomial(c.shift)})"
            )
        if node.center is not None:
            lines.append(
                f"{p}: center {inv_mod.center_display(node.center, node.ambient)}, "
                f"root {node.center_ideal.root}"
            )
        if trace and node.blowup is not None:
            for name in node.ambient.names():
                lines.append(
                    f"{p}: pullback {name} = "
                    f"{format_polynomial(node.blowup.pullback[name])}"
                )
            factored = factored_total(node.blowup, node.ideal)
            if factored is not None:
                lines.append(f"{p}: total {factored}")
            if node.multiplicities:
                mults = ", ".join(
                    f"{v} = {node.multiplicities[v]}"
                    for v in sorted(node.multiplicities)
                )
                lines.append(f"{p}: multiplicities {mults}")
        if node.is_leaf():
            lines.append(f"{p}: leaf {node.status} [{node.scope}]")
    return lines


def _tree_json(tree: engine.ResolutionTree) -> dict:
    nodes = []
    for node in tree.nodes():
        entry = {
            "path": node.path,
            "ambient": node.ambient.describe(),
            "ideal": ideal_json(node.ideal),
            "invariant": (
                [frac_str(e) for e in node.invariant.entries]
                if node.invariant is not None
                else None
            ),
            "point": (
                point_json(node.worst_point)
                if node.worst_point is not None
                else None
            ),
            "center": (
                inv_mod.center_display(node.center, node.ambient)
                if node.center is not None
                else None
            ),
            "root": node.center_ideal.root if node.center_ideal else None,
            "status": node.status,
            "scope": node.scope,
            "children": [c.path for c in node.children],
        }
        nodes.append(entry)
    return {"mode": tree.mode, "order": tree.order(), "nodes": nodes}


def cmd_resolve(args) -> None:
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    marks = tuple(parse_point(m, ambient) for m in args.mark or ())
    tree = engine.resolve(ideal, mode=args.mode, marks=marks)
    emit(args, _tree_lines(tree, trace=args.trace), _tree_json(tree))


def cmd_nondegenerate(args) -> None:
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    if len(ideal.generators) != 1:
        raise MwbError("nondegeneracy is a property of one polynomial")
    ok, witness = engine.newton_nondegenerate(ideal.generators[0])
    lines = [
        f"polynomial: {format_polynomial(ideal.generators[0])}",
        f"nondegenerate: {'yes' if ok else 'no'}",
    ]
    obj = {
        "polynomial": format_polynomial(ideal.generators[0]),
        "nondegenerate": ok,
    }
    if witness:
        lines.append(f"witness: {witness}")
        obj["witness"] = witness
    emit(args, lines, obj)


def cmd_one_step(args) -> None:
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    if len(ideal.generators) != 1:
        raise MwbError("the one-step certificate takes one polynomial")
    report = engine.one_step_check(ideal.generators[0])
    f = ideal.generators[0]
    lines = [f"polynomial: {format_polynomial(f)}"]
    obj = {"polynomial": format_polynomial(f)}
    lines.append(f"nondegenerate: {'yes' if report['nondegenerate'] else 'no'}")
    obj["nondegenerate"] = report["nondegenerate"]
    if not report["nondegenerate"]:
        lines.append(f"witness: {report['witness']}")
        obj["witness"] = report["witness"]
    else:
        b = report["blowup"]
        lines.extend(blowup_lines(b))
        obj["blowup"] = blowup_json(b)
        factored = format_factored(b, report["weak"], report["multiplicities"])
        lines.append(f"total: {factored}")
        obj["total"] = factored
        for label, ok in report["charts"].items():
            lines.append(f"chart {label}: unit {'yes' if ok else 'no'}")
        obj["charts"] = report["charts"]
        for label, ok in report["faces"].items():
            lines.append(f"face {label}: match {'yes' if ok else 'no'}")
        obj["faces"] = report["faces"]
    lines.append(f"resolved in one step: {'yes' if report['resolved'] else 'no'}")
    obj["resolved"] = report["resolved"]
    emit(args, lines, obj)


def cmd_reembed(args) -> None:
    ambient = build_ambient(args, args.ideal)
    ideal = parse_ideal(args.ideal, ambient)
    point = point_or_origin(args.point, ambient)
    report = engine.reembed_check(ideal, point)
    lines = [
        f"variable: {report['variable']}",
        f"invariant: {report['invariant']} -> {report['extended_invariant']}: "
        + ("ok" if report["invariant_ok"] else "MISMATCH"),
    ]
    obj = {
        "variable": report["variable"],
        "invariant": [frac_str(e) for e in report["invariant"].entries],
        "extended_invariant": [
            frac_str(e) for e in report["extended_invariant"].entries
        ],
        "invariant_ok": report["invariant_ok"],
        "applicable": report["applicable"],
    }
    if report["applicable"]:
        lines.append(f"center: {'ok' if report['center_ok'] else 'MISMATCH'}")
        lines.append(
            f"root: {report['root']} -> {report['extended_root']}: "
            + ("ok" if report["root_ok"] else "MISMATCH")
        )
        lines.append(
            "restricted blowup: " + ("ok" if report["blowup_ok"] else "MISMATCH")
        )
        lines.append(
            "transforms: " + ("ok" if report["transforms_ok"] else "MISMATCH")
        )
        lines.append("reembedding invariant: " + ("yes" if report["ok"] else "no"))
        obj.update(
            center_ok=report["center_ok"],
            root=report["root"],
            extended_root=report["extended_root"],
            root_ok=report["root_ok"],
            blowup_ok=report["blowup_ok"],
            transforms_ok=report["transforms_ok"],
            ok=report["ok"],
        )
    else:
        lines.append("not applicable: no center at the point")
    emit(args, lines, obj)


# -- argument wiring --------------------------------------------------------


def _add_ambient_opts(sub):
    sub.add_argument("--ordinary", help="comma-separated ordinary variables")
    sub.add_argument("--monomial", help="comma-separated monomial variables")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mwb",
        description="Multi-weighted blow-ups and logarithmic resolution",
    )
    subs = top.add_subparsers(dest="command", required=True)

    def sub(name, fn, **kw):
        s = subs.add_parser(name, **kw)
        s.add_argument("--json", action="store_true", help="machine output")
        s.set_defaults(func=fn)
        return s

    s = sub("newton", cmd_newton, help="Newton polyhedron of an ideal")
    _add_ambient_opts(s)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--ideal", help="generators")
    g.add_argument("--ideal-monomial", help="monomial generators")

    s = sub("blowup", cmd_blowup, help="multi-weighted blow-up of a monomial ideal")
    _add_ambient_opts(s)
    s.add_argument("--ideal-monomial", required=True, help="monomial generators")
    s.add_argument("--weights", help="ray weights 'a,b,c=w;...'")
    s.add_argument("--rees", type=int, help="Rees root l for the weights")

    s = sub("transform", cmd_transform, help="transform an ideal under a blow-up")
    _add_ambient_opts(s)
    s.add_argument("--ideal", required=True, help="ideal to transform")
    s.add_argument("--ideal-monomial", required=True, help="blow-up center")
    s.add_argument("--weights", help="ray weights 'a,b,c=w;...'")
    s.add_argument("--rees", type=int, help="Rees root l for the weights")
    s.add_argument(
        "--kind",
        choices=("total", "weak", "proper"),
        default="total",
        help="which transform",
    )

    s = sub("invariant", cmd_invariant, help="resolution invariant at a point")
    _add_ambient_opts(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--point", help="comma-separated coordinates (default origin)")

    s = sub("center", cmd_center, help="reduced center attached to the invariant")
    _add_ambient_opts(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--point", help="comma-separated coordinates (default origin)")

    def resolve_opts(s):
        _add_ambient_opts(s)
        s.add_argument("--ideal", required=True)
        s.add_argument(
            "--mark",
            action="append",
            metavar="POINT",
            help="additional marked point (repeatable)",
        )
        s.add_argument(
            "--trace",
            action="store_true",
            help="emit every intermediate ideal, pullback and multiplicity",
        )

    s = sub("resolve", cmd_resolve, help="resolve by iterated blow-ups")
    resolve_opts(s)
    s.set_defaults(mode="resolve")

    s = sub("principalize", cmd_resolve, help="principalize by iterated blow-ups")
    resolve_opts(s)
    s.set_defaults(mode="principalize")

    s = sub("nondegenerate", cmd_nondegenerate, help="Newton nondegeneracy test")
    _add_ambient_opts(s)
    s.add_argument("--ideal", required=True, help="one polynomial")

    s = sub(
        "one-step-check",
        cmd_one_step,
        help="one-step resolution certificate for a nondegenerate polynomial",
    )
    _add_ambient_opts(s)
    s.add_argument("--ideal", required=True, help="one polynomial")

    s = sub("reembed-check", cmd_reembed, help="re-embedding invariance check")
    _add_ambient_opts(s)
    s.add_argument("--ideal", required=True)
    s.add_argument("--point", help="comma-separated coordinates (default origin)")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except MwbError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

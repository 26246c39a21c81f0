"""Spans at the layer boundaries of mwb, recorded from outside the package.

``Tracer.install`` wraps the public functions of each layer module and
rebinds every ``mwb.*`` module attribute that holds the original, because
modules such as ``engine`` and ``cli`` import names directly.  A wrapped
call appends one span ``(name, start, end, parent, op)``: ``parent`` is the
index of the enclosing span in the same pass (-1 at top level) and ``op``
the index of the operation in the pass.  Spans stay in memory, one list
per pass, and are written out once at the end.

A span's self time is its duration minus the durations of its child spans;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import mwb.poly

# Layer -> public functions wrapped in that layer's module.  Tiny helpers
# called in inner loops (dot, divides, the kernel's monomial arithmetic)
# are left out: their spans would cost more than the work they time.
LAYERS = {
    "polyhedra": ("newton_polyhedron", "faces", "normal_fan", "facet_level", "contains"),
    "monomials": ("newton", "monomial_ideal", "integral_closure", "closure_member"),
    "poly": (
        "substitute",
        "rename",
        "restrict",
        "derivative",
        "log_derivation",
        "monomial_saturation",
        "strip_inverted_units",
        "format_polynomial",
    ),
    "groebner": (
        "groebner_basis",
        "normal_form",
        "member",
        "is_unit_ideal",
        "ideal_equal",
        "saturate",
        "saturate_at_variables",
        "dimension",
        "codimension",
    ),
    "kernel": ("normal_form",),
    "blowup": (
        "build_blowup",
        "rees_blowup",
        "center_to_blowup",
        "restrict_blowup",
        "total_transform",
        "weak_transform",
        "proper_transform",
        "exceptional_multiplicities",
        "center_consistency",
    ),
    "invariant": (
        "invariant_at",
        "d_leq",
        "logord_at",
        "max_logord",
        "maximal_contact",
        "monomial_part",
        "minimal_tuples",
        "coefficient_ideal",
        "reduced_center",
    ),
    "engine": ("resolve", "principalize", "one_step_check", "newton_nondegenerate", "reembed_check"),
    "cli": ("main",),
}

# Argument keys whose distinct count over calls shows repeated work.
DISTINCT = {
    "monomials.newton": lambda ideal: ideal,
    "groebner.groebner_basis": lambda ideal, block=0: (ideal, block),
    "invariant.minimal_tuples": lambda b: b,
}

# Output sizes summed over calls.
OUTPUTS = {
    "polyhedra.newton_polyhedron": ("polyhedra.facets_out", lambda p: len(p.facets)),
    "groebner.groebner_basis": ("groebner.basis_len_out", len),
    "blowup.build_blowup": ("blowup.charts_out", lambda b: len(b.charts)),
    "blowup.rees_blowup": ("blowup.charts_out", lambda b: len(b.charts)),
    "engine.resolve": ("engine.nodes", lambda t: len(t.nodes())),
}


class Pass:
    """What one traced pass recorded."""

    def __init__(self):
        self.spans: list = []
        self.keys: dict[str, set] = {}
        self.outputs: Counter = Counter()
        self.orders = 0  # tree orders summed over engine.resolve results
        self.polynomials = 0  # Polynomial.__init__ calls


class Tracer:
    def __init__(self):
        self.passes: list[Pass] = []
        self.current: Pass | None = None
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def begin_pass(self) -> Pass:
        """Start recording a pass; every traced call happens inside one."""
        self.current = Pass()
        self.passes.append(self.current)
        return self.current

    def _wrap(self, qualname: str, fn):
        stack = self._stack
        key = DISTINCT.get(qualname)
        output = OUTPUTS.get(qualname)
        is_resolve = qualname == "engine.resolve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.current
            spans = rec.spans
            if key is not None:
                rec.keys.setdefault(qualname, set()).add(key(*args, **kwargs))
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (qualname, start, end, parent, self.op)
            if output is not None:
                rec.outputs[output[0]] += output[1](result)
            if is_resolve:
                rec.orders += result.order()
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mwb" or n.startswith("mwb.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"mwb.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))
        init = mwb.poly.Polynomial.__init__

        def counting_init(obj, *args, **kwargs):
            self.current.polynomials += 1
            init(obj, *args, **kwargs)

        mwb.poly.Polynomial.__init__ = counting_init
        self._restore.append((mwb.poly.Polynomial, "__init__", init))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def write(self, path, header: dict) -> None:
        """All spans as JSON, times relative to the first span of the pass."""
        out = []
        for rec in self.passes:
            t0 = rec.spans[0][1] if rec.spans else 0.0
            out.append(
                [
                    [name, round(s - t0, 7), round(e - t0, 7), parent, op]
                    for name, s, e, parent, op in rec.spans
                ]
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fields = ["name", "start", "end", "parent", "op"]
            json.dump({"header": header, "fields": fields, "passes": out}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def pass_counts(rec: Pass) -> dict[str, float]:
    """Per-pass counts: exact for a deterministic program and input set."""
    calls = Counter(span[0] for span in rec.spans)
    out = {f"{name}.calls": float(n) for name, n in calls.items()}
    for name in DISTINCT:
        n = calls.get(name, 0)
        out[f"{name}.distinct_frac"] = len(rec.keys.get(name, ())) / n if n else 0.0
    out.update({k: float(v) for k, v in rec.outputs.items()})
    out["engine.order"] = float(rec.orders)
    out["poly.Polynomial.init_calls"] = float(rec.polynomials)
    return out


def pass_times(rec: Pass) -> dict[str, float]:
    """Per-pass seconds: layer self time and inclusive time per function."""
    out: dict[str, float] = Counter()
    for span, own in zip(rec.spans, self_times(rec.spans)):
        name, start, end = span[0], span[1], span[2]
        out[name.split(".", 1)[0] + ".self_s"] += own
        out[name + ".s"] += end - start
    return dict(out)

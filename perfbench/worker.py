"""One fresh workload process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py --workload W --seed S --seconds T --mode e2e|trace

``e2e``: one cold pass, then whole warm passes until ``T`` seconds have
gone by since the cold pass began, and at least two; a calibration loop
is timed before the first operation of each pass and after every
operation.  ``trace``: one cold pass, then pairs of an untraced and a
traced warm pass for ``T`` seconds, at least three, then the frontier
probe; spans go to ``.perfbench_out/``.  The last line of stdout is one
JSON object for the parent.  Every operation's output is checked outside
the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mwb.kernel  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
# Warm passes an e2e process makes at least: with six processes a run
# times every operation warm at least twelve times.
WARM_PASSES = 2
# A traced run makes at least this many pairs of an untraced and a traced
# pass, and more until its seconds have gone by.
TRACED_PAIRS = 3
# Per-layer names that differ from the traced function they read.
ALIASES = {"blowup.build.calls": "blowup.build_blowup.calls"}
SHARES = ("polyhedra", "groebner", "invariant")


def calibrate() -> float:
    """Seconds a fixed loop of exact rational sums takes now.

    Like mwb, it spends its time in the interpreter on small Fractions and
    dicts, so a neighbour that slows one slows the other alike; it uses no
    mwb code, and it runs with the cyclic garbage collector off, so neither
    a change to mwb nor the size of its heap can change the loop's work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, terms = Fraction(0), {}
        for i in range(1, 121):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
            terms[i % 17, i % 5] = acc
            if i % 20 == 0:
                acc = Fraction(0)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Loop:
    """Closed loop with one client over the input set: the next operation
    starts when the previous one has returned and been checked.

    Every operation starts from a collected heap, as a fresh CLI process
    does, so that what the cyclic garbage collector costs it does not
    depend on the operations before it: with the seeded order alone
    deciding that, the same input set moved by 8% from seed to seed."""

    def __init__(self, ops):
        self.ops = ops
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, calibrated: bool = False) -> tuple[list[float], list[float]]:
        """Times of the operations, and with `calibrated` the times of the
        calibration loop before the first and after every operation."""
        times = []
        cals = [calibrate()] if calibrated else []
        for i, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op = i
            gc.collect()
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as e:  # a raising operation is a failed one
                times.append(time.perf_counter() - start)
                reason = f"raised {type(e).__name__}: {e}"
            else:
                times.append(time.perf_counter() - start)
                reason = op.check(result)
                del result
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{op.key}: {reason}")
            if calibrated:
                cals.append(calibrate())
        return times, cals

    def passes(self, seconds: float, min_passes: int) -> list[dict]:
        """Whole calibrated passes until `seconds` have gone by and at
        least `min_passes` are done."""
        out: list[dict] = []
        begin = time.perf_counter()
        while len(out) < min_passes or time.perf_counter() - begin < seconds:
            times, cals = self.one_pass(calibrated=True)
            out.append({"times": times, "cals": cals})
        return out


def rate(passes) -> float:
    """Operations per second at each operation's best time."""
    best = run.best_per_op(passes)
    return len(best) / sum(best)


def traced_metrics(args, loop: Loop, head: dict) -> tuple[dict, list[str]]:
    """Untraced and traced passes alternate, so that the overhead compares
    passes that met the same machine."""
    tracer = spans.Tracer()
    plain, traced = [], []
    begin = time.perf_counter()
    while len(traced) < TRACED_PAIRS or time.perf_counter() - begin < args.seconds:
        plain.append(loop.one_pass()[0])
        tracer.begin_pass()
        tracer.install()
        loop.tracer = tracer
        try:
            traced.append(loop.one_pass()[0])
        finally:
            tracer.uninstall()
            loop.tracer = None
    notes = []

    counts = [spans.pass_counts(rec) for rec in tracer.passes]
    if any(c != counts[0] for c in counts[1:]):
        notes.append("warning: per-pass counts differ between traced passes")
    times = [spans.pass_times(rec) for rec in tracer.passes]
    for t, p in zip(times, traced):
        for layer in SHARES:
            t[f"{layer}.share"] = t.get(f"{layer}.self_s", 0.0) / sum(p)

    metrics = {}
    for name, unit, _ in run.PER_LAYER:
        key = ALIASES.get(name, name)
        if unit == "count" or name.endswith("distinct_frac"):
            metrics[name] = counts[0].get(key, 0.0)
        elif not name.startswith(("trace.", "frontier.")):
            metrics[name] = statistics.median(t.get(key, 0.0) for t in times)
    metrics["trace.overhead_frac"] = rate(plain) / rate(traced) - 1

    probe = workloads.frontier()
    metrics["frontier.refused"] = float(sum(err is not None for _, err in probe))
    metrics["frontier.resolved"] = float(sum(err is None for _, err in probe))
    for case, err in probe:
        notes.append(f"frontier: {case} -> {f'refused ({err})' if err else 'resolved'}")

    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path, head)
    notes.append(f"spans: {path.relative_to(ROOT)}")
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("e2e", "trace"), required=True)
    args = ap.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed)
    head = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": workloads.digest(ops),
        "ops_per_pass": len(ops),
        "kernel_lane": "compiled" if mwb.kernel.COMPILED else "pure",
        "python": platform.python_version(),
    }
    loop = Loop(ops)
    begin = time.perf_counter()
    cold, cals = loop.one_pass(calibrated=args.mode == "e2e")
    out = {"header": head}
    if args.mode == "e2e":
        out["cold"] = {"times": cold, "cals": cals}
        out["passes"] = loop.passes(args.seconds - (time.perf_counter() - begin), WARM_PASSES)
    else:
        out["metrics"], out["notes"] = traced_metrics(args, loop, head)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["attempted"] = loop.attempted
    out["failed"] = len(loop.failures)
    out["failures"] = loop.failures[:5]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

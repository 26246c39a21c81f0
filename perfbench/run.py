"""The mwb benchmark: one workload, a closed loop with one client.

    python3 perfbench/run.py --workload resolve_corpus --seed 4101 --seconds 16 --trace 0

With ``--trace 0`` a run is ROUNDS rounds of set-up probes (fresh
interpreters timing ``import mwb, mwb.cli``) and one fresh workload process
(``worker.py``) with a cold pass and warm passes; the end-to-end figures
are taken over all rounds, with every import and operation time put at
reference machine speed (see ``at_reference_speed``).  With ``--trace 1``
one workload process alternates untraced and traced passes and reports the per-layer figures.
Every operation's output is checked outside the timed region.  The last
line of stdout is one JSON object; the lines before it are for people: a
header with the kernel lane, Python version, nproc, seed and input-set
digest, ``failed_frac``, and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A trace-0 run is ROUNDS rounds, each SETUP_PER_ROUND set-up probes and one
# fresh workload process with a cold pass and at least two warm passes.
ROUNDS = 6
SETUP_PER_ROUND = 3
# A probe times the import, then the calibration loop SETUP_CALS times.
SETUP_CALS = 7
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import mwb, mwb.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from worker import calibrate\n"
    "print(t, *(calibrate() for _ in range(int(sys.argv[3]))))\n"
)

# (name, unit, better).  failed_frac is printed and carried by the
# attempted/failed fields, not listed here: it is 0 on a correct run.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cold_pass_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("polyhedra.self_s", "s", "lower"),
    ("polyhedra.share", "fraction", "lower"),
    ("polyhedra.newton_polyhedron.calls", "count", "lower"),
    ("polyhedra.newton_polyhedron.s", "s", "lower"),
    ("polyhedra.facets_out", "count", "lower"),
    ("polyhedra.faces.calls", "count", "lower"),
    ("monomials.newton.calls", "count", "lower"),
    ("monomials.newton.distinct_frac", "fraction", "higher"),
    ("poly.self_s", "s", "lower"),
    ("poly.substitute.calls", "count", "lower"),
    ("poly.substitute.s", "s", "lower"),
    ("poly.Polynomial.init_calls", "count", "lower"),
    ("groebner.self_s", "s", "lower"),
    ("groebner.share", "fraction", "lower"),
    ("groebner.groebner_basis.calls", "count", "lower"),
    ("groebner.groebner_basis.s", "s", "lower"),
    ("groebner.groebner_basis.distinct_frac", "fraction", "higher"),
    ("groebner.basis_len_out", "count", "lower"),
    ("groebner.saturate.calls", "count", "lower"),
    ("groebner.saturate.s", "s", "lower"),
    ("groebner.normal_form.calls", "count", "lower"),
    ("kernel.normal_form.calls", "count", "lower"),
    ("kernel.normal_form.s", "s", "lower"),
    ("blowup.self_s", "s", "lower"),
    ("blowup.build.calls", "count", "lower"),
    ("blowup.charts_out", "count", "lower"),
    ("blowup.weak_transform.s", "s", "lower"),
    ("blowup.proper_transform.calls", "count", "lower"),
    ("blowup.proper_transform.s", "s", "lower"),
    ("invariant.self_s", "s", "lower"),
    ("invariant.share", "fraction", "lower"),
    ("invariant.invariant_at.calls", "count", "lower"),
    ("invariant.invariant_at.s", "s", "lower"),
    ("invariant.d_leq.calls", "count", "lower"),
    ("invariant.maximal_contact.calls", "count", "lower"),
    ("invariant.minimal_tuples.calls", "count", "lower"),
    ("invariant.minimal_tuples.distinct_frac", "fraction", "higher"),
    ("engine.self_s", "s", "lower"),
    ("engine.resolve.s", "s", "lower"),
    ("engine.nodes", "count", "lower"),
    ("engine.order", "count", "lower"),
    ("engine.one_step_check.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("frontier.refused", "count", "lower"),
    ("frontier.resolved", "count", "higher"),
]


# A typical median of worker.calibrate, in seconds, on the machine the
# bounds were set on (2 cores of a shared 2.1 GHz Intel Xeon host, Python
# 3.11); it sets only the scale of the figures, which read as milliseconds
# and seconds on that machine at that speed.
CAL_REF_S = 0.0008
# The same for the loop in a fresh interpreter just after the import, where
# it runs faster than in a workload process with its larger heap.
SETUP_CAL_REF_S = 0.00056
# Calibrations on each side of an operation that set its machine speed.
CAL_SIDE = 3


def at_reference_speed(times, cals) -> list[float]:
    """The operation times of one pass as the reference machine would
    have measured them.

    ``cals[j]`` and ``cals[j + 1]`` are the calibration loop's times just
    before and just after operation ``j``.  Each operation time is scaled
    by CAL_REF_S over the median of the CAL_SIDE calibrations on each side
    of it.  The machine these figures come from shares its cores with
    other tenants and runs the same code 1.2 to 1.6 times slower for
    stretches of seconds to minutes; the loop slows down with it, so the
    ratio keeps what the code costs and drops what the neighbours cost."""
    if len(cals) != len(times) + 1:
        raise ValueError("a calibrated pass times the loop once more than its operations")
    return [
        t * CAL_REF_S / statistics.median(cals[max(0, j + 1 - CAL_SIDE) : j + 1 + CAL_SIDE])
        for j, t in enumerate(times)
    ]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p percent
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def median_per_op(passes) -> list[float]:
    """Each operation's median time over the given passes of one input set."""
    return [statistics.median(times) for times in zip(*passes)]


def best_per_op(passes) -> list[float]:
    """Each operation's fastest time over the given passes of one input set."""
    return [min(times) for times in zip(*passes)]


def probe_setup() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import mwb and mwb.cli, as
    measured and at reference speed: scaled by SETUP_CAL_REF_S over the
    median of the calibrations the same interpreter times right after."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent), str(SETUP_CALS)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    took, *cals = map(float, done.stdout.split())
    return took, took * SETUP_CAL_REF_S / statistics.median(cals)


def worker(args, seconds: float, mode: str) -> dict:
    """Start one fresh workload process and return its report."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("worker.py")),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(seconds),
            "--mode", mode,
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(args) -> tuple[dict, list[dict], list[str]]:
    """Rounds of set-up probes and a fresh workload process each, so that
    the samples behind every figure are spread across the run."""
    setup = []
    probe_setup()  # writes the bytecode cache; not counted
    reports = []
    for _ in range(ROUNDS):
        setup += [probe_setup() for _ in range(SETUP_PER_ROUND)]
        reports.append(worker(args, args.seconds / ROUNDS, "e2e"))
    warm = [at_reference_speed(**p) for r in reports for p in r["passes"]]
    latency = median_per_op(warm)
    cold = [sum(at_reference_speed(**r["cold"])) for r in reports]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "cold_pass_s": statistics.median(cold),
        "ops_per_s": len(latency) / sum(latency),
        "op_p50_ms": percentile(latency, 50) * 1000,
        "op_p90_ms": percentile(latency, 90) * 1000,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reports) / 1024,
    }
    cals = [c for r in reports for p in r["passes"] for c in p["cals"]]
    raw = median_per_op([p["times"] for r in reports for p in r["passes"]])
    notes = [
        f"machine: calibration loop median {statistics.median(cals) * 1000:.4g} ms"
        f" (reference {CAL_REF_S * 1000:.4g} ms) over {len(cals)} timings",
        f"warm samples: {len(warm)} per operation, {len(warm) * len(latency)} in all",
        f"as measured, before scaling: setup_s {statistics.median(took for took, _ in setup):.6g} s,"
        f" ops_per_s {len(raw) / sum(raw):.6g} 1/s,"
        f" op_p50_ms {percentile(raw, 50) * 1000:.6g} ms, op_p90_ms {percentile(raw, 90) * 1000:.6g} ms",
    ]
    return metrics, reports, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=4101)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (SRC / "mwb" / "__init__.py", ROOT / "tests" / "golden", ROOT / "tests" / "oracles.py"):
        if not need.exists():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a checkout of mwb", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        reports = [worker(args, args.seconds, "trace")]
        metrics, table, notes = reports[0]["metrics"], PER_LAYER, reports[0]["notes"]
    else:
        metrics, reports, notes = end_to_end(args)
        table = END_TO_END
    head = dict(reports[0]["header"], nproc=len(os.sched_getaffinity(0)))
    print("header:", json.dumps(head))
    for note in notes:
        print(note)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for reason in {f for r in reports for f in r["failures"]}:
        print("failed:", reason, file=sys.stderr)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, unit, _ in table:
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

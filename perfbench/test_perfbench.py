"""The benchmark's own tests: seeded inputs, the percentile rule, scaling
to reference speed, self time, tracer wiring, and agreement of
BENCHMARK.json with the code.

    python3 -m pytest perfbench
"""

import gc
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mwb  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def keys(name, seed):
    return [op.key for op in workloads.WORKLOADS[name](seed)]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert keys(name, 7) == keys(name, 7), name


def test_other_seed_changes_only_the_seeded_part():
    for name in ("resolve_corpus", "cli_golden"):
        a, b = keys(name, 1), keys(name, 2)
        assert a != b and sorted(a) == sorted(b), name
    for name in ("blowup_fan", "one_step"):
        assert set(keys(name, 1)).isdisjoint(keys(name, 2)), name


def test_resolve_corpus_is_the_drop_corpus():
    spec = importlib.util.spec_from_file_location(
        "mwb_suite_conftest", ROOT / "tests" / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    want = [workloads._ideal_key(mode, ideal) for mode, ideal in conftest.drop_corpus()]
    got = [workloads._ideal_key(mode, ideal) for mode, ideal, _ in workloads.corpus_cases()]
    assert got == want
    assert sorted(keys("resolve_corpus", 9)) == sorted(want)


def test_generated_inputs_respect_their_limits():
    for spec in workloads.fan_inputs(3):
        assert workloads._antichain(spec["gens"])
        assert all(0 <= x <= workloads.FAN_MAX_EXP for g in spec["gens"] for x in g)
    for f in workloads.trinomials(3):
        n = f.ambient.n
        assert (0,) * n not in f.terms
        assert not any(all(e[i] for e in f.terms) for i in range(n))
        assert all(x <= workloads.ONE_STEP_MAX_EXP for e in f.terms for x in e)
        assert sum(map(sum, f.terms)) == workloads.ONE_STEP_DEGREE[n]


def test_golden_blocks_rebuild_the_transcripts():
    assert len(workloads.golden_commands()) == 27
    for path in workloads.GOLDEN.glob("*.txt"):
        text = path.read_text()
        blocks = workloads.transcript_blocks(text)
        assert all(command.startswith("mwb ") for command, _ in blocks)
        assert "\n".join(f"$ {c}\n{out}" for c, out in blocks) == text


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(reversed(values), 90) == 90
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile([1, 2, 3, 4], 50) == 2
    assert run.percentile([5], 90) == 5


def test_best_per_op_takes_each_operations_fastest_pass():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 1.5, 0.5]]
    assert run.best_per_op(passes) == [2.0, 1.0, 0.5]


def test_median_per_op_takes_each_operations_median_pass():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 1.5, 0.5]]
    assert run.median_per_op(passes) == [3.0, 1.5, 5.0]


def test_reference_speed_scales_by_the_nearest_calibrations():
    ref = run.CAL_REF_S
    # a machine at half the reference speed throughout: times halve
    assert run.at_reference_speed([0.2, 0.4], [2 * ref] * 3) == [0.1, 0.2]
    # the loop slows 3x for the last operation only; each operation is
    # scaled by the median of the 3 timings before and the 3 after it
    cals = [ref] * 7 + [3 * ref] * 4
    out = run.at_reference_speed([1.0] * 10, cals)
    assert out[:4] == [1.0] * 4
    assert out[-1] == 1 / 3
    assert out[6] == 1 / 2  # 3 at ref, 3 at 3 ref: median 2 ref
    with pytest.raises(ValueError):
        run.at_reference_speed([1.0, 1.0], [ref, ref])


def test_calibration_loop_runs_with_the_collector_off_and_restores_it():
    assert gc.isenabled()
    assert worker.calibrate() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        worker.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_setup_probe_scales_its_import_by_its_own_calibrations():
    took, scaled = run.probe_setup()
    assert took > 0 and scaled > 0
    # one probe's loop never runs ten times off the reference
    assert 0.1 < scaled / took < 10


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds g [2, 3]
    tree = [
        ("engine.resolve", 0.0, 10.0, -1, 0),
        ("invariant.invariant_at", 1.0, 4.0, 0, 0),
        ("groebner.groebner_basis", 2.0, 3.0, 1, 0),
        ("blowup.proper_transform", 5.0, 9.0, 0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    rec = spans.Pass()
    rec.spans = tree
    times = spans.pass_times(rec)
    assert times["engine.self_s"] == 3.0
    assert times["invariant.self_s"] == 2.0
    assert times["engine.resolve.s"] == 10.0
    assert sum(v for k, v in times.items() if k.endswith(".self_s")) == 10.0


def test_tracer_rebinds_every_namespace_and_restores_them():
    original = mwb.engine.invariant_at
    assert mwb.invariant.invariant_at is original
    ops = workloads.resolve_corpus(1)[:6]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mwb.engine.invariant_at is not original
        assert mwb.engine.invariant_at is mwb.invariant.invariant_at
        assert mwb.invariant_at is mwb.invariant.invariant_at
        for _ in range(2):
            tracer.begin_pass()
            for op in ops:
                assert op.check(op.run()) is None
    finally:
        tracer.uninstall()
    assert mwb.engine.invariant_at is original
    first, second = (spans.pass_counts(rec) for rec in tracer.passes)
    assert first == second
    assert first["engine.resolve.calls"] == 6
    assert first["engine.nodes"] > 6
    # every span nests inside its parent
    for name, start, end, parent, op in tracer.passes[0].spans:
        if parent >= 0:
            _, pstart, pend, _, pop = tracer.passes[0].spans[parent]
            assert pstart <= start <= end <= pend and pop == op


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_vertex_count_agrees_with_the_hull_oracle():
    oracle = workloads._load_oracles()
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 3)
        exps = {tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(3)}
        if len(exps) == 3:
            assert workloads.newton_vertices(list(exps)) == len(oracle.hull_vertices(exps))

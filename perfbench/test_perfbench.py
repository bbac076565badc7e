"""Tests of the benchmark itself: ``python -m pytest perfbench``."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _fake_ref(value: float) -> dict:
    return {"gate_error": value}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name]
    a, b = wl.make_inputs(7), wl.make_inputs(7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert wl.oracle_jobs(a) == wl.oracle_jobs(b)


def test_sweep_auto_seeds_differ_and_stay_in_range():
    wl = WORKLOADS["sweep-auto"]
    sigmas = [wl.make_inputs(s)["config"]["sigma"] for s in range(20)]
    assert len({tuple(s) for s in sigmas}) == 20
    for s in sigmas:
        assert all(0.4 <= v <= 1.6 for v in s)
        assert all(b > a for a, b in zip(s, s[1:]))


def _sweep_case():
    wl = WORKLOADS["sweep-auto"]
    inputs = wl.make_inputs(3)
    points = workloads._sweep_points(inputs["config"])
    refs = [_fake_ref(1e-4 * (i + 1)) for i in range(len(points))]
    rows = [[repr(s), v, repr(r["gate_error"]), "65536"]
            for (s, v), r in zip(points, refs)]
    return wl, inputs, refs, {"rows": rows, "failed": []}


def test_matching_outputs_pass():
    wl, inputs, refs, outputs = _sweep_case()
    ops = wl.check(inputs, outputs, refs)
    assert len(ops) == 6 and all(op.ok and not op.wrong for op in ops)


def test_corrupted_oracle_value_fails_that_point():
    wl, inputs, refs, outputs = _sweep_case()
    refs[5] = _fake_ref(refs[5]["gate_error"] + 5 * workloads.AUTO_TOL)
    ops = wl.check(inputs, outputs, refs)
    assert [i for i, op in enumerate(ops) if not op.ok] == [5]
    assert ops[5].wrong and ops[5].ratio == pytest.approx(5.0)


def test_corrupted_reported_gate_error_fails_that_point():
    wl, inputs, refs, outputs = _sweep_case()
    outputs["rows"][3][2] = repr(float(outputs["rows"][3][2]) * 1.001)
    ops = wl.check(inputs, outputs, refs)
    assert [i for i, op in enumerate(ops) if not op.ok] == [3]


def test_missing_point_fails():
    wl, inputs, refs, outputs = _sweep_case()
    del outputs["rows"][0]
    ops = wl.check(inputs, outputs, refs)
    assert not ops[0].ok and ops[0].ratio == math.inf


def test_convergence_error_fails_its_point_without_a_wrong_result():
    wl, inputs, refs, outputs = _sweep_case()
    point = workloads._sweep_points(inputs["config"])[4]
    outputs["rows"] = [r for r in outputs["rows"] if (float(r[0]), r[1]) != point]
    ops = wl.check(inputs, dict(outputs, failed=[point]), refs)
    assert [i for i, op in enumerate(ops) if not op.ok] == [4]
    assert not ops[4].wrong


def test_preset_tolerance_is_relative():
    cfg = {"sigma": [1.0], "variants": ["drag2"]}
    ok = workloads._sweep_ops("p", cfg, [["1.0", "drag2", repr(1e-3 * 1.005)]],
                              [_fake_ref(1e-3)], workloads.PRESET_REL,
                              workloads.ORACLE_ABS)
    bad = workloads._sweep_ops("p", cfg, [["1.0", "drag2", repr(1e-3 * 1.02)]],
                               [_fake_ref(1e-3)], workloads.PRESET_REL,
                               workloads.ORACLE_ABS)
    assert ok[0].ok and not bad[0].ok


def test_optimizer_task_checks():
    task = {"label": "t", "max_evals": 60, "prop_tol": 1e-8}
    good = {"gate_error": 1.0e-5, "n_evals": 60}
    assert workloads._task_op(task, good, 2e-5, 1.0e-5).ok
    # missing the target or overrunning the budget fails, the result is right
    miss = workloads._task_op(task, good, 0.5e-5, 1.0e-5)
    over = workloads._task_op(task, dict(good, n_evals=61), 2e-5, 1.0e-5)
    assert not miss.ok and not miss.wrong and miss.ratio == pytest.approx(2.0)
    assert not over.ok and not over.wrong
    # a reported error that disagrees with the oracle is a wrong result
    wrong = workloads._task_op(task, dict(good, gate_error=1.2e-5), 2e-5, 1.0e-5)
    assert not wrong.ok and wrong.wrong


def test_residual_gates():
    small = {"x": 1e-12, "y": 0.0, "z": 1e-12}
    star_gap = {"x": 0.0, "y": 0.0, "z": 5.7}
    assert workloads._residual_op(["ladder", "drag2", 2],
                                  {"mismatch": small, "coupling": 1e-12}).ok
    # the star order-1 mismatch is reported, not gated
    assert workloads._residual_op(["star", "z_only1", 1],
                                  {"mismatch": star_gap, "coupling": 1e-12}).ok
    # above the variant's own order the mismatch is not a defect
    assert workloads._residual_op(["ladder", "gaussian0", 1],
                                  {"mismatch": star_gap, "coupling": 1e-12}).ok
    assert not workloads._residual_op(["intermediate", "optimal1", 1],
                                      {"mismatch": star_gap, "coupling": 0.0}).ok
    assert not workloads._residual_op(["star", "optimal1", 0],
                                      {"mismatch": small, "coupling": 2e-8}).ok


def _nested_spans():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: sum(range(2000)), "model.generators")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "propagator.propagate")
    top = tracer.wrap(lambda: [mid() for _ in range(4)], "cli.run")
    top()
    top()
    return tracer.spans


def test_child_self_times_never_exceed_parent():
    spans = _nested_spans()
    own = tracing.self_times(spans)
    for i, s in enumerate(spans):
        assert 0.0 <= own[i] <= s[2] - s[1]
        if s[3] is not None:
            parent = spans[s[3]]
            assert parent[1] <= s[1] <= s[2] <= parent[2]
            assert own[i] <= parent[2] - parent[1]
    roots = sum(s[2] - s[1] for s in spans if s[3] is None)
    assert sum(own) == pytest.approx(roots, rel=1e-9)


def test_installed_hooks_trace_real_calls_and_restore():
    from drag_forge import (DragVariant, GaussianParams, build_sno, cli,
                            propagator)
    from drag_forge.pulses import controls_for

    original = cli.converge
    spec = build_sno(3, -2 * math.pi)
    params = GaussianParams.for_not(1.0)
    cs = controls_for(spec, DragVariant.DRAG1, params)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, n = cli.converge(spec, cs, params.t_g, 1e-4)
    finally:
        tracer.remove()
    assert cli.converge is original and not hasattr(propagator.propagate, "__wrapped__")
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["propagator.converge_calls"] == 1
    assert m["propagator.final_steps_p50"] == n
    assert m["propagator.converge_steps"] == sum(256 * 2 ** k for k in range(
        int(math.log2(n // 256)) + 1))
    assert 0.0 < m["propagator.converge_useful_ratio"] < 1.0
    own = tracing.self_times(tracer.spans)
    assert all(o >= 0.0 for o in own)


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "verify", "--seed", "1", "--seconds", "0",
                    "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    done = _run("--workload", "verify", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_clock_scales_each_call_by_the_reference_around_it(monkeypatch):
    clock = run.Clock()
    clock.ref = 1.0 * run.REF_NOMINAL_S
    monkeypatch.setattr(clock, "reference_seconds", lambda: 3.0 * run.REF_NOMINAL_S)
    result, raw, scale = clock.time(lambda: "done")
    assert result == "done" and raw >= 0.0
    assert scale == pytest.approx(0.5)  # the host ran at half the nominal speed
    assert clock.ref == 3.0 * run.REF_NOMINAL_S  # the next call's "before"


def test_units_of_layer_metrics():
    assert run.unit_of("propagator.ns_per_step") == "ns"
    assert run.unit_of("propagator.call_s_p90") == "s"
    assert run.unit_of("optimizer.resolve_share") == "ratio"
    assert run.unit_of("probe.d5.n4096.unitary_err") == "1"
    assert run.unit_of("propagator.steps") == "count"

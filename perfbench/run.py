"""drag-forge benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` repeats untraced passes for
about ``--seconds`` (and at least two) and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable
lines (every metric measured, with its unit, the uncalibrated times and any
failed operation) come first; the last line is the JSON object
``{"correct", "attempted", "failed", "metrics"}``.

The end-to-end times are calibrated: see ``Clock``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_CODE = ("import time; t = time.perf_counter(); "
               "import drag_forge.cli, drag_forge.adiabatic, drag_forge.optimizer; "
               "print(time.perf_counter() - t)")
MIN_PASSES = 2  # untraced passes, for a median per unit
SETUP_REPEATS = 5
REF_LOOPS, REF_REPEATS, REF_BATCH = 20000, 6, 1024
# seconds the reference kernel takes on the host of the README's baseline
REF_NOMINAL_S = 20.0e-3
RATIO_CAP = 1e9  # a missing output has an infinite ratio; JSON has no inf
PROBE_DIMS, PROBE_STEPS, PROBE_REPEATS = (3, 5, 9), (256, 4096, 32768), 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "error_ratio": "ratio"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    leaf = name.rsplit(".", 1)[1]
    if leaf == "ns_per_step":
        return "ns"
    if leaf == "bytes_written":
        return "B"
    if leaf.endswith("_s") or "_s_p" in leaf:
        return "s"
    if leaf.endswith(("ratio", "share")):
        return "ratio"
    if leaf.endswith(("err", "mismatch")):
        return "1"
    return "count"


class Clock:
    """Times calls in calibrated seconds.

    The host is shared: its neighbours change its speed by up to 1.7x, over
    fractions of a second and over minutes, and a run of a few passes does
    not average that out.  So each call is bracketed by a reference kernel,
    and its time is scaled by ``REF_NOMINAL_S`` over the mean of the
    kernel's times just before and just after it: seconds at the speed at
    which the kernel takes its nominal time.  The kernel is a pure-Python
    loop plus a batched 5x5 ``eigh`` and exponential, the two kinds of code
    the workloads spend their time in, which the host does not slow alike.
    It is the benchmark's own code, so no change to the program moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        h = (rng.standard_normal((REF_BATCH, 5, 5))
             + 1j * rng.standard_normal((REF_BATCH, 5, 5)))
        self._h = h + h.conj().transpose(0, 2, 1)
        self.ref = self.reference_seconds()

    def reference_seconds(self) -> float:
        import numpy as np

        t = time.perf_counter()
        for _ in range(REF_REPEATS):
            acc = 0
            for i in range(REF_LOOPS):
                acc += i * i
        w, v = np.linalg.eigh(self._h)
        (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        return time.perf_counter() - t

    def time(self, fn):
        """Run ``fn``; return (its result, raw seconds, calibration factor)."""
        before = self.ref
        t = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t
        self.ref = self.reference_seconds()
        return result, raw, 2.0 * REF_NOMINAL_S / (before + self.ref)


def _import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True,
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    return float(done.stdout)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def probe_jobs() -> list[dict]:
    import workloads

    return [workloads.job({"kind": "sno", "d": d, "delta2": -workloads.TWO_PI},
                           "drag2", 1.0) for d in PROBE_DIMS]


def probe(refs: list[dict]) -> dict[str, float]:
    """Per-layer cost and accuracy of one gate across d and N (DRAG2, sigma 1)."""
    import numpy as np
    import oracle
    from drag_forge import TimeGrid, gate_error, ideal_not, propagate
    from drag_forge.model import generators

    out = {}
    for job, ref in zip(probe_jobs(), refs):
        spec, cs, t_g = oracle.job_controls(job)
        gen, uid, u_ref = generators(spec), ideal_not(spec.d), oracle.unitary(ref)
        for n in PROBE_STEPS:
            grid = TimeGrid(t_g, n)
            ts = grid.midpoints()
            key = f"probe.d{spec.d}.n{n}"
            u = propagate(gen, cs, grid)
            out[f"{key}.sample_s"] = statistics.median(
                _timed(lambda: (cs.omega_x(ts), cs.omega_y(ts), cs.delta(ts)))
                for _ in range(PROBE_REPEATS))
            out[f"{key}.propagate_s"] = statistics.median(
                _timed(lambda: propagate(gen, cs, grid)) for _ in range(PROBE_REPEATS))
            out[f"{key}.gate_error_s"] = statistics.median(
                _timed(lambda: gate_error(u, uid)) for _ in range(PROBE_REPEATS))
            out[f"{key}.unitary_err"] = float(np.max(np.abs(u - u_ref)))
    return out


def pass_seconds(times: list[list[float]]) -> float:
    """Seconds of one pass: the sum over units of each unit's median time.

    A per-unit median over passes drops a burst of host load that hits one
    pass's unit, where a whole-pass median over few passes would not.
    """
    return sum(statistics.median(unit) for unit in zip(*times))


def measure(wl, inputs: dict, refs: list[dict], work: Path, seconds: float,
            trace: bool) -> tuple[dict, list, dict]:
    """Set up, run passes for ``seconds`` and check every pass's outputs.

    Returns (end-to-end metrics, checked operations, per-layer metrics).
    """
    import oracle
    import tracing

    clock = Clock()
    imports, builds = [], []  # (raw, calibrated) seconds
    for _ in range(SETUP_REPEATS):
        took, _, scale = clock.time(_import_seconds)
        imports.append((took, took * scale))
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        state, took, scale = clock.time(lambda: wl.setup(inputs, work))
        builds.append((took, took * scale))

    tracer = tracing.Tracer()
    # per pass, per unit: raw and calibrated seconds
    raw, cal, traced_raw, traced_cal, outputs = [], [], [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(cal) > len(traced_cal)
        if traced:
            tracer.install()
        try:
            pass_raw, pass_cal, results = [], [], []
            for call in wl.units(state):
                result, took, scale = clock.time(call)
                results.append(result)
                pass_raw.append(took)
                pass_cal.append(took * scale)
        finally:
            tracer.remove()
        (traced_raw if traced else raw).append(pass_raw)
        (traced_cal if traced else cal).append(pass_cal)
        outputs.append(wl.collect(state, results))
        # stop at the pass end nearest to ``seconds``
        if time.perf_counter() - start + sum(pass_raw) / 2 >= seconds and (
                len(traced_cal) >= 1 if trace else len(cal) >= MIN_PASSES):
            break
    peak = _peak_rss_mb()

    ops = []
    for out in outputs:
        ops += wl.check(inputs, out,
                        refs + oracle.lookup(wl.result_jobs(out), wl.name))
    worst = max(min(op.ratio, RATIO_CAP) for op in ops)

    def setup_seconds(k):
        return (statistics.median(t[k] for t in imports)
                + statistics.median(t[k] for t in builds))

    e2e = {"setup_s": setup_seconds(1), "wall_s": pass_seconds(cal),
           "peak_rss_mb": peak, "error_ratio": worst}

    layers = {}
    if trace:
        layers = tracing.layer_metrics(tracer.spans, len(traced_raw))
        own = sum(tracing.self_times(tracer.spans))
        layers.update(wl.output_metrics(inputs, outputs[-1]))
        layers["trace.overhead_ratio"] = pass_seconds(traced_cal) / pass_seconds(cal)
        layers["trace.self_sum_ratio"] = own / sum(map(sum, traced_raw))
        layers.update(probe(oracle.lookup(probe_jobs(), "probe")))
    print(f"uncalibrated setup_s {setup_seconds(0)!r} s, wall_s {pass_seconds(raw)!r} s")
    print("pass_s untraced " + " ".join(f"{sum(t):.3f}" for t in raw)
          + (" traced " + " ".join(f"{sum(t):.3f}" for t in traced_raw)
             if trace else ""))
    return e2e, ops, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drag_forge" / "__init__.py").is_file():
        print(f"error: no drag_forge sources under {SRC}; run from the root "
              "of a drag-forge checkout", file=sys.stderr)
        return 2
    # one core for the workload, the reference loop and the import children,
    # so that the loop times the core the workload ran on (the cores of a
    # shared host do not slow down together); the highest-numbered core,
    # since the lowest tends to take the interrupts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path[:0] = [str(SRC), str(HERE)]

    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    refs = oracle.lookup(wl.oracle_jobs(inputs), wl.name)
    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    try:
        e2e, ops, layers = measure(wl, inputs, refs, work, args.seconds,
                                   bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if not op.ok]
    for name, value in e2e.items():
        print(f"{name} {value!r} {END_TO_END[name]}")
    for name, value in layers.items():
        print(f"{name} {value!r} {unit_of(name)}")
    print(f"ops {len(ops)} attempted, {len(failed)} failed")
    for op in failed[:20]:
        print(f"FAILED {op.name} ratio {op.ratio:.3g}"
              + (" (wrong result)" if op.wrong else ""))

    chosen = layers if args.trace else e2e
    units = {name: unit_of(name) for name in layers} if args.trace else END_TO_END
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

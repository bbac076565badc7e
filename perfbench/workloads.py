"""The four benchmark workloads.

Each workload makes its inputs from the seed alone (``make_inputs``),
builds its systems and makes one warm-up call (``setup``), and lists the
calls into the package's public API that make up one pass (``units``); the
runner times each unit.  ``collect`` reads what a pass returned or wrote and
``check`` tests every operation against an independent reference.  An
operation is a sweep point, a population trace, a dressing curve, an
optimizer task, a residual case or a slope.

Each check yields an ``Op`` whose ``ratio`` is the checked deviation over
the deviation it allows, so ``ratio <= 1`` passes.  ``wrong`` marks a
result that disagrees with its reference; an optimizer task that misses its
target or overruns its budget fails without being wrong.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

TWO_PI = 2.0 * math.pi
SNO5 = {"kind": "sno", "d": 5, "delta2": -TWO_PI}
INTER5 = {"kind": "intermediate_sno", "d": 5, "delta2": -TWO_PI}
STAR6 = {"kind": "star", "delta": [-TWO_PI, -2 * TWO_PI, -3 * TWO_PI, -4 * TWO_PI],
         "lambda": [1.0, 1.0, 1.0, 1.0]}

# gate errors at a fixed step count must match the oracle to 1% (the
# figures are read on a log scale), above the oracle's own ~1e-11 accuracy
PRESET_REL, ORACLE_ABS = 1e-2, 1e-11
AUTO_TOL = 1e-9          # the tolerance the CLI converges "auto" points to
RESIDUAL_TOL = 1e-8      # constraint residual gate in verify
SLOPE_TOL = 0.3          # series-deviation slope gate in verify


class Workload:
    """What the workloads share: by default no reference jobs and no
    per-layer numbers beyond those every traced run reports."""

    def oracle_jobs(self, inputs: dict) -> list[dict]:
        return []

    def result_jobs(self, outputs: dict) -> list[dict]:
        """Reference jobs that depend on the program's results."""
        return []

    def output_metrics(self, inputs: dict, outputs: dict) -> dict[str, float]:
        """Per-layer numbers read from a pass's outputs rather than spans."""
        return {"cli.bytes_written": float(outputs.get("bytes", 0)),
                "adiabatic.star_mismatch": 0.0}


@dataclass
class Op:
    name: str
    ratio: float
    ok: bool
    wrong: bool = False


def _deviation_op(name: str, value: float, ref: float, allowed: float) -> Op:
    ratio = abs(value - ref) / allowed
    ok = math.isfinite(ratio) and ratio <= 1.0
    return Op(name, ratio, ok, wrong=not ok)


def _missing(name: str) -> Op:
    return Op(name, math.inf, False, wrong=True)


def job(system: dict, control, sigma: float, area: float = math.pi,
         tg_factor: float = 4.0) -> dict:
    return {"system": system, "control": control, "sigma": sigma,
            "area": area, "tg_factor": tg_factor}


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[2:]  # manifest pointer and header


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _sweep_points(cfg: dict) -> list[tuple[float, str]]:
    return [(float(s), v) for s in cfg["sigma"] for v in cfg["variants"]]


def _sweep_ops(prefix: str, cfg: dict, rows, refs, rel: float, abs_: float
               ) -> list[Op]:
    got = {(float(r[0]), r[1]): float(r[2]) for r in rows}
    ops = []
    for (sigma, variant), ref in zip(_sweep_points(cfg), refs):
        name = f"{prefix}:{variant}@{sigma!r}"
        if (sigma, variant) not in got:
            ops.append(_missing(name))
            continue
        want = ref["gate_error"]
        ops.append(_deviation_op(name, got[(sigma, variant)], want,
                                 rel * want + abs_))
    return ops


def _sweep_jobs(cfg: dict) -> list[dict]:
    return [job(cfg["system"], v, s, cfg["area"], cfg["tg_factor"])
            for s, v in _sweep_points(cfg)]


def _warm_point(spec, variant, sigma: float, n_steps: int) -> float:
    from drag_forge import (DragVariant, GaussianParams, TimeGrid, gate_error,
                            ideal_not, propagate)
    from drag_forge.pulses import controls_for

    params = GaussianParams.for_not(sigma)
    cs = controls_for(spec, DragVariant(variant), params)
    u = propagate(spec, cs, TimeGrid(params.t_g, n_steps))
    return gate_error(u, ideal_not(spec.d, spec.qubit_rows), spec.qubit_rows)


# -- presets -----------------------------------------------------------------

SWEEP_PRESETS = ("gaussian-benchmark", "fig3", "fig4", "fig7", "fig8")
POP_SIGMAS = (1.0 / 3.0, 2.0 / 3.0, 1.5)


class Presets(Workload):
    """The README's preset runs at their fixed 4096 steps."""

    name = "presets"

    def make_inputs(self, seed: int) -> dict:
        order = list(SWEEP_PRESETS) + ["pop-traces", "fig9"]
        random.Random(seed).shuffle(order)
        return {"order": order}

    def oracle_jobs(self, inputs: dict) -> list[dict]:
        from drag_forge.cli import preset_config

        jobs = [j for name in SWEEP_PRESETS for j in _sweep_jobs(preset_config(name))]
        return jobs + [job(SNO5, "gaussian0", s) for s in POP_SIGMAS]

    def setup(self, inputs: dict, work_dir: Path) -> dict:
        from drag_forge import build_sno

        _warm_point(build_sno(5, -TWO_PI), "gaussian0", 1.0, 4096)
        return {"order": inputs["order"], "out": work_dir}

    def units(self, state: dict) -> list:
        from drag_forge import cli

        return [lambda name=name: cli.run_preset(name, state["out"], jobs=1)
                for name in state["order"]]

    def collect(self, state: dict, _results) -> dict:
        out = state["out"]
        sweeps = {name: _read_rows(out / f"{name}.csv") for name in SWEEP_PRESETS}
        traces = []
        for i in range(1, len(POP_SIGMAS) + 1):
            rows = _read_rows(out / f"pop-traces-{i}.csv")
            traces.append(np.array(rows, dtype=float))
        fig9 = np.array(_read_rows(out / "fig9.csv"), dtype=float)
        return {"sweeps": sweeps, "traces": traces, "fig9": fig9,
                "bytes": _bytes_in(out)}

    def check(self, inputs: dict, outputs: dict, refs: list[dict]) -> list[Op]:
        from drag_forge.cli import preset_config

        ops, k = [], 0
        for name in SWEEP_PRESETS:
            cfg = preset_config(name)
            n = len(_sweep_points(cfg))
            ops += _sweep_ops(name, cfg, outputs["sweeps"][name], refs[k:k + n],
                              PRESET_REL, ORACLE_ABS)
            k += n
        for sigma, trace, ref in zip(POP_SIGMAS, outputs["traces"], refs[k:]):
            ops.append(_trace_op(sigma, trace, oracle.unitary(ref)))
        ops.append(_fig9_op(outputs["fig9"]))
        return ops


def _trace_op(sigma: float, trace: np.ndarray, u_ref: np.ndarray) -> Op:
    """Conservation at every node and final populations against the oracle."""
    name = f"pop-traces@{sigma!r}"
    if trace.shape != (4097, 6):
        return _missing(name)
    probs = trace[:, 1:]
    conservation = float(np.max(np.abs(probs.sum(axis=1) - 1.0))) / 1e-9
    want = np.abs(u_ref[:, 0]) ** 2
    final = float(np.max(np.abs(probs[-1] - want) / (PRESET_REL * want + ORACLE_ABS)))
    ratio = max(conservation, final)
    return Op(name, ratio, ratio <= 1.0, wrong=not ratio <= 1.0)


def _fig9_op(table: np.ndarray) -> Op:
    """The dressed weight against sqrt(2) / (1 + r) on the preset's grid."""
    ratios = [round(-3.0 + 0.01 * k, 10) for k in range(601)]
    ratios = np.array([r for r in ratios if abs(r + 1.0) > 0.02])
    if table.shape != (len(ratios), 3) or np.any(table[:, 0] != ratios):
        return _missing("fig9")
    want = math.sqrt(2.0) / (1.0 + ratios)
    dev = np.max(np.abs(table[:, 1] - want) / np.abs(want))
    ratio = max(float(dev) / 1e-12, float(np.max(np.abs(table[:, 2] - math.sqrt(2.0)))) / 1e-15)
    return Op("fig9", ratio, ratio <= 1.0, wrong=not ratio <= 1.0)


# -- sweep-auto --------------------------------------------------------------

AUTO_VARIANTS = ("gaussian0", "optimal1", "drag2")


class SweepAuto(Workload):
    """A seed-drawn ladder sweep converged by step doubling."""

    name = "sweep-auto"

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        # the hardest end of [0.4, 1.6] (the shortest pulse sets the worst
        # accuracy) and one sigma drawn from the rest of the range
        sigma = [0.4, round(0.4 + 1.2 * (1.0 - rng.random()), 6)]
        return {"config": {"name": "sweep-auto", "system": SNO5,
                           "variants": list(AUTO_VARIANTS), "sigma": sigma,
                           "area": math.pi, "tg_factor": 4.0,
                           "n_steps": "auto"}}

    def oracle_jobs(self, inputs: dict) -> list[dict]:
        return _sweep_jobs(inputs["config"])

    def setup(self, inputs: dict, work_dir: Path) -> dict:
        from drag_forge import build_sno

        # one config per point, so that each timed unit is about a second
        configs = []
        for k, (sigma, variant) in enumerate(_sweep_points(inputs["config"])):
            path = work_dir / f"sweep-auto-{k}.json"
            path.write_text(json.dumps(dict(inputs["config"], name=path.stem,
                                            sigma=[sigma], variants=[variant])))
            configs.append(path)
        _warm_point(build_sno(5, -TWO_PI), "gaussian0", 1.0, 256)
        return {"configs": configs, "out": work_dir / "out"}

    def units(self, state: dict) -> list:
        from drag_forge import cli
        from drag_forge.propagator import ConvergenceError

        def sweep(path):
            try:
                cli.run_config(path, state["out"], jobs=1)
            except ConvergenceError as exc:
                return exc
            return None

        return [lambda path=path: sweep(path) for path in state["configs"]]

    def collect(self, state: dict, results) -> dict:
        rows, failed = [], []
        for path, error in zip(state["configs"], results):
            if error is None:
                rows += _read_rows(state["out"] / f"{path.stem}.csv")
            else:
                cfg = json.loads(path.read_text())
                failed.append((cfg["sigma"][0], cfg["variants"][0]))
        return {"rows": rows, "failed": failed, "bytes": _bytes_in(state["out"])}

    def check(self, inputs: dict, outputs: dict, refs: list[dict]) -> list[Op]:
        cfg = inputs["config"]
        ops = _sweep_ops("sweep-auto", cfg, outputs["rows"], refs, 0.0, AUTO_TOL)
        # a point that raised ConvergenceError fails without being wrong
        for i, point in enumerate(_sweep_points(cfg)):
            if point in outputs["failed"]:
                ops[i] = Op(ops[i].name, math.inf, False)
        return ops


# -- optimize ----------------------------------------------------------------

class Optimize(Workload):
    """The fig5 optimizer path at a repeatable size, on sno5 at sigma = 1.

    Two tasks are seeded at a first-order closed form whose coefficients
    their mask spans, and must end at or below its gate error.  The free
    (alpha, beta, gamma) task starts from the plain Gaussian and must at
    least match the first-order DRAG pulse, which that span contains.
    """

    name = "optimize"

    def make_inputs(self, seed: int) -> dict:
        from drag_forge import DragVariant, build_sno
        from drag_forge.pulses import first_order_coefficients

        spec = build_sno(5, -TWO_PI)

        def closed(variant):
            b1, c2 = first_order_coefficients(spec, DragVariant(variant))
            return [1.0, -b1, c2, 0.0]

        tasks = [
            {"label": "y_only1", "mask": [True, True, False, False],
             "x0": closed("y_only1"), "target": closed("y_only1"),
             "max_evals": 60, "prop_tol": 1e-8},
            {"label": "z_only1", "mask": [True, False, True, False],
             "x0": closed("z_only1"), "target": closed("z_only1"),
             "max_evals": 60, "prop_tol": 1e-8},
            {"label": "free", "mask": [True, True, True, False],
             "x0": [1.0, 0.0, 0.0, 0.0], "target": closed("drag1"),
             "max_evals": 80, "prop_tol": 1e-9},
        ]
        return {"seed": seed, "tasks": tasks}

    def oracle_jobs(self, inputs: dict) -> list[dict]:
        return [job(SNO5, t["target"], 1.0) for t in inputs["tasks"]]

    def setup(self, inputs: dict, work_dir: Path) -> dict:
        from drag_forge import GaussianParams, build_sno
        from drag_forge.optimizer import OptimizeTask

        spec = build_sno(5, -TWO_PI)
        params = GaussianParams.for_not(1.0)
        tasks = [OptimizeTask(spec, params, tuple(t["mask"]), x0=tuple(t["x0"]),
                              max_evals=t["max_evals"], prop_tol=t["prop_tol"],
                              seed=inputs["seed"])
                 for t in inputs["tasks"]]
        _warm_point(spec, "gaussian0", 1.0, 256)
        return {"tasks": tasks}

    def units(self, state: dict) -> list:
        from drag_forge import optimizer

        return [lambda task=task: optimizer.optimize(task) for task in state["tasks"]]

    def collect(self, state: dict, result) -> dict:
        return {"results": [{"x": list(r.x), "gate_error": r.gate_error,
                             "n_evals": r.n_evals, "converged": r.converged}
                            for r in result]}

    def result_jobs(self, outputs: dict) -> list[dict]:
        return [job(SNO5, r["x"], 1.0) for r in outputs["results"]]

    def check(self, inputs: dict, outputs: dict, refs: list[dict]) -> list[Op]:
        """``refs`` holds the target references, then those at the results."""
        tasks = inputs["tasks"]
        targets, reached = refs[:len(tasks)], refs[len(tasks):]
        return [_task_op(task, res, target["gate_error"], at_x["gate_error"])
                for task, res, target, at_x in zip(tasks, outputs["results"],
                                                   targets, reached)]


def _task_op(task: dict, res: dict, target: float, exact: float) -> Op:
    """Target, budget and reported-error checks of one optimizer task.

    ``exact`` is the oracle's gate error at the returned coefficients; the
    optimizer's own figure comes from a grid converged to ``prop_tol``.
    """
    reported = abs(res["gate_error"] - exact) / task["prop_tol"]
    ratio = max(exact / target, reported)
    wrong = not reported <= 1.0
    ok = ratio <= 1.0 and res["n_evals"] <= task["max_evals"]
    return Op(f"optimize:{task['label']}", ratio, ok, wrong)


# -- verify ------------------------------------------------------------------

LADDER_VARIANTS = ("gaussian0", "z_only1", "y_only1", "optimal1", "drag1",
                   "z_only2", "y_only2", "drag2")
MULTI_VARIANTS = ("z_only1", "y_only1", "optimal1")
SYSTEMS = {"ladder": SNO5, "intermediate": INTER5, "star": STAR6}


def own_order(variant: str) -> int:
    return 0 if variant == "gaussian0" else int(variant[-1])


class Verify(Workload):
    """Frame-expansion residuals of every published closed form, and the
    series-versus-exact slopes of acceptance criterion 4."""

    name = "verify"

    def make_inputs(self, seed: int) -> dict:
        cases = [[topo, v, order]
                 for topo, variants in (("ladder", LADDER_VARIANTS),
                                        ("intermediate", MULTI_VARIANTS),
                                        ("star", MULTI_VARIANTS))
                 for v in variants for order in (0, 1, 2)]
        rng = random.Random(seed)
        rng.shuffle(cases)
        slopes = [0, 1, 2]
        rng.shuffle(slopes)
        return {"cases": cases, "slopes": slopes, "n_steps": 4096,
                "slope_steps": 2048, "slope_gate_times": [4.0, 8.0, 16.0]}

    def setup(self, inputs: dict, work_dir: Path) -> dict:
        from drag_forge import DragVariant, GaussianParams, TimeGrid
        from drag_forge import adiabatic

        specs = {k: oracle.build_system(doc) for k, doc in SYSTEMS.items()}
        params = GaussianParams.for_not(1.0)
        adiabatic.constraint_residuals(specs["ladder"], DragVariant.OPTIMAL1,
                                       params, TimeGrid(params.t_g, 256), 0)
        return {"specs": specs, "params": params, **inputs}

    def units(self, state: dict) -> list:
        from drag_forge import DragVariant, GaussianParams, TimeGrid
        from drag_forge import adiabatic

        specs, params = state["specs"], state["params"]
        grid = TimeGrid(params.t_g, state["n_steps"])

        def residual(topo, variant, order):
            return adiabatic.constraint_residuals(specs[topo], DragVariant(variant),
                                                  params, grid, order)

        def deviations(order):
            return [adiabatic.series_vs_exact_deviation(
                specs["ladder"], DragVariant.OPTIMAL1,
                GaussianParams(math.pi, tg / 4.0, tg),
                TimeGrid(tg, state["slope_steps"]), order)
                for tg in state["slope_gate_times"]]

        return ([lambda case=case: residual(*case) for case in state["cases"]]
                + [lambda order=order: deviations(order) for order in state["slopes"]])

    def collect(self, state: dict, results) -> dict:
        n = len(state["cases"])
        reports, devs = results[:n], results[n:]
        return {"residuals": [{"mismatch": r.qubit_mismatch,
                               "coupling": r.coupling_residual} for r in reports],
                "slopes": {order: 0.5 * (math.log2(d[0] / d[1]) + math.log2(d[1] / d[2]))
                           for order, d in zip(state["slopes"], devs)}}

    def output_metrics(self, inputs: dict, outputs: dict) -> dict[str, float]:
        """The largest star order-1 qubit mismatch, reported, not gated."""
        star = [max(res["mismatch"].values())
                for (topo, _, order), res in zip(inputs["cases"], outputs["residuals"])
                if topo == "star" and order == 1]
        return {**super().output_metrics(inputs, outputs),
                "adiabatic.star_mismatch": max(star)}

    def check(self, inputs: dict, outputs: dict, refs: list[dict]) -> list[Op]:
        ops = [_residual_op(case, res)
               for case, res in zip(inputs["cases"], outputs["residuals"])]
        for order in inputs["slopes"]:
            slope = outputs["slopes"][order]
            ratio = abs(slope - (order + 1)) / SLOPE_TOL
            ok = ratio <= 1.0
            ops.append(Op(f"slope:order{order}", ratio, ok, wrong=not ok))
        return ops


def _residual_op(case, res: dict) -> Op:
    """Coupling residual of every case; the qubit mismatch of ladder and
    intermediate cases up to the variant's own order.  The star mismatch
    is reported, not gated (the lambda-tilde substitution leaves it open)."""
    topo, variant, order = case
    ratio = res["coupling"] / RESIDUAL_TOL
    if topo != "star" and order <= own_order(variant):
        ratio = max(ratio, max(res["mismatch"].values()) / RESIDUAL_TOL)
    ok = ratio <= 1.0
    return Op(f"residual:{topo}:{variant}:order{order}", ratio, ok, wrong=not ok)


WORKLOADS = {w.name: w for w in (Presets(), SweepAuto(), Optimize(), Verify())}


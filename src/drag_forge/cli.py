"""Batch experiment runner.

``drag-forge run <preset>`` reproduces the bundled benchmark sweeps and
writes a CSV plus a JSON manifest next to it; ``drag-forge run --config
FILE`` executes the same sweep machinery from a user config.  Output is
deterministic: identical configs give identical bytes.

Exit codes: 0 success, 2 unknown preset, invalid config or invalid option
value, 3 numerical convergence failure.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dressing import lambda_sno
from .fidelity import gate_error, ideal_not
from .model import (SystemSpec, _is_integer, _real, build_intermediate_sno,
                    build_sno, build_star, spec_from_json)
from .optimizer import OptimizeTask, optimize
from .propagator import (_STEP_CAP, ConvergenceError, TimeGrid, converge,
                         populations, propagate)
from .pulses import DragVariant, GaussianParams, controls_for

__all__ = ["main", "run_preset", "run_config", "preset_config", "PRESETS"]

_DELTA2 = -2.0 * math.pi  # default time-unit convention: |delta2| = 2*pi

_FIRST_ORDER_SET = ["gaussian0", "z_only1", "y_only1", "drag1", "optimal1"]
_SECOND_ORDER_SET = ["gaussian0", "z_only2", "y_only2", "drag2", "optimal1"]
_MULTI_SET = ["gaussian0", "z_only1", "y_only1", "optimal1"]

_SIGMA_GRID = [round(0.2 * k, 10) for k in range(2, 11)]  # 0.4 .. 2.0
_SNO5 = {"kind": "sno", "d": 5, "delta2": _DELTA2}
# what a sweep config leaves out; pop-traces takes the same step count
_SWEEP_DEFAULTS = {"area": math.pi, "tg_factor": 4.0, "n_steps": 4096}

# sweep presets: name -> (system, variants, sigma grid)
_SWEEPS = {
    "gaussian-benchmark": (_SNO5, ["gaussian0"], [1.0 / 3.0, 2.0 / 3.0, 1.5]),
    "fig3": (_SNO5, _FIRST_ORDER_SET, _SIGMA_GRID),
    "fig4": (_SNO5, _SECOND_ORDER_SET, _SIGMA_GRID),
    "fig7": (dict(_SNO5, kind="intermediate_sno"), _MULTI_SET, _SIGMA_GRID),
    "fig8": ({"kind": "star",
              "delta": [_DELTA2, 2 * _DELTA2, 3 * _DELTA2, 4 * _DELTA2],
              "lambda": [1.0, 1.0, 1.0, 1.0]},
             _MULTI_SET, _SIGMA_GRID),
}


class ConfigError(ValueError):
    pass


def preset_config(name: str) -> dict:
    """Plain-dict sweep config of a named preset (sweep presets only)."""
    if name not in _SWEEPS:
        raise ConfigError(f"no sweep preset {name!r}; sweep presets: "
                          f"{', '.join(_SWEEPS)}")
    system, variants, sigma = _SWEEPS[name]
    return copy.deepcopy({"name": name, "system": system, "variants": variants,
                          "sigma": sigma, **_SWEEP_DEFAULTS})


def _build_system(doc: dict) -> SystemSpec:
    kind = doc.get("kind")
    if kind in ("sno", "intermediate_sno"):
        d = doc["d"]
        if not _is_integer(d):  # the builders call range(d) first
            raise ValueError(f"d must be an integer, got {d!r}")
        build = build_sno if kind == "sno" else build_intermediate_sno
        return build(d, _real(doc["delta2"], "delta2"))
    if kind == "star":
        delta, lam = ([_real(v, f"{key}[{i}]") for i, v in enumerate(doc[key])]
                      for key in ("delta", "lambda"))
        return build_star(delta, lam)
    if kind == "spec":
        return spec_from_json(json.dumps(doc["spec"]))
    raise ValueError(f"system.kind: unknown kind {kind!r}")


def _is_number(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _check_steps(n, auto: bool) -> int:
    """An explicit step count, an integer from 16 to ``_STEP_CAP``, as an
    int: json cannot write a numpy integer into the manifest."""
    if not (_is_integer(n) and 16 <= n <= _STEP_CAP):
        also = ' or "auto"' if auto else ""
        raise ConfigError(f"n_steps: must be an integer from 16 to "
                          f"{_STEP_CAP}{also}, got {n!r}")
    return operator.index(n)


def _validate_config(cfg: dict, n_steps=None) -> tuple[dict, SystemSpec]:
    """Checked copy of a sweep config with defaults filled in, and its system.

    ``n_steps``, when given, overrides the config's own step count before
    the check, so an override is validated like any config value.
    """
    def fail(path, msg):
        raise ConfigError(f"{path}: {msg}")

    if not isinstance(cfg, dict):
        fail("$", "config must be a JSON object")
    for key in ("name", "system", "variants", "sigma"):
        if key not in cfg:
            fail(key, "missing required field")
    name = cfg["name"]
    if not isinstance(name, str) or not name:
        fail("name", "must be a non-empty string")
    if name in (".", "..") or "\0" in name or Path(name).name != name:
        fail("name", f"must be a plain file name, got {name!r}")
    if len(f"{name}.manifest.json".encode(errors="surrogatepass")) > 255:
        fail("name", "too long: <name>.manifest.json exceeds 255 bytes")
    if not isinstance(cfg["system"], dict):
        fail("system", "must be an object")
    try:
        spec = _build_system(cfg["system"])
    except (KeyError, TypeError) as exc:
        fail("system", f"invalid system: {exc}")
    except ValueError as exc:
        fail("system", str(exc))
    variants = cfg["variants"]
    if not isinstance(variants, list) or not variants:
        fail("variants", "must be a non-empty list")
    for i, v in enumerate(variants):
        try:  # unknown names; a known one works on every topology
            DragVariant(v)
        except ValueError as exc:
            fail(f"variants[{i}]", str(exc))
    sig = cfg["sigma"]
    if not isinstance(sig, list) or not sig:
        fail("sigma", "must be a non-empty list")
    for i, s in enumerate(sig):
        if not _is_number(s):
            fail(f"sigma[{i}]", f"must be a finite number, got {s!r}")
    if any(b <= a for a, b in zip(sig, sig[1:])):
        fail("sigma", "must be strictly increasing")
    if any(s <= 0 for s in sig):
        fail("sigma", "values must be positive")
    out = {**_SWEEP_DEFAULTS, **cfg}
    if n_steps is not None:
        out["n_steps"] = n_steps
    if out["n_steps"] != "auto":
        out["n_steps"] = _check_steps(out["n_steps"], auto=True)
    for key in ("area", "tg_factor"):
        if not _is_number(out[key]):
            fail(key, f"must be a finite number, got {out[key]!r}")
    if out["tg_factor"] <= 0:
        fail("tg_factor", "must be positive")
    return out, spec


def _sweep_point(args) -> tuple:
    spec, variant, sigma, area, tg_factor, n_steps = args
    uid = ideal_not(spec.d, spec.qubit_rows)
    # finite config values can still give unusable pulses; Gaussian tails
    # underflow legitimately at a large tg_factor
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            params = GaussianParams(area, sigma, tg_factor * sigma)
            cs = controls_for(spec, variant, params)
            if n_steps == "auto":
                u, used = converge(spec, cs, params.t_g, 1e-9)
            else:
                u = propagate(spec, cs, TimeGrid(params.t_g, n_steps))
                used = n_steps
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"sigma={sigma!r}, area={area!r}, "
                          f"tg_factor={tg_factor!r}: {exc}") from None
    return sigma, variant, gate_error(u, uid, spec.qubit_rows), used


def _write_csv(path: Path, name: str, header: str, rows) -> Path:
    """CSV whose first line names ``<name>.manifest.json``.

    Values are written with str, which is repr (round-trip exact) for floats.
    The first write of every run, so it makes the output directory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# manifest: {name}.manifest.json\n{header}\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return path


def _write_manifest(out_dir: Path, name: str, **fields) -> Path:
    """``<name>.manifest.json`` with the run name, package version and fields."""
    path = out_dir / f"{name}.manifest.json"
    doc = {"name": name, "version": __version__, **fields}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def _write_table(out_dir: Path, name: str, header: str, table,
                 **fields) -> Path:
    """``<name>.csv`` plus the manifest that names it; returns the CSV path."""
    path = _write_csv(out_dir / f"{name}.csv", name, header, table)
    _write_manifest(out_dir, name, csv=path.name, **fields)
    return path


def _map(fn, items: list, jobs: int) -> list:
    """``[fn(x) for x in items]`` on at most ``jobs`` processes, one per item."""
    workers = min(jobs, len(items))  # a pool forks all its workers at once
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # ~25 ms; serial runs skip
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_sweep(cfg: dict, spec: SystemSpec, out_dir: Path, jobs: int) -> Path:
    points = [(spec, v, s, cfg["area"], cfg["tg_factor"], cfg["n_steps"])
              for s in cfg["sigma"] for v in cfg["variants"]]
    try:
        rows = _map(_sweep_point, points, jobs)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{exc} (while sweeping {cfg['name']})")

    return _write_table(out_dir, cfg["name"], "sigma,variant,gate_error,n_steps",
                        rows, config={k: cfg[k] for k in sorted(cfg)},
                        rows=[{"sigma": s, "variant": v, "n_steps": used}
                              for s, v, _, used in rows])


# -- non-sweep presets --------------------------------------------------------

def _run_fig5(name: str, out_dir: Path, sigmas=(0.5, 0.75, 1.0, 1.5),
              max_evals: int = 250, prop_tol: float = 1e-9,
              jobs: int = 1) -> Path:
    spec = _build_system(_SNO5)
    free = ("alpha", "beta", "gamma", "delta0")  # in OptimizeTask.mask order
    labels = [lbl + ("+delta0" if name == "fig5b" else "") for lbl in
              ("alpha", "alpha+gamma", "alpha+beta", "alpha+beta+gamma")]
    cases = [(s, lbl) for s in sigmas for lbl in labels]
    tasks = [OptimizeTask(spec, GaussianParams.for_not(s),
                          tuple(p in lbl.split("+") for p in free),
                          max_evals=max_evals, prop_tol=prop_tol)
             for s, lbl in cases]
    rows = [(*case, res) for case, res in zip(cases, _map(optimize, tasks, jobs))]
    return _write_table(
        out_dir, name, "sigma,mask,alpha,beta,gamma,delta0,gate_error,n_evals",
        [(s, lbl, *res.x, res.gate_error, res.n_evals) for s, lbl, res in rows],
        config={"system": _SNO5, "sigma": list(sigmas),
                "masks": labels, "max_evals": max_evals},
        rows=[{"sigma": s, "mask": lbl, "n_steps": res.n_steps,
               "n_evals": res.n_evals, "converged": res.converged}
              for s, lbl, res in rows])


def _run_fig9(out_dir: Path) -> Path:
    ratios = [round(-3.0 + 0.01 * k, 10) for k in range(601)]
    guard = 0.02
    rows = [(r, lambda_sno(2, r), math.sqrt(2.0))
            for r in ratios if abs(r + 1.0) > guard]
    return _write_table(out_dir, "fig9", "ratio,lambda1_cavity,lambda1_direct",
                        rows, config={"ratio_range": [-3.0, 3.0], "step": 0.01,
                                      "pole_guard": guard, "transition": 2},
                        rows=len(rows))


def _run_pop_traces(out_dir: Path, n_steps) -> Path:
    spec = _build_system(_SNO5)
    header = "t," + ",".join(f"p{j}" for j in range(spec.d))
    files = []
    for i, sigma in enumerate((1.0 / 3.0, 2.0 / 3.0, 1.5), start=1):
        params = GaussianParams.for_not(sigma)
        cs = controls_for(spec, DragVariant.GAUSSIAN0, params)
        times, probs = populations(spec, cs, TimeGrid(params.t_g, n_steps), 0)
        path = _write_csv(out_dir / f"pop-traces-{i}.csv", "pop-traces", header,
                          np.column_stack([times, probs]).tolist())
        files.append({"sigma": sigma, "csv": path.name, "n_steps": n_steps})
    return _write_manifest(
        out_dir, "pop-traces",
        config={"system": _SNO5, "variant": "gaussian0", "initial_level": 0},
        files=files)


# presets that are not sweeps: name -> runner(out_dir, n_steps, jobs); a
# pop-traces trace is too short to pay back a worker, so only fig5 forks
_RUNNERS = {
    "fig5a": lambda out, _, jobs: _run_fig5("fig5a", out, jobs=jobs),
    "fig5b": lambda out, _, jobs: _run_fig5("fig5b", out, jobs=jobs),
    "fig9": lambda out, _, jobs: _run_fig9(out),
    "pop-traces": lambda out, n, jobs: _run_pop_traces(
        out, n or _SWEEP_DEFAULTS["n_steps"]),
}
PRESETS = (*_SWEEPS, *_RUNNERS)


def _check_jobs(jobs) -> None:
    if not (_is_integer(jobs) and jobs >= 1):
        raise ConfigError(f"--jobs: must be an integer >= 1, got {jobs!r}")


def _out_dir(out_dir) -> Path:
    """``out_dir`` as a Path, refused at once if a file is in its way; the
    directory is made at the first write, so a failed run leaves none."""
    out_dir = Path(out_dir)
    found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"out: {found} is not a directory")
    return out_dir


def run_preset(name: str, out_dir, jobs: int = 1, n_steps=None) -> Path:
    """Execute a named preset; returns the primary output path.

    ``n_steps`` applies to the sweep presets and, as an integer, pop-traces.
    ``jobs`` caps the worker processes at one per sweep point or fig5 task
    (fig9 and pop-traces never fork); output bytes do not depend on it.
    """
    _check_jobs(jobs)
    run = _RUNNERS.get(name)
    if run is None:
        if name not in _SWEEPS:
            raise ConfigError(f"unknown preset {name!r}; available: "
                              f"{', '.join(PRESETS)}")
        cfg, spec = _validate_config(preset_config(name), n_steps)
        return _run_sweep(cfg, spec, _out_dir(out_dir), jobs)
    if n_steps is not None and (name != "pop-traces" or n_steps == "auto"):
        raise ConfigError(f"--steps: {name} does not take {n_steps!r} (sweep "
                          "presets take it, pop-traces as an integer)")
    if n_steps is not None:
        n_steps = _check_steps(n_steps, auto=False)
    return run(_out_dir(out_dir), n_steps, jobs)


def run_config(path, out_dir, jobs: int = 1, n_steps=None) -> Path:
    """Execute a sweep described by a JSON config file."""
    _check_jobs(jobs)
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"{path}: {exc}") from None
    cfg, spec = _validate_config(cfg, n_steps)
    return _run_sweep(cfg, spec, _out_dir(out_dir), jobs)


def _steps_arg(text: str):
    """argparse type of --steps: an integer >= 16 or 'auto'."""
    if text == "auto":
        return text
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 16:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer >= 16 or 'auto'")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drag-forge",
        description="Pulse-synthesis benchmark sweeps for leakage-corrected "
                    "single-qubit gates.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a preset or a JSON sweep config")
    run.add_argument("preset", nargs="?", help=f"one of: {', '.join(PRESETS)}")
    run.add_argument("--config", help="path to a JSON sweep config")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel workers (integer >= 1)")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--steps", type=_steps_arg, default=None,
                     help="integrator steps per point (integer from 16 to "
                          f"{_STEP_CAP} or 'auto')")
    args = parser.parse_args(argv)

    try:
        if args.preset and args.config:  # one would be silently dropped
            raise ConfigError(f"give a preset or --config, not both: got "
                              f"{args.preset!r} and --config {args.config!r}")
        if args.config:
            out = run_config(args.config, args.out, args.jobs, args.steps)
        elif args.preset:
            out = run_preset(args.preset, args.out, args.jobs, args.steps)
        else:
            print("nothing to run: give a preset name or --config",
                  file=sys.stderr)
            return 2
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans recorded around the package's layer boundaries, from outside it.

``Tracer.install`` replaces public functions in the module namespaces where
the package looks them up (``drag_forge.cli.propagate``,
``drag_forge.propagator.generators``, ...) with wrappers that record a
span; ``Tracer.remove`` puts the originals back.  A span is
``[name, start, end, parent, info]``; spans stay in memory until the run
ends.  The layer of a span is the part of its name before the dot.
"""
from __future__ import annotations

import statistics
import time

LAYERS = ("model", "pulses", "propagator", "fidelity", "optimizer",
          "adiabatic", "dressing", "cli")


def _steps(args, kwargs, result) -> dict:
    return {"steps": args[2].n_steps}


def _converged(args, kwargs, result) -> dict:
    return {"final_steps": result[1]}


def _optimized(args, kwargs, result) -> dict:
    task = args[0]
    return {"evals": result.n_evals, "max_evals": task.max_evals,
            "converged": result.converged}


# (module, attribute, span name, info extractor)
HOOKS = (
    ("cli", "run_preset", "cli.run", None),
    ("cli", "run_config", "cli.run", None),
    ("cli", "propagate", "propagator.propagate", _steps),
    ("cli", "converge", "propagator.converge", _converged),
    ("cli", "populations", "propagator.populations", _steps),
    ("cli", "controls_for", "pulses.controls", None),
    ("cli", "gate_error", "fidelity.gate_error", None),
    ("cli", "lambda_sno", "dressing.lambda", None),
    ("propagator", "propagate", "propagator.propagate", _steps),
    ("propagator", "generators", "model.generators", None),
    ("propagator", "_sample_controls", "pulses.sample", None),
    ("optimizer", "optimize", "optimizer.optimize", _optimized),
    ("optimizer", "_resolve_steps", "optimizer.resolve", None),
    ("optimizer", "propagate", "propagator.propagate", _steps),
    ("optimizer", "build_controls", "pulses.controls", None),
    ("optimizer", "gate_error", "fidelity.gate_error", None),
    ("adiabatic", "constraint_residuals", "adiabatic.residuals", None),
    ("adiabatic", "series_vs_exact_deviation", "adiabatic.series", None),
    ("adiabatic", "generators", "model.generators", None),
    ("adiabatic", "controls_for", "pulses.controls", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, info=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None,
                          None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if info is not None:
                spans[idx][4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS) -> None:
        import importlib

        for mod_name, attr, name, info in hooks:
            mod = importlib.import_module(f"drag_forge.{mod_name}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, info))

    def remove(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q * 100)) - 1]


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer counts and times, averaged over ``passes`` traced passes."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ())) / passes

    def self_sum(name):
        return sum(own[i] for i in by_name.get(name, ())) / passes

    prop = by_name.get("propagator.propagate", [])
    prop_steps = sum(spans[i][4]["steps"] for i in prop)
    prop_time = sum(spans[i][2] - spans[i][1] for i in prop)
    conv_steps = sum(spans[i][4]["steps"] for i in prop
                     if _ancestor(spans, i, "propagator.converge"))
    finals = [spans[i][4]["final_steps"]
              for i in by_name.get("propagator.converge", [])]
    resolve_steps = sum(spans[i][4]["steps"] for i in prop
                        if _ancestor(spans, i, "optimizer.resolve"))
    opt_steps = sum(spans[i][4]["steps"] for i in prop
                    if _ancestor(spans, i, "optimizer.optimize"))
    tasks = [spans[i][4] for i in by_name.get("optimizer.optimize", [])]

    m = {
        "propagator.propagate_calls": calls("propagator.propagate"),
        "propagator.steps": prop_steps / passes,
        "propagator.propagate_self_s": self_sum("propagator.propagate"),
        "propagator.ns_per_step": 1e9 * prop_time / prop_steps if prop_steps else 0.0,
        "propagator.call_s_p50": _quantile([spans[i][2] - spans[i][1] for i in prop], 0.5),
        "propagator.call_s_p90": _quantile([spans[i][2] - spans[i][1] for i in prop], 0.9),
        "propagator.converge_calls": calls("propagator.converge"),
        "propagator.converge_s": total("propagator.converge"),
        "propagator.converge_steps": conv_steps / passes,
        "propagator.final_steps_p50": statistics.median(finals) if finals else 0.0,
        "propagator.converge_useful_ratio": sum(finals) / conv_steps if conv_steps else 0.0,
        "propagator.populations_s": total("propagator.populations"),
        "model.generators_calls": calls("model.generators"),
        "model.generators_s": total("model.generators"),
        "pulses.controls_calls": calls("pulses.controls"),
        "pulses.controls_s": total("pulses.controls"),
        "pulses.sample_calls": calls("pulses.sample"),
        "pulses.sample_s": total("pulses.sample"),
        "fidelity.gate_error_calls": calls("fidelity.gate_error"),
        "fidelity.gate_error_s": total("fidelity.gate_error"),
        "optimizer.tasks": len(tasks) / passes,
        "optimizer.evals": sum(t["evals"] for t in tasks) / passes,
        "optimizer.evals_over_budget": sum(max(0, t["evals"] - t["max_evals"])
                                           for t in tasks) / passes,
        "optimizer.resolve_share": resolve_steps / opt_steps if opt_steps else 0.0,
        "optimizer.converged_ratio": (sum(t["converged"] for t in tasks) / len(tasks)
                                      if tasks else 0.0),
        "adiabatic.residual_calls": calls("adiabatic.residuals"),
        "adiabatic.residual_s": total("adiabatic.residuals"),
        "adiabatic.series_calls": calls("adiabatic.series"),
        "adiabatic.series_s": total("adiabatic.series"),
        "dressing.lambda_calls": calls("dressing.lambda"),
        "dressing.lambda_s": total("dressing.lambda"),
        "cli.runs": calls("cli.run"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own[i] for i, s in enumerate(spans)
            if s[0].split(".", 1)[0] == layer) / passes
    return m

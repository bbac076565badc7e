"""Derivative-free tuning of the four-coefficient control ansatz.

The objective is the average gate error of a NOT built from
Ansatz(alpha, beta, gamma, delta0) controls; any subset of the four
coefficients can be frozen, mirroring the different correction families
(in-phase only, detuning, quadrature, constant offset).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fidelity import gate_error, ideal_not
from .model import HamiltonianGenerators, SystemSpec
from .propagator import TimeGrid, _as_generators, converge, propagate
from .pulses import Ansatz, GaussianParams, build_controls

__all__ = ["OptimizeTask", "OptimizeResult", "optimize"]

_TOL = 1e-10  # simplex diameter that ends one Nelder-Mead run
_RESTARTS = 3  # perturbed restarts from the best point after the first run
# expansion, contraction and shrink factors; the reflection factor is 1
_GAMMA, _RHO, _SHRINK = 2.0, 0.5, 0.5


@dataclass(frozen=True)
class OptimizeTask:
    """One optimization problem over the ansatz coefficients.

    ``mask`` selects which of (alpha, beta, gamma, delta0) are free; the
    rest stay at their initial values.  ``prop_tol`` bounds the Richardson
    estimate of the unitary's discretisation error at ``x0`` (see
    :func:`~drag_forge.propagator.converge`), which fixes the grid.
    """

    spec: SystemSpec
    params: GaussianParams
    mask: tuple[bool, bool, bool, bool]
    x0: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    max_evals: int = 400
    seed: int = 0
    prop_tol: float = 1e-9

    def __post_init__(self):
        if len(self.mask) != 4 or len(self.x0) != 4:
            raise ValueError("mask and x0 must have four entries")
        if not any(self.mask):
            raise ValueError("at least one parameter must be free")
        if not self.prop_tol > 0:  # step doubling would run to its cap
            raise ValueError("prop_tol must be positive")
        if self.max_evals < 1:  # the result must come from an evaluation
            raise ValueError("max_evals must be >= 1")


@dataclass(frozen=True)
class OptimizeResult:
    x: tuple[float, float, float, float]
    gate_error: float
    n_evals: int
    converged: bool
    n_steps: int


def _resolve_steps(task: OptimizeTask, gen: HamiltonianGenerators) -> int:
    """Step count whose unitary at the initial point meets ``prop_tol``;
    every simplex comparison shares this grid."""
    cs = build_controls(task.spec, Ansatz(*task.x0), task.params)
    return converge(gen, cs, task.params.t_g, task.prop_tol)[1]


class _BudgetSpent(Exception):
    """The task's evaluation budget is used up."""


def optimize(task: OptimizeTask) -> OptimizeResult:
    """Nelder-Mead descent over the free coefficients with fixed restarts.

    Returns the best point ever evaluated, so the result never exceeds the
    objective at the initial point, and never evaluates more than
    ``max_evals`` times.  Restart perturbations draw from a seeded
    generator; identical tasks give identical results.
    """
    spec, params = task.spec, task.params
    uid = ideal_not(spec.d, spec.qubit_rows)
    gen = _as_generators(spec)
    n_steps = _resolve_steps(task, gen)
    grid = TimeGrid(params.t_g, n_steps)
    free = [i for i in range(4) if task.mask[i]]
    x_fixed = np.asarray(task.x0, dtype=float)
    evals = 0
    best_x, best_f = x_fixed[free].copy(), math.inf

    def objective(z: np.ndarray) -> float:
        nonlocal evals, best_x, best_f
        if evals >= task.max_evals:
            raise _BudgetSpent
        evals += 1
        x = x_fixed.copy()
        x[free] = z
        try:
            cs = build_controls(spec, Ansatz(*x), params)
            u = propagate(gen, cs, grid)
            e = gate_error(u, uid, spec.qubit_rows)
        except (ValueError, FloatingPointError):
            e = math.inf
        if not math.isfinite(e):
            e = math.inf
        if e < best_f:
            best_x, best_f = np.array(z, dtype=float), e
        return e

    rng = np.random.default_rng(task.seed)
    converged = False
    start = best_x
    try:
        for _ in range(_RESTARTS + 1):
            _nelder_mead(objective, start)
            converged = True
            scale = np.where(np.abs(best_x) > 0, 0.05 * np.abs(best_x), 0.05)
            start = best_x + rng.normal(0.0, 1.0, len(free)) * scale
    except _BudgetSpent:
        pass

    x_out = x_fixed.copy()
    x_out[free] = best_x
    return OptimizeResult(tuple(float(v) for v in x_out), float(best_f),
                          evals, converged, n_steps)


def _nelder_mead(f, x0: np.ndarray) -> None:
    """Standard reflect/expand/contract/shrink simplex descent.

    Runs until the simplex diameter drops below _TOL; ``f`` ends the search
    early by raising, and keeps track of the best point itself.
    """
    m = len(x0)
    simplex = [np.asarray(x0, dtype=float)]
    for i in range(m):
        v = simplex[0].copy()
        v[i] += 0.05 * max(abs(v[i]), 1.0)
        simplex.append(v)
    values = [f(v) for v in simplex]

    while True:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diam = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        if diam < _TOL:
            return

        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
            continue
        if fr < values[0]:
            xe = centroid + _GAMMA * (centroid - simplex[-1])
            fe = f(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
            continue
        xc = centroid + _RHO * (simplex[-1] - centroid)
        fc = f(xc)
        if fc < values[-1]:
            simplex[-1], values[-1] = xc, fc
            continue
        for i in range(1, m + 1):
            simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
            values[i] = f(simplex[i])

"""Quasi-Newton tuning of the four-coefficient control ansatz.

The objective is the average gate error of a NOT built from
Ansatz(alpha, beta, gamma, delta0) controls; any subset of the four
coefficients can be frozen, mirroring the different correction families
(in-phase only, detuning, quadrature, constant offset).  Gradients are
central differences of that objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fidelity import gate_error, ideal_not
from .model import HamiltonianGenerators, SystemSpec, _is_integer
from .propagator import TimeGrid, _as_generators, converge, propagate
from .pulses import Ansatz, GaussianParams, build_controls

__all__ = ["OptimizeTask", "OptimizeResult", "optimize"]

_H = 1e-5  # central-difference step in each free coefficient
_TOL = 1e-9  # stop once the predicted decrease g^T H g / 2 is below _TOL * f
_ARMIJO = 1e-4  # sufficient-decrease share of the predicted decrease
_HALVINGS = 10  # backtracking steps before a line search gives up


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
        if not (_is_integer(self.max_evals) and self.max_evals >= 1):
            raise ValueError(  # the result must come from an evaluation
                f"max_evals must be an integer >= 1, got {self.max_evals!r}")


@dataclass(frozen=True)
class OptimizeResult:
    x: tuple[float, float, float, float]
    gate_error: float
    n_evals: int
    converged: bool
    n_steps: int


def _resolve_steps(task: OptimizeTask, gen: HamiltonianGenerators) -> int:
    """Step count whose unitary at the initial point meets ``prop_tol``;
    every evaluation of the search shares this grid."""
    cs = build_controls(task.spec, Ansatz(*task.x0), task.params)
    return converge(gen, cs, task.params.t_g, task.prop_tol)[1]


class _BudgetSpent(Exception):
    """The task's evaluation budget is used up."""


def optimize(task: OptimizeTask) -> OptimizeResult:
    """BFGS descent over the free coefficients from ``x0``.

    One evaluation is one ``propagate`` plus one ``gate_error``; a gradient
    costs two per free coefficient, and its second differences give the
    first inverse Hessian.  Never evaluates more than ``max_evals`` times
    and returns the best point ever evaluated.  ``converged`` means that
    the stop test held there: a predicted decrease g^T H g / 2 of at most
    1e-9 of the gate error, after one model update per free coefficient.
    The search draws no random numbers.
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

    try:
        z_stop = _bfgs(objective, best_x)
    except _BudgetSpent:
        z_stop = None
    converged = z_stop is not None and np.array_equal(z_stop, best_x)
    x_out = x_fixed.copy()
    x_out[free] = best_x
    return OptimizeResult(tuple(float(v) for v in x_out), float(best_f),
                          evals, converged, n_steps)


def _bfgs(f, z: np.ndarray):
    """Descent from ``z``; returns where the stop test held, or None when a
    line search fails.  ``f`` may raise to end it, and tracks the best point."""
    fz = f(z)
    g, d = _differences(f, z, fz)
    h_inv = np.diag(1.0 / np.abs(d))
    updates = 0
    while True:
        p = -h_inv @ g
        dec = -(g @ p)
        if not math.isfinite(dec):
            return None
        if updates >= len(z) and dec <= 2.0 * _TOL * fz:
            return z
        t = 1.0
        for _ in range(_HALVINGS):
            zt = z + t * p
            ft = f(zt)
            if ft < fz - _ARMIJO * t * dec:
                break
            t *= 0.5
        else:
            return None
        c = 2.0 * (ft - fz + dec) / dec  # curvature along p over the model's
        if t == 1.0 and c < 0.5:  # so a longer step is predicted to do better
            z2 = z + p / max(c, 0.125)
            if (f2 := f(z2)) < ft:
                zt, ft = z2, f2
        gt, _ = _differences(f, zt, ft)
        s, y = zt - z, gt - g
        sy = s @ y
        if sy > 0:  # the curvature condition keeps h_inv positive definite
            hy = h_inv @ y
            h_inv += ((sy + y @ hy) / sy * np.outer(s, s)
                      - np.outer(hy, s) - np.outer(s, hy)) / sy
            updates += 1
        z, fz, g = zt, ft, gt


def _differences(f, z: np.ndarray, fz: float):
    """Central first and second differences of ``f`` at ``z`` on each axis."""
    steps = _H * np.eye(len(z))
    up = np.array([f(z + e) for e in steps])
    down = np.array([f(z - e) for e in steps])
    return (up - down) / (2.0 * _H), (up - 2.0 * fz + down) / _H ** 2

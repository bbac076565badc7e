"""Gauss-Newton tuning of the four-coefficient control ansatz.

The objective is the average gate error of a NOT built from
Ansatz(alpha, beta, gamma, delta0) controls; any subset of the four
coefficients can be frozen, mirroring the different correction families
(in-phase only, detuning, quadrature, constant offset).  The search models
it as the squared norm of ``gate_error_vector``, whose Jacobian is a
central difference on each free coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fidelity import gate_error, gate_error_vector, ideal_not
from .model import HamiltonianGenerators, SystemSpec, _is_integer
from .propagator import TimeGrid, _as_generators, converge, propagate
from .pulses import Ansatz, GaussianParams, build_controls

__all__ = ["OptimizeTask", "OptimizeResult", "optimize"]

_H = 1e-5  # central-difference step in each free coefficient
_TOL = 1e-9  # stop once the predicted decrease -g^T p / 2 is below _TOL * f
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


def _resolve_steps(task: OptimizeTask, gen: HamiltonianGenerators) -> tuple:
    """Unitary at the initial point and the step count at which it meets
    ``prop_tol``; every evaluation of the search shares this grid."""
    cs = build_controls(task.spec, Ansatz(*task.x0), task.params)
    return converge(gen, cs, task.params.t_g, task.prop_tol)


class _BudgetSpent(Exception):
    """The task's evaluation budget is used up."""


def optimize(task: OptimizeTask) -> OptimizeResult:
    """Gauss-Newton descent over the free coefficients from ``x0``.

    One evaluation is one ``propagate``, scored by ``gate_error`` and
    ``gate_error_vector``; the first scores the unitary that fixed the grid
    instead.  A Jacobian costs two evaluations per free coefficient.  Never
    evaluates more than ``max_evals`` times and returns the best point ever
    evaluated.  ``converged`` means that the stop test held there: a
    predicted decrease g^T H^-1 g / 2 of at most 1e-9 of the gate error,
    with g = 2 J^T e and H = 2 J^T J.  The search draws no random numbers.
    """
    spec, params = task.spec, task.params
    uid = ideal_not(spec.d, spec.qubit_rows)
    gen = _as_generators(spec)
    u0, n_steps = _resolve_steps(task, gen)
    grid = TimeGrid(params.t_g, n_steps)
    free = [i for i in range(4) if task.mask[i]]
    x_fixed = np.asarray(task.x0, dtype=float)
    evals = 0
    z0 = best_x = x_fixed[free]
    best_f = math.inf

    def evaluate(z: np.ndarray, u=None):
        """(gate error, error vector) at ``z``, or (inf, None) on failure."""
        nonlocal evals, best_x, best_f
        if evals >= task.max_evals:
            raise _BudgetSpent
        evals += 1
        x = x_fixed.copy()
        x[free] = z
        try:
            if u is None:
                u = propagate(gen, build_controls(spec, Ansatz(*x), params),
                              grid)
            f = gate_error(u, uid, spec.qubit_rows)
            e = gate_error_vector(u, uid, spec.qubit_rows)
        except (ValueError, FloatingPointError):
            return math.inf, None
        if not (math.isfinite(f) and np.isfinite(e).all()):
            return math.inf, None
        if f < best_f:
            best_x, best_f = np.array(z, dtype=float), f
        return f, e

    try:
        z_stop = _gauss_newton(evaluate, z0, evaluate(z0, u0))
    except _BudgetSpent:
        z_stop = None
    converged = z_stop is not None and np.array_equal(z_stop, best_x)
    x_out = x_fixed.copy()
    x_out[free] = best_x
    return OptimizeResult(tuple(float(v) for v in x_out), float(best_f),
                          evals, converged, n_steps)


def _gauss_newton(f, z: np.ndarray, first):
    """Descent from ``z``, where ``f`` gave ``first`` = (value, error vector);
    returns where the stop test held, or None when an evaluation or a line
    search fails.  ``f`` may raise to end it, and tracks the best point."""
    fz, e = first
    steps = _H * np.eye(len(z))
    while True:
        up = [f(z + s)[1] for s in steps]
        down = [f(z - s)[1] for s in steps]
        if e is None or any(v is None for v in up + down):
            return None  # a failed evaluation has no error vector
        jac = (np.array(up) - np.array(down)).T / (2.0 * _H)
        p = np.linalg.lstsq(jac, -e, rcond=None)[0]
        dec = -2.0 * (e @ jac) @ p  # -g^T p, with g = 2 J^T e
        if dec <= 2.0 * _TOL * fz:
            return z
        t = 1.0
        for _ in range(_HALVINGS):
            ft, et = f(z + t * p)
            if ft < fz - _ARMIJO * t * dec:
                break
            t *= 0.5
        else:
            return None
        z, fz, e = z + t * p, ft, et

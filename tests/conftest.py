import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from drag_forge import (GaussianParams, build_intermediate_sno, build_sno,
                        build_star)

TWO_PI = 2.0 * math.pi


def proj(d: int, row: int) -> np.ndarray:
    """Projector |row><row| as a dense d x d complex matrix."""
    p = np.zeros((d, d), dtype=complex)
    p[row, row] = 1.0
    return p


def sigma_x(d: int, r1: int, r2: int) -> np.ndarray:
    """|r1><r2| + |r2><r1| in d dimensions."""
    m = np.zeros((d, d), dtype=complex)
    m[r1, r2] = 1.0
    m[r2, r1] = 1.0
    return m


def sigma_y(d: int, r1: int, r2: int) -> np.ndarray:
    """-i|r1><r2| + i|r2><r1|; antisymmetric under swapping r1, r2."""
    m = np.zeros((d, d), dtype=complex)
    m[r1, r2] = -1.0j
    m[r2, r1] = 1.0j
    return m


@dataclass(frozen=True)
class HandControls:
    """Hand-made waveforms for the propagator and h_eff_exact: three
    callables of t on [0, t_g], with no symmetry assumed, so every step is
    built.  Wrapping a ControlSet's channels gives its full product."""

    omega_x: Callable
    omega_y: Callable
    delta: Callable
    t_g: float
    mirror = False

    @classmethod
    def constant(cls, t_g, ox=0.0, oy=0.0, dl=0.0):
        mk = lambda c: (lambda t: np.full_like(np.asarray(t, dtype=float), c))
        return cls(mk(ox), mk(oy), mk(dl), t_g)

    @classmethod
    def of(cls, cs):
        """A control set's own waveforms, without its mirror symmetry."""
        return cls(cs.omega_x, cs.omega_y, cs.delta, cs.t_g)

    def channels(self, t):
        return self.omega_x(t), self.omega_y(t), self.delta(t)


@pytest.fixture(scope="session")
def sno5():
    """d=5 standard nonlinear oscillator, delta2 = -2*pi."""
    return build_sno(5, -TWO_PI)


@pytest.fixture(scope="session")
def sno3():
    return build_sno(3, -TWO_PI)


@pytest.fixture(scope="session")
def inter5():
    """d=5 intermediate window of a 6-level oscillator."""
    return build_intermediate_sno(5, -TWO_PI)


@pytest.fixture(scope="session")
def star6():
    """Star system of the many-channel example: lam_j = 1, delta_k = k*delta2."""
    return build_star([-TWO_PI, -2 * TWO_PI, -3 * TWO_PI, -4 * TWO_PI],
                      [1.0, 1.0, 1.0, 1.0])


@pytest.fixture
def not_params():
    """sigma = 1 NOT-gate envelope (area pi, t_g = 4 sigma)."""
    return GaussianParams.for_not(1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)

"""Average gate fidelity over the six axial qubit states, in closed form.

The actual process is the full-space unitary channel, so population left in
(or routed through) leakage levels counts as error; there is no qubit-block
renormalization and no phase compensation in the headline number.  A
separate diagnostic reports the error after optimizing a virtual-Z phase on
the qubit block.

The six axial states form a 2-design on the qubit block, so their average
fidelity has the closed form (Pedersen, Moller & Molmer, Phys. Lett. A 367,
47 (2007))

    F = (Tr M M^dag + |Tr M|^2) / 6,   M = qubit block of U U_ideal^dag,

valid whenever U_ideal maps the qubit block onto itself (as every target
built here does).
"""
from __future__ import annotations

import numpy as np

__all__ = ["ideal_not", "average_gate_fidelity", "gate_error",
           "gate_error_vector", "phase_optimized_gate_error"]


def ideal_not(d: int, qubit: tuple[int, int] = (0, 1)) -> np.ndarray:
    """NOT on the qubit block, identity on everything else."""
    if d < 2:
        raise ValueError("d must be >= 2")
    q0, q1 = qubit
    u = np.eye(d, dtype=complex)
    u[q0, q0] = u[q1, q1] = 0.0
    u[q0, q1] = u[q1, q0] = 1.0
    return u


def _qubit_columns(u_actual, u_ideal, qubit) -> np.ndarray:
    """Columns ``qubit`` of U U_ideal^dag; M is their ``qubit`` rows."""
    u_actual = np.asarray(u_actual)
    u_ideal = np.asarray(u_ideal)
    if u_actual.shape != u_ideal.shape:
        raise ValueError(
            f"dimension mismatch: {u_actual.shape} vs {u_ideal.shape}")
    return (u_actual @ u_ideal.conj().T)[:, list(qubit)]


def average_gate_fidelity(u_actual: np.ndarray, u_ideal: np.ndarray,
                          qubit: tuple[int, int] = (0, 1)) -> float:
    """(1/6) sum_j Tr[U_ideal rho_j U_ideal^dag  U rho_j U^dag]."""
    m = _qubit_columns(u_actual, u_ideal, qubit)[list(qubit)]
    return float((np.vdot(m, m).real + abs(np.trace(m)) ** 2) / 6.0)


def gate_error(u_actual: np.ndarray, u_ideal: np.ndarray,
               qubit: tuple[int, int] = (0, 1)) -> float:
    return 1.0 - average_gate_fidelity(u_actual, u_ideal, qubit)


def gate_error_vector(u_actual: np.ndarray, u_ideal: np.ndarray,
                      qubit: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Real vector e with e . e = ``gate_error`` for a unitary U, each entry
    first order in U's deviation, so its differences do not cancel against 1.

    W = U U_ideal^dag divided by the phase of Tr M (1 when Tr M = 0), and D
    is W's qubit columns minus the identity's.  Unit columns give
    1 - F = (2 |D_qq|^2 + 3 |D_lq|^2 - |Tr D_qq|^2) / 6 with Tr D_qq real,
    a sum of the squares below.
    """
    w, q = _qubit_columns(u_actual, u_ideal, qubit), list(qubit)
    tr = np.trace(w[q])
    d = w / (tr / abs(tr) if tr else 1.0) - np.eye(len(w))[:, q]
    qq, lq = d[q], np.delete(d, q, axis=0)
    skew = qq - np.diag(qq.diagonal().real)  # Im D_00, Im D_11, D_01, D_10
    return np.concatenate([[(qq[0, 0] - qq[1, 1]).real / np.sqrt(6.0)],
                           np.r_[skew.real, skew.imag].ravel() / np.sqrt(3.0),
                           np.r_[lq.real, lq.imag].ravel() / np.sqrt(2.0)])


def phase_optimized_gate_error(u_actual: np.ndarray, u_ideal: np.ndarray,
                               qubit: tuple[int, int] = (0, 1)) -> float:
    """Diagnostic: gate error minimized over a virtual-Z rotation of the
    qubit block.  Excluded from all benchmark numbers.

    A virtual Z applied after the gate turns Tr M into
    exp(-i theta/2) M_00 + exp(i theta/2) M_11, whose modulus peaks at
    |M_00| + |M_11|; Tr M M^dag does not depend on theta.
    """
    m = _qubit_columns(u_actual, u_ideal, qubit)[list(qubit)]
    best = (abs(m[0, 0]) + abs(m[1, 1])) ** 2
    return float(1.0 - (np.vdot(m, m).real + best) / 6.0)

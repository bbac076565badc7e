"""Reference gate errors that do not go through ``drag_forge.propagator``.

Each job names a system, a control (a published variant or four ansatz
coefficients) and a Gaussian envelope.  The reference unitary comes from
``scipy.integrate.solve_ivp`` (DOP853, rtol = atol = 1e-12) applied to
dU/dt = -i H(t) U, and the gate error from the closed form of the
six-state average fidelity, F = (Tr MM^dag + |Tr M|^2) / 6 with M the qubit
block of U_ideal^dag U, so neither the integrator nor ``drag_forge.fidelity``
is shared with the code under test.  The system matrices and waveforms are
the package's own: they define the problem, not the answer.

Results are cached per workload in ``perfbench/.cache`` and computed in
child processes, so the oracle's cost and memory stay out of the measured
workload.  Run as ``python3 perfbench/oracle.py JOBS.json OUT.json``.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = Path(__file__).resolve().parent / ".cache"
RTOL = ATOL = 1e-12


def job_key(job: dict) -> str:
    return hashlib.sha256(json.dumps(job, sort_keys=True).encode()).hexdigest()[:24]


def build_system(doc: dict):
    from drag_forge import build_intermediate_sno, build_sno, build_star

    kind = doc["kind"]
    if kind == "sno":
        return build_sno(int(doc["d"]), float(doc["delta2"]))
    if kind == "intermediate_sno":
        return build_intermediate_sno(int(doc["d"]), float(doc["delta2"]))
    if kind == "star":
        return build_star(doc["delta"], doc["lambda"])
    raise ValueError(f"unknown system kind {kind!r}")


def job_controls(job: dict):
    """(spec, ControlSet, t_g) of a job."""
    from drag_forge import Ansatz, DragVariant, GaussianParams
    from drag_forge.pulses import controls_for

    spec = build_system(job["system"])
    params = GaussianParams(job["area"], job["sigma"],
                            job["tg_factor"] * job["sigma"])
    ctl = job["control"]
    variant = Ansatz(*ctl) if isinstance(ctl, list) else DragVariant(ctl)
    return spec, controls_for(spec, variant, params), params.t_g


def closed_form_gate_error(u, qubit_rows) -> float:
    import numpy as np

    q0, q1 = qubit_rows
    ideal = np.eye(u.shape[0], dtype=complex)
    ideal[[q0, q1]] = ideal[[q1, q0]]
    m = (ideal.conj().T @ u)[np.ix_(qubit_rows, qubit_rows)]
    return float(1.0 - (np.trace(m @ m.conj().T).real
                        + abs(np.trace(m)) ** 2) / 6.0)


def reference(job: dict) -> dict:
    """Reference unitary and gate error of one job (not cached)."""
    import numpy as np
    from scipy.integrate import solve_ivp
    from drag_forge.model import generators

    spec, cs, t_g = job_controls(job)
    gen = generators(spec)
    d = gen.d
    hd, hz, hx, hy = (np.asarray(m, dtype=complex)
                      for m in (gen.h_drift, gen.h_z, gen.h_x, gen.h_y))

    def rhs(t, y):
        h = (hd + float(cs.delta(t)) * hz + 0.5 * float(cs.omega_x(t)) * hx
             + 0.5 * float(cs.omega_y(t)) * hy)
        return (-1j * (h @ y.reshape(d, d))).ravel()

    sol = solve_ivp(rhs, (0.0, t_g), np.eye(d, dtype=complex).ravel(),
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    u = sol.y[:, -1].reshape(d, d)
    return {"gate_error": closed_form_gate_error(u, spec.qubit_rows),
            "u_re": u.real.tolist(), "u_im": u.imag.tolist()}


def unitary(result: dict):
    import numpy as np

    return np.asarray(result["u_re"]) + 1j * np.asarray(result["u_im"])


def lookup(jobs: list[dict], name: str, cache_dir: Path = CACHE_DIR) -> list[dict]:
    """Reference results for ``jobs``; missing ones are computed in children."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"oracle-{name}.json"
    cache = json.loads(path.read_text()) if path.exists() else {}
    missing = {job_key(j): j for j in jobs if job_key(j) not in cache}
    if missing:
        # one child per usable core, each integrating every n-th job
        n = min(len(missing), len(os.sched_getaffinity(0)))
        todo = list(missing.values())
        with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
            children = []
            for k in range(n):
                jobs_path = Path(tmp) / f"jobs{k}.json"
                jobs_path.write_text(json.dumps(todo[k::n]))
                children.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     str(jobs_path), str(Path(tmp) / f"out{k}.json")], cwd=ROOT))
            try:
                codes = [child.wait(timeout=840) for child in children]
            finally:
                for child in children:
                    if child.poll() is None:
                        child.kill()
                        child.wait()
            if any(codes):
                raise RuntimeError(f"oracle children exited with {codes}")
            parts = [json.loads((Path(tmp) / f"out{k}.json").read_text())
                     for k in range(n)]
        computed = [parts[i % n][i // n] for i in range(len(todo))]
        cache.update(zip(missing, computed))
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(cache, fh)
        os.replace(tmp_path, path)
    return [cache[job_key(j)] for j in jobs]


def main(argv: list[str]) -> int:
    jobs_path, out_path = argv
    sys.path.insert(0, str(ROOT / "src"))
    jobs = json.loads(Path(jobs_path).read_text())
    Path(out_path).write_text(json.dumps([reference(j) for j in jobs]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""drag-forge: pulse synthesis and simulation for leakage-suppressing controls."""

from .model import (Topology, SystemSpec, HamiltonianGenerators, build_sno,
                    build_intermediate_sno, build_star, generators,
                    hamiltonian_at, spec_to_json, spec_from_json)
from .pulses import (GaussianParams, DragVariant, Ansatz,
                     ControlSet, build_controls, controls_for,
                     effective_lambda, phase_ramp)
from .propagator import (TimeGrid, ConvergenceError, propagate, populations,
                         converge)
from .fidelity import (ideal_not, average_gate_fidelity, gate_error,
                       gate_error_vector, phase_optimized_gate_error)

__version__ = "0.1.0"

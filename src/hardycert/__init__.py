"""Nonlocality certification for bipartite mixed states.

A mixed state close (in trace distance) to a pure state with two distinct
Schmidt weights inherits a sharp probability signature on four specially
constructed three-outcome observables; when six times the distance stays
below the signature's single nonzero probability, no local realistic model
can reproduce the state's predictions.  This package computes the
certificate, the tolerable-noise threshold for mixtures, and an independent
linear-programming oracle that searches for a local model directly.

The names below are the public entry points; everything else lives in the
submodules.
"""

__version__ = "0.1.0"

from .certification import (
    Verdict,
    candidate_from_state,
    certify,
    noise_threshold,
    trace_distance,
)
from .errors import HardycertError
from .lhv import behavior_from_state, enumerate_strategies, lhv_feasible
from .observables import build_bases, build_observables, hardy_parameter_a
from .states import (
    DensityOperator,
    StateVector,
    find_hardy_pair,
    maximally_mixed,
    pure_density,
    schmidt_decompose,
    validate_density,
)

__all__ = [
    "__version__",
    "DensityOperator",
    "HardycertError",
    "StateVector",
    "Verdict",
    "behavior_from_state",
    "build_bases",
    "build_observables",
    "candidate_from_state",
    "certify",
    "enumerate_strategies",
    "find_hardy_pair",
    "hardy_parameter_a",
    "lhv_feasible",
    "maximally_mixed",
    "noise_threshold",
    "pure_density",
    "schmidt_decompose",
    "trace_distance",
    "validate_density",
]

"""Trace-distance certification of nonlocality.

A mixed state sigma within trace distance epsilon of a pure state carrying two
distinct Schmidt weights inherits that state's probability signature up to
epsilon per entry.  Whenever

    6 * epsilon < a,

no local realistic model can reproduce sigma's predictions for the four
constructed observables, so a strictly positive margin a - 6 epsilon is a
nonlocality (and hence nonseparability) certificate.  The bound is sufficient
only: a non-positive margin decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, NotHardyError
from .lhv import Behavior
from .observables import (
    HardyPair,
    HardyProbabilityTable,
    behavior_from_state,
    build_bases,
    build_observables,
    find_hardy_pair,
)
from .states import DensityOperator, StateVector, schmidt_decompose

#: A margin must exceed this to count as a certification; anything closer to
#: zero is numerically indistinguishable from the boundary.
CERTIFICATION_TOL = 1e-10


class Verdict(Enum):
    """Outcome of the criterion for one (state, candidate) pair."""

    NONLOCAL_CERTIFIED = "NonlocalCertified"
    INCONCLUSIVE = "Inconclusive"
    NOT_HARDY = "NotHardy"


@dataclass(frozen=True)
class CertificationReport:
    """Result of running the criterion.

    ``margin`` is always ``a - 6 * epsilon``; the verdict is
    NONLOCAL_CERTIFIED exactly when the margin clears CERTIFICATION_TOL.
    ``behavior`` holds all 36 joint probabilities of ``sigma`` on the
    candidate's observables.  ``pair`` and ``behavior`` are None when the
    candidate has no admissible weight pair (verdict NOT_HARDY), in which
    case ``a`` is reported as 0.
    """

    epsilon: float
    a: float
    margin: float
    verdict: Verdict
    pair: HardyPair | None
    behavior: Behavior | None

    @property
    def table(self) -> HardyProbabilityTable | None:
        """The six designated probabilities, read off ``behavior``."""
        if self.behavior is None:
            return None
        return HardyProbabilityTable.from_behavior(self.behavior.tables)


def _check_dims(role1: str, op1, role2: str, op2) -> None:
    """Refuse two operands on different subsystem dimensions, naming both."""
    if (op1.d1, op1.d2) != (op2.d1, op2.d2):
        raise DimensionMismatchError(
            f"{role1} dims ({op1.d1}, {op1.d2}) do not match {role2} dims ({op2.d1}, {op2.d2})"
        )


def _trace_distance(difference: np.ndarray) -> float:
    """Half the trace norm of a Hermitian difference of two states, in [0, 1].

    Both operands are validated states (or a state and a unit vector's
    projector), so the difference needs no Hermiticity check of its own.
    """
    return min(0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(difference)))), 1.0)


def _unit(state: DensityOperator) -> np.ndarray:
    """A state's matrix divided by its trace.

    The constructor admits a trace within ``STATE_TOL`` of 1, and a distance
    taken on the undivided matrix could move a margin by as much, far more
    than ``CERTIFICATION_TOL``.
    """
    return state.matrix / state.matrix.trace().real


def trace_distance(s1: DensityOperator, s2: DensityOperator) -> float:
    """Half the trace norm of s1 - s2, each divided by its trace.

    This metric dominates every projector-probability gap between the two
    states, which is the only property the criterion needs from it.
    """
    _check_dims("s1", s1, "s2", s2)
    return _trace_distance(_unit(s1) - _unit(s2))


def certify(sigma: DensityOperator, candidate: StateVector) -> CertificationReport:
    """Run the criterion for ``sigma`` against a candidate pure state.

    Schmidt-decomposes the candidate, selects the weight pair maximizing the
    parameter ``a`` (``find_hardy_pair`` says which pairs are admissible),
    measures epsilon as the trace distance from ``sigma`` to the candidate's
    projector, and compares ``6 * epsilon`` against ``a``.  Both epsilon and
    ``a`` are taken for the unit-normalised state and candidate.  The joint
    probabilities of ``sigma`` on the constructed observables are evaluated
    and included for inspection and for the local-model search.
    """
    _check_dims("state", sigma, "candidate", candidate)
    epsilon = _trace_distance(_unit(sigma) - candidate.projector())
    sf = schmidt_decompose(candidate)
    pair = find_hardy_pair(sf)
    if pair is None:
        return CertificationReport(
            epsilon=epsilon,
            a=0.0,
            margin=-6.0 * epsilon,
            verdict=Verdict.NOT_HARDY,
            pair=None,
            behavior=None,
        )
    obs = build_observables(build_bases(sf, pair), sigma.d1, sigma.d2)
    margin = pair.a - 6.0 * epsilon
    verdict = Verdict.NONLOCAL_CERTIFIED if margin > CERTIFICATION_TOL else Verdict.INCONCLUSIVE
    return CertificationReport(
        epsilon=epsilon,
        a=pair.a,
        margin=margin,
        verdict=verdict,
        pair=pair,
        behavior=behavior_from_state(sigma, obs),
    )


def candidate_from_state(sigma: DensityOperator) -> StateVector:
    """Top eigenvector of a state, as the default certification candidate.

    The eigenvector's global phase is the eigensolver's: it changes no
    projector, and ``schmidt_decompose``'s gauge absorbs it, so the report
    does not depend on it.  When the top eigenvalue is degenerate the
    eigensolver's last column is returned as-is; callers who care can inspect
    the spectral gap themselves (the command-line tool reports it).
    """
    _, vectors = np.linalg.eigh(sigma.matrix)
    return StateVector(d1=sigma.d1, d2=sigma.d2, amplitudes=vectors[:, -1])


@dataclass(frozen=True)
class NoiseThresholdReport:
    """Critical mixing weight for p |psi><psi| + (1 - p) noise mixtures.

    Mixtures with p above ``p_star`` have strictly positive criterion margin;
    mixtures below do not.  ``d_noise`` is the trace distance from the noise
    operator to the pure projector and ``a`` the candidate's parameter.
    """

    p_star: float
    d_noise: float
    a: float


def noise_threshold(psi: StateVector, noise: DensityOperator) -> NoiseThresholdReport:
    """Critical mixing weight, in closed form.

    The Hermitian difference between the mixture and the pure projector
    scales exactly linearly in (1 - p), so the distance obeys
    D(sigma_p, psi) = (1 - p) * d_noise and the criterion boundary sits at

        p_star = max(0, 1 - a / (6 * d_noise)),

    with p_star = 0 whenever the bare noise operator already lies inside the
    certified neighborhood (including noise = |psi><psi| itself).

    Raises
    ------
    NotHardyError
        The candidate has no admissible pair of distinct Schmidt weights.
    """
    _check_dims("candidate", psi, "noise", noise)
    pair = find_hardy_pair(schmidt_decompose(psi))
    if pair is None:
        raise NotHardyError("candidate state has no admissible pair of distinct Schmidt weights")
    d_noise = _trace_distance(_unit(noise) - psi.projector())
    if 6.0 * d_noise <= pair.a:
        p_star = 0.0
    else:
        p_star = 1.0 - pair.a / (6.0 * d_noise)
    return NoiseThresholdReport(p_star=p_star, d_noise=d_noise, a=pair.a)


__all__ = [
    "CERTIFICATION_TOL",
    "CertificationReport",
    "NoiseThresholdReport",
    "Verdict",
    "candidate_from_state",
    "certify",
    "noise_threshold",
    "trace_distance",
]

"""Trace-distance certification of nonlocality.

A mixed state sigma within trace distance epsilon of a pure state carrying two
distinct Schmidt weights inherits that state's probability signature up to
epsilon per entry.  Whenever

    6 * epsilon < a,

no local realistic model can reproduce sigma's predictions for the four
constructed observables, so a strictly positive margin a - 6 epsilon is a
nonlocality (and hence nonseparability) certificate.  The bound is sufficient
only: a non-positive margin decides nothing.

The default candidate is the state's top eigenvector.  Its epsilon is at
least ``1 - lambda_1 / tr sigma`` and ``a`` is at most 0.0902, so a state
it certifies has ``lambda_1 > 0.98 tr sigma``.  One routine,
``_top_eigenpair``, decides that vector: from D = 25 on it takes such a
dominant eigenvector from power steps whose residual proves it, with no
eigensolve, and hands every other state to its one ``eigh``.  The power
steps and the residual checks of epsilon share one Rayleigh step,
``_rayleigh``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NotHardyError
from .lhv import Behavior
from .observables import (
    HardyPair,
    HardyProbabilityTable,
    _best_pair,
    behavior_from_state,
    build_bases,
    build_observables,
)
from .linalg import _roundoff
from .states import DensityOperator, StateVector, _fix_gauge, _schmidt_svd

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
    candidate's observables; it is computed once, on first read of
    ``behavior`` or ``table``, since the verdict needs none of it.  That
    first read also fixes the gauge of the candidate's Schmidt vectors
    (``schmidt_decompose``'s gauge, on the SVD ``certify`` already ran).
    ``pair`` and ``behavior`` are None when the candidate has no admissible
    weight pair (verdict NOT_HARDY), in which case ``a`` is reported as 0.
    """

    epsilon: float
    a: float
    margin: float
    verdict: Verdict
    pair: HardyPair | None
    #: The validated state and the candidate's SVD triple (left vectors,
    #: kept weights, right vectors) that ``behavior`` is measured from; None
    #: for a NOT_HARDY candidate.
    _measured: tuple[DensityOperator, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False, compare=False
    )

    @functools.cached_property
    def behavior(self) -> Behavior | None:
        """All 36 joint probabilities of the state on the candidate's
        observables, computed on first read and kept."""
        if self.pair is None:
            return None
        sigma, svd = self._measured
        obs = build_observables(build_bases(_fix_gauge(*svd), self.pair), sigma.d1, sigma.d2)
        return behavior_from_state(sigma, obs)

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
    outer product, of which ``eigvalsh`` reads only the lower triangle), so
    the difference needs no Hermiticity check of its own.
    """
    return min(0.5 * float(np.abs(np.linalg.eigvalsh(difference)).sum()), 1.0)


def _unit(state: DensityOperator) -> np.ndarray:
    """A state's matrix divided by its trace.

    A state from either entry point, the constructor or ``validate_density``,
    may keep a trace within ``STATE_TOL`` of 1, and a distance taken on the
    undivided matrix could move a margin by as much, far more than
    ``CERTIFICATION_TOL``.
    """
    return state.matrix / state.matrix.trace().real


#: The smallest D = d1 d2 at which ``_candidate_distance`` refines the one
#: negative eigenvalue of ``unit - v v^H`` rather than taking its spectrum,
#: and at which ``_top_eigenpair`` tries power steps before its ``eigh``:
#: below it one ``eigvalsh`` costs less than the refinement, and one
#: ``eigh`` less than the power steps.
#: ``tools/distance_crossover.py`` re-measures both crossovers.
_REFINE_MIN_DIM = 25


def _candidate_distance(unit: np.ndarray, psi: StateVector) -> float:
    """Trace distance from a unit-trace state to a candidate's unit vector.

    With v the unit vector, ``f = <v|unit|v>`` and ``r = unit v - f v``, the
    distance lies in ``[1 - f, 1 - f + |r|]``.  The lower end is the
    Fuchs-van de Graaf bound (IEEE Trans. Inf. Theory 45, 1216 (1999)).  The
    upper end holds because ``unit - r v^H - v r^H`` has v as an exact
    eigenvector, and that perturbation has trace norm ``2 |r|``.  When
    ``|r|`` is at most the density gate's shift at unit trace,
    ``delta = 4 (D + 1) eps``, v is an eigenvector up to round-off and the
    upper end is returned, clipped to [0, 1], from this one matrix-vector
    product: the top eigenvector, white noise and a white-noise mixture
    against its own candidate take no eigensolve.

    Any other candidate needs ``X = unit - v v^H``, formed once.  At D of
    ``_REFINE_MIN_DIM`` or more, ``_refined_distance`` brackets X's one
    negative eigenvalue from up to two linear solves; when its bracket is not
    certified, and at smaller D, the distance is one ``eigvalsh`` of X.  It
    reads only the lower triangle, so the outer product needs no
    symmetrising.
    """
    amps = psi.amplitudes
    v = amps / math.sqrt(np.vdot(amps, amps).real)
    _, f, r, r_squared = _rayleigh(unit, v)
    r_norm = math.sqrt(r_squared)
    delta = _roundoff(v.size, 1.0)
    if r_norm <= delta:
        return min(max(1.0 - f + r_norm, 0.0), 1.0)
    difference = unit - v[:, None] * v.conj()
    if v.size >= _REFINE_MIN_DIM:
        epsilon = _refined_distance(difference, v, f, r / r_norm, r_norm, delta)
        if epsilon is not None:
            return epsilon
    return _trace_distance(difference)


def _refined_distance(
    difference: np.ndarray, v: np.ndarray, f: float, q: np.ndarray, r_norm: float, delta: float
) -> float | None:
    """The upper end of a certified bracket on the trace norm of
    ``X = unit - v v^H``, halved and clipped to [0, 1], or None when the
    bracket cannot be certified.

    The density gate proved ``unit`` positive semidefinite up to ``delta``,
    so by Cauchy interlacing under the rank-one update every eigenvalue of X
    but the least, ``lambda_1 <= f - 1 < 0``, is at least ``-delta``, and the
    distance is ``-lambda_1 + tr X / 2``.  The Ritz pair (mu, x) of the span
    of v and ``q = r / |r|`` (X's matrix there is ``[[f - 1, |r|], [|r|,
    q^H X q]]``, since r is orthogonal to v) starts up to two
    Rayleigh-quotient steps: y solves ``(X - mu I) y = x``, and then
    ``x = y / |y|``, ``mu = x^H X x`` and ``s = X x - mu x``.  With
    ``g = -mu - delta``, Temple's inequality (G. Temple, Proc. R. Soc. Lond.
    A 119, 276 (1928); B. N. Parlett, *The Symmetric Eigenvalue Problem*,
    SIAM 1998, ch. 10) gives ``lambda_1`` in ``[mu - |s|^2 / g, mu]`` when
    ``g > 0``.  The bracket is accepted when ``g > delta``, so that mu lies
    clear of the eigenvalues at round-off zero, and its width ``|s|^2 / g``
    is at most delta.  A far candidate against a rank-2 or rank-3 state can
    leave the first step's bracket too wide, and the second step, shifted
    by the new mu, narrows it.  An exactly singular shift, a step that
    overflows, or a bracket still wide after two steps gives None.
    """
    lowest = f - 1.0
    highest = float(np.vdot(q, difference @ q).real)
    half = 0.5 * (highest - lowest)
    root = math.hypot(half, r_norm)
    mu = 0.5 * (lowest + highest) - root
    # The Ritz vector's coefficients on (v, q) are (highest - mu, -|r|), and
    # highest - mu = half + root, taken without cancellation.
    spread = half + root if half >= 0.0 else r_norm * r_norm / (root - half)
    x = spread * v - r_norm * q
    shifted = difference.copy()
    for _ in range(2):
        # X - mu I on the one copy: its diagonal is rewritten from X's, so
        # each step's shift replaces the last one's.
        shifted.reshape(-1)[:: v.size + 1] = difference.diagonal() - mu
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            return None
        y_norm = math.sqrt(np.vdot(y, y).real)
        if not 0.0 < y_norm < math.inf:  # NaN fails it too
            return None
        x = y / y_norm
        _, mu, _, s_squared = _rayleigh(difference, x)
        g = -mu - delta
        if g > delta and s_squared <= g * delta:
            return min(max(-mu + s_squared / g + 0.5 * float(difference.trace().real), 0.0), 1.0)
    return None


#: The most power steps ``_top_eigenpair`` takes; a residual still above
#: round-off after the last of them hands the state over to ``eigh``.
_POWER_STEPS = 16


def _rayleigh(matrix: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, float]:
    """One Rayleigh step on a unit vector x: ``w = matrix x``, the quotient
    ``mu = x^H w``, the residual ``r = w - mu x`` and ``|r|^2``."""
    w = matrix @ x
    mu = float(np.vdot(x, w).real)
    r = w - mu * x
    return w, mu, r, float(np.vdot(r, r).real)


def _top_eigenpair(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The top eigenvector of a validated state's matrix, with None when
    power steps proved it, or with the spectrum when ``eigh`` gave it.

    From D of ``_REFINE_MIN_DIM`` on, power steps are taken unless
    ``tr sigma^2 <= t^2 / 4``, t the trace, shows that no eigenvalue
    exceeds t / 2.  Each step is one ``_rayleigh`` on the unit iterate v,
    the first started from sigma's column with the largest diagonal entry.
    ``mu > t / 2`` puts the top eigenvalue, which is at least mu, above
    t / 2, and, sigma being positive semidefinite, every other eigenvalue
    at or below ``t - mu``.  So once ``|r| <= _roundoff(D, t)`` as well,
    the Davis-Kahan theorem (C. Davis and W. M. Kahan, SIAM J. Numer. Anal.
    7, 1 (1970)) bounds the angle from v to the top eigenvector by
    ``|r| / (2 mu - t)``, and ``w / |w|``, one more power step closer, is
    returned: ``_candidate_distance`` then finds it an eigenvector up to
    round-off, from one matrix-vector product.

    The steps hand over to the one ``eigh``, whose last column and spectrum
    are returned, when ``mu + |r| <= t / 2``, the iterate having settled at
    or below half the trace (an iterate that is an eigenvector there, which
    power steps would not leave, stops at once); when the residual,
    shrinking at its last step's rate, could not reach the bound within
    ``_POWER_STEPS`` steps; and after the last of them.  Below D =
    ``_REFINE_MIN_DIM`` ``eigh`` runs at once.
    """
    dim = matrix.shape[0]
    if dim >= _REFINE_MIN_DIM:
        trace = float(matrix.trace().real)
        # No step when tr sigma^2 <= t^2 / 4: no eigenvalue exceeds t / 2.
        if 4.0 * float(np.vdot(matrix, matrix).real) > trace * trace:
            bound = _roundoff(dim, trace)
            w = matrix[:, int(np.argmax(matrix.diagonal().real))]
            last = math.inf
            for remaining in reversed(range(_POWER_STEPS)):
                w, mu, _, r_squared = _rayleigh(matrix, w / math.sqrt(np.vdot(w, w).real))
                r_norm = math.sqrt(r_squared)
                if r_norm <= bound and 2.0 * mu > trace:
                    return w / math.sqrt(np.vdot(w, w).real), None
                # Settled at or below t / 2, or a residual that, shrinking at
                # this step's rate, cannot reach the bound in the steps left
                # (none after the last).
                if 2.0 * (mu + r_norm) <= trace or r_norm * (r_norm / last) ** remaining > bound:
                    break
                last = r_norm
    values, vectors = np.linalg.eigh(matrix)
    return vectors[:, -1], values


def trace_distance(s1: DensityOperator, s2: DensityOperator) -> float:
    """Half the trace norm of s1 - s2, each divided by its trace.

    This metric dominates every projector-probability gap between the two
    states, which is the only property the criterion needs from it.
    """
    _check_dims("s1", s1, "s2", s2)
    return _trace_distance(_unit(s1) - _unit(s2))


def certify(sigma: DensityOperator, candidate: StateVector) -> CertificationReport:
    """Run the criterion for ``sigma`` against a candidate pure state.

    Takes the candidate's Schmidt weights from one SVD, selects the weight
    pair maximizing the parameter ``a`` (``find_hardy_pair`` says which pairs
    are admissible), measures epsilon as the trace distance from ``sigma`` to
    the candidate's projector, and compares ``6 * epsilon`` against ``a``.
    Both epsilon and ``a`` are taken for the unit-normalised state and
    candidate.  The verdict reads only the weights: the Schmidt vectors'
    gauge, and the joint probabilities of ``sigma`` on the constructed
    observables, for inspection and for the local-model search, are
    evaluated once, on first read of ``report.behavior`` or ``report.table``,
    from the same SVD.  A candidate that is an eigenvector of ``sigma``, such
    as ``top_eigenvector``'s, whether ``_top_eigenpair``'s power steps or its
    ``eigh`` found it, gets epsilon from one Rayleigh step, one
    matrix-vector product (``_candidate_distance``); any other pays one
    ``eigvalsh`` below D = 25, and from there on up to two linear solves
    whose bracket, when it is not certified, falls back to the
    ``eigvalsh``.  A candidate with no
    admissible pair has ``a`` = 0, and its margin ``0.0 - 6 epsilon`` reads
    ``+0.0``, not ``-0.0``, at epsilon = 0.
    """
    _check_dims("state", sigma, "candidate", candidate)
    svd = _schmidt_svd(candidate)
    pair = _best_pair(svd[1])
    epsilon = _candidate_distance(_unit(sigma), candidate)
    if pair is None:
        return CertificationReport(
            epsilon=epsilon, a=0.0, margin=0.0 - 6.0 * epsilon, verdict=Verdict.NOT_HARDY, pair=None
        )
    margin = pair.a - 6.0 * epsilon
    verdict = Verdict.NONLOCAL_CERTIFIED if margin > CERTIFICATION_TOL else Verdict.INCONCLUSIVE
    return CertificationReport(
        epsilon=epsilon, a=pair.a, margin=margin, verdict=verdict, pair=pair, _measured=(sigma, svd)
    )


def top_eigenvector(sigma: DensityOperator) -> tuple[StateVector, float | None]:
    """Top eigenvector of a state, the default certification candidate, and
    the gap between its two largest eigenvalues (None for a 1x1 state).

    The vector is ``candidate_from_state``'s, from ``_top_eigenpair``.  When
    it is ``eigh``'s column the gap comes from the spectrum of the same
    solve; when power steps proved it, from one ``eigvalsh``, so the gap is
    exact either way.  The eigenvector's global phase is the one its method
    left: it changes no projector, and ``schmidt_decompose``'s gauge absorbs
    it, so the report does not depend on it.  When the top eigenvalue is degenerate the eigensolver's last
    column is returned as-is, and the gap shows it.
    """
    vector, values = _top_eigenpair(sigma.matrix)
    if values is None:
        values = np.linalg.eigvalsh(sigma.matrix)
    gap = float(values[-1] - values[-2]) if values.size > 1 else None
    return StateVector(d1=sigma.d1, d2=sigma.d2, amplitudes=vector), gap


def candidate_from_state(sigma: DensityOperator) -> StateVector:
    """Top eigenvector of a state, as ``top_eigenvector`` gives it, with no
    gap computed.

    The vector is ``_top_eigenpair``'s.  From D = d1 d2 = 25 on, a top
    eigenvalue above half the trace is found by power steps, proved by
    their residual, and takes no eigensolve; its vector may differ from
    ``eigh``'s in phase and in the last bits.  Every other state, and every
    state below D = 25, gets ``eigh``'s last column, bit for bit.
    """
    return StateVector(d1=sigma.d1, d2=sigma.d2, amplitudes=_top_eigenpair(sigma.matrix)[0])


class NoiseThresholdReport(NamedTuple):
    """Critical mixing weight for p |psi><psi| + (1 - p) noise mixtures.

    Mixtures with p above ``p_star`` have strictly positive criterion margin;
    mixtures below do not.  ``d_noise`` is the trace distance from the noise
    operator to the pure projector and ``a`` the candidate's parameter.
    """

    p_star: float
    d_noise: float
    a: float


def noise_threshold(psi: StateVector, noise: DensityOperator) -> NoiseThresholdReport:
    """Critical mixing weight: ``certify(noise, psi)`` solved for p.

    The Hermitian difference between the mixture and the pure projector
    scales exactly linearly in (1 - p), so the distance obeys
    D(sigma_p, psi) = (1 - p) * d_noise, with ``d_noise`` the distance
    ``certify(noise, psi)`` reports as epsilon, and the criterion boundary
    sits at

        p_star = max(0, 1 - a / (6 * d_noise)),

    with p_star = 0 whenever the margin ``a - 6 d_noise`` is not negative:
    the bare noise operator already lies inside the certified neighborhood
    (including noise = |psi><psi| itself).  ``d_noise`` and ``a`` are taken
    by the same steps as ``certify``'s, from one SVD of psi and one
    ``_candidate_distance``, so against noise that has psi as an
    eigenvector, white noise and psi's own projector among them, d_noise
    takes no eigensolve, and against any other noise it takes what
    ``certify`` takes: one ``eigvalsh`` below D = 25, up to two linear
    solves from there on.

    Raises
    ------
    NotHardyError
        The candidate has no admissible pair of distinct Schmidt weights;
        raised after its SVD, before any distance is taken.
    """
    _check_dims("candidate", psi, "noise", noise)
    pair = _best_pair(_schmidt_svd(psi)[1])
    if pair is None:
        raise NotHardyError("candidate state has no admissible pair of distinct Schmidt weights")
    d_noise = _candidate_distance(_unit(noise), psi)
    p_star = 0.0 if pair.a - 6.0 * d_noise >= 0.0 else 1.0 - pair.a / (6.0 * d_noise)
    return NoiseThresholdReport(p_star=p_star, d_noise=d_noise, a=pair.a)


__all__ = [
    "CERTIFICATION_TOL",
    "CertificationReport",
    "NoiseThresholdReport",
    "Verdict",
    "candidate_from_state",
    "certify",
    "noise_threshold",
    "top_eigenvector",
    "trace_distance",
]

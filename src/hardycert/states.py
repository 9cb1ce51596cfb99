"""Validated bipartite state types, Schmidt decomposition, and selection of a
distinct-weight Schmidt pair.

A state's trace is held to one tolerance, ``STATE_TOL``: a state vector's
squared norm (the trace of its projector) and, by default, a density
matrix's trace.  Every density-matrix invariant is checked by one gate in
two steps, ``_check_entries`` (dims, shape, finite entries, Hermiticity,
trace) and ``_check_spectrum`` (positivity, from one ``eigvalsh`` whose
spectrum the state keeps): at ``STATE_TOL`` by ``DensityOperator``, at the
caller's tolerance by ``validate_density``.  A validated state costs one
spectral solve: ``validate_density`` solves the matrix it stores and builds
the state without passing it through the gate again, and
``maximally_mixed`` knows its spectrum and solves nothing.

The Schmidt decomposition is one SVD of the amplitude coefficient matrix, in
a fixed phase gauge: each pair of Schmidt vectors is only defined up to
(u e^{i phi}, v e^{-i phi}), and the measurements built from them depend on
that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
)
from .linalg import hermiticity_defect
from .observables import hardy_parameter_a

#: Allowed deviation from 1 of a state's trace: a state vector's squared norm
#: (the sum of its squared Schmidt weights) and a ``DensityOperator``'s trace.
#: ``DensityOperator`` checks its other invariants at it too, and it is the
#: default tolerance of ``validate_density``.
STATE_TOL = 1e-9

#: Schmidt weights at or below this floor are treated as exact zeros.  It sits
#: far above SVD round-off (about 1e-16) and below ``PAIR_FLOOR``, so no
#: weight that a pair may use is dropped.
WEIGHT_FLOOR = 1e-12

#: A weight pair is admissible when its smaller weight and its gap both exceed
#: this floor.  The floor loses no certificate: the denominator of
#: ``hardy_parameter_a`` is at least ``p1*p2`` and at least ``p2*(p2 - p1)``,
#: so ``a <= min((p2 - p1)**2, p1**2)``, and a pair at the floor has
#: ``a <= 1e-16``, far below ``certification.CERTIFICATION_TOL``.
PAIR_FLOOR = 1e-8


def _check_subsystem_dims(d1, d2) -> None:
    """Refuse subsystem dimensions that are not integers >= 1.

    Python and numpy integers pass; a bool (``True`` would be a dimension of
    1) and a float (numpy's shape arithmetic then fails) do not.
    """
    for d in (d1, d2):
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise DimensionMismatchError(
                f"subsystem dimensions must be positive integers, got ({d1!r}, {d2!r})"
            )


@dataclass(frozen=True)
class StateVector:
    """Unit vector in C^d1 (x) C^d2, stored as a flat complex amplitude array.

    The amplitude of basis ket ``|i>|j>`` sits at index ``i * d2 + j``.
    """

    d1: int
    d2: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_subsystem_dims(self.d1, self.d2)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.d1 * self.d2:
            raise DimensionMismatchError(
                f"{amps.size} amplitudes do not fill dims ({self.d1}, {self.d2})"
            )
        if not np.all(np.isfinite(amps)):
            raise InvalidStateError("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > STATE_TOL:
            raise InvalidStateError(
                f"state vector squared norm {norm_sq!r} is not 1 within {STATE_TOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|, made exactly Hermitian (the
        complex products of ``np.outer`` can miss by an ulp)."""
        outer = np.outer(self.amplitudes, self.amplitudes.conj())
        return (outer + outer.conj().T) / 2.0

    def coefficient_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to d1 x d2, row index running over subsystem 1."""
        return self.amplitudes.reshape(self.d1, self.d2)


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0, naming it.

    A NaN would make every ``x > tol`` comparison false and switch its check
    off; a negative one admits what a zero refuses.
    """
    if not 0.0 <= value < math.inf:  # NaN fails it too
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _check_entries(matrix, d1: int, d2: int, tol: float) -> tuple[np.ndarray, float]:
    """The entry checks of the density gate, every invariant but positivity,
    at ``tol``.

    Returns the Hermitian part of ``matrix`` (exactly Hermitian, so spectral
    routines downstream meet their preconditions) and its trace.

    Raises
    ------
    DimensionMismatchError
        A dimension is not an integer >= 1, or the shape is not (d1 d2, d1 d2).
    InvalidStateError
        An entry is not finite.
    NotHermitianError, NotUnitTraceError
        The corresponding check failed beyond ``tol``, or the trace is not
        positive.
    """
    _check_subsystem_dims(d1, d2)
    mat = np.asarray(matrix, dtype=complex)
    dim = d1 * d2
    if mat.shape != (dim, dim):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not match dims ({d1}, {d2})"
        )
    if not np.all(np.isfinite(mat)):
        raise InvalidStateError("matrix entries must be finite")
    defect = hermiticity_defect(mat)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol}")
    sym = (mat + mat.conj().T) / 2.0
    trace = float(np.trace(sym).real)
    off_unit = abs(trace - 1.0) > tol
    if off_unit or trace <= 0.0:
        # A tol of 1 or more admits a trace <= 0, which no renormalisation repairs.
        expected = f"1 within {tol}" if off_unit else "positive"
        raise NotUnitTraceError(f"trace {trace!r} is not {expected}")
    return sym, trace


def _check_spectrum(matrix: np.ndarray, scale: float, tol: float) -> np.ndarray:
    """The spectrum step of the density gate: the ascending spectrum of
    ``matrix``, one ``eigvalsh``.

    ``matrix`` is a Hermitian part from ``_check_entries`` divided by
    ``scale`` (1 when it is stored undivided), so the smallest eigenvalue of
    that Hermitian part is ``scale`` times the smallest one here, up to
    round-off.  It is refused below ``-tol``.

    The entries were finite, but forming the Hermitian part or dividing it
    can overflow; ``eigvalsh`` would then return NaNs or fail to converge,
    so a matrix that is not finite is refused first.

    Raises
    ------
    InvalidStateError
        ``matrix`` has an entry that is not finite.
    NotPositiveError
        The smallest eigenvalue of the Hermitian part is below ``-tol``.
    """
    if not np.all(np.isfinite(matrix)):
        raise InvalidStateError("matrix entries overflow the floating-point range")
    eigenvalues = np.linalg.eigvalsh(matrix)
    smallest = float(eigenvalues[0]) * scale
    if smallest < -tol:
        raise NotPositiveError(f"eigenvalue {smallest!r} below -{tol}")
    return eigenvalues


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on C^d1 (x) C^d2.

    The constructor takes outside input, so it runs the whole density gate
    at ``STATE_TOL``; the stored matrix is the input's Hermitian part.  Use
    ``validate_density`` to construct from data that may need round-off
    repair at a looser tolerance.

    ``eigenvalues`` is the read-only ascending spectrum of ``matrix``, bit
    for bit ``np.linalg.eigvalsh(matrix)``, kept from the positivity check;
    it takes no part in ``==`` or ``repr``.
    """

    d1: int
    d2: int
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sym, _ = _check_entries(self.matrix, self.d1, self.d2, STATE_TOL)
        _store(self, sym, _check_spectrum(sym, 1.0, STATE_TOL))

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


def _store(state: DensityOperator, matrix: np.ndarray, eigenvalues: np.ndarray) -> DensityOperator:
    """Set ``state``'s matrix and spectrum, both made read-only."""
    for name, value in (("matrix", matrix), ("eigenvalues", eigenvalues)):
        value.setflags(write=False)
        object.__setattr__(state, name, value)
    return state


def _checked_density(d1: int, d2: int, matrix: np.ndarray, eigenvalues: np.ndarray) -> DensityOperator:
    """A ``DensityOperator`` over a matrix that this module has already
    checked, and its exact ascending spectrum, built without the
    constructor's gate, which it would pass."""
    state = object.__new__(DensityOperator)
    object.__setattr__(state, "d1", d1)
    object.__setattr__(state, "d2", d2)
    return _store(state, matrix, eigenvalues)


def validate_density(matrix, d1: int, d2: int, tol: float = STATE_TOL) -> DensityOperator:
    """Validate and, where round-off requires, repair a candidate density matrix.

    The matrix passes the entry checks at ``tol``.  Its Hermitian part
    ``sym`` divided by its trace is the matrix to store, and one ``eigvalsh``
    of it gives the spectrum.  The trace is positive, so the smallest
    eigenvalue of ``sym`` is the trace times that spectrum's smallest, and
    below ``-tol`` it is refused.

    With no negative eigenvalue the quotient is stored with that spectrum
    and not checked again: the constructor's gate could not fail on it,
    since ``sym / trace`` is exactly Hermitian, its trace is 1 within
    round-off and its spectrum is >= 0.  Otherwise eigenvalues in [-tol, 0)
    are clipped to zero and the operator renormalized to unit trace, so
    slightly negative round-off noise cannot leak into downstream spectral
    computations; the repaired matrix goes through the constructor.

    Raises
    ------
    ValueError
        ``tol`` is not a finite number >= 0.
    DimensionMismatchError, InvalidStateError, NotHermitianError,
    NotUnitTraceError, NotPositiveError
        As ``_check_entries`` and ``_check_spectrum``.
    """
    _check_tolerance("tol", tol)
    sym, trace = _check_entries(matrix, d1, d2, tol)
    unit = sym / trace
    eigenvalues = _check_spectrum(unit, trace, tol)
    if eigenvalues[0] >= 0.0:
        return _checked_density(d1, d2, unit, eigenvalues)
    # Only the repair reads eigenvectors, so only it pays for them.
    values, vectors = np.linalg.eigh(sym)
    clipped = (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T
    return DensityOperator(d1=d1, d2=d2, matrix=clipped / float(np.trace(clipped).real))


def pure_density(psi: StateVector) -> DensityOperator:
    """Density operator of a pure state."""
    return DensityOperator(d1=psi.d1, d2=psi.d2, matrix=psi.projector())


def maximally_mixed(d1: int, d2: int) -> DensityOperator:
    """The white-noise state I / (d1 d2)."""
    _check_subsystem_dims(d1, d2)
    dim = d1 * d2
    # The spectrum of I / D is known exactly: no eigensolve.
    return _checked_density(d1, d2, np.eye(dim, dtype=complex) / dim, np.full(dim, 1.0 / dim))


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of a bipartite pure state.

    ``weights`` are the positive singular values of the coefficient matrix,
    sorted in descending order (ties allowed for degenerate spectra).  Column
    k of ``left_basis`` / ``right_basis`` holds the subsystem-1 / subsystem-2
    unit vector carrying ``weights[k]``.
    """

    weights: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise InvalidStateError("weights must be a non-empty 1-D array")
        if not np.all(weights > 0.0):  # NaN fails it too
            raise InvalidStateError("Schmidt weights must be strictly positive")
        if np.any(np.diff(weights) > 0.0):
            raise InvalidStateError("Schmidt weights must be sorted in descending order")
        if abs(float(np.sum(weights**2)) - 1.0) > STATE_TOL:
            raise InvalidStateError("squared Schmidt weights must sum to 1")
        if self.left_basis.shape[1] != weights.size or self.right_basis.shape[1] != weights.size:
            raise DimensionMismatchError("basis column count must match the weight count")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def rank(self) -> int:
        return int(self.weights.size)

    def reconstruct(self) -> np.ndarray:
        """Flat amplitude array of sum_k weights[k] |left_k>|right_k>."""
        coeff = (self.left_basis * self.weights) @ self.right_basis.T
        return coeff.reshape(-1)


def schmidt_decompose(psi: StateVector) -> SchmidtForm:
    """Schmidt-decompose a bipartite pure state.

    One SVD ``C = U diag(s) V^H`` of the coefficient matrix gives the weights
    ``s`` and the bases: column k of ``U`` on subsystem 1 and row k of
    ``V^H`` on subsystem 2.  Weights at or below WEIGHT_FLOOR are dropped as
    numerical zeros.

    Gauge: each left vector is rotated so that its largest-magnitude
    component is real and positive, and its right partner takes the
    conjugate phase.  The weights, ``a`` and epsilon do not depend on this
    choice, but the measurements built from the bases, and so a state's
    36-cell behavior and the local-model LP, do; the gauge pins them.
    """
    left, weights, right_h = np.linalg.svd(psi.coefficient_matrix(), full_matrices=False)
    rank = np.count_nonzero(weights > WEIGHT_FLOOR)
    left = left[:, :rank]
    pivots = left[np.argmax(np.abs(left), axis=0), np.arange(rank)]
    phases = pivots.conj() / np.abs(pivots)
    return SchmidtForm(
        weights=weights[:rank],
        left_basis=left * phases,
        right_basis=right_h[:rank].T * phases.conj(),
    )


@dataclass(frozen=True)
class HardyPair:
    """A selected pair of distinct Schmidt weights with its certification
    parameter.

    ``index_small`` / ``index_large`` are column indices into the SchmidtForm
    for the smaller weight p1 and the larger weight p2; ``a`` caches
    ``hardy_parameter_a(p1, p2)``.
    """

    index_small: int
    index_large: int
    p1: float
    p2: float
    a: float


def find_hardy_pair(sf: SchmidtForm) -> HardyPair | None:
    """Pick the admissible weight pair that maximizes the certification
    parameter.

    Pairs whose weights differ by at most ``PAIR_FLOOR``, or whose smaller
    weight is at most ``PAIR_FLOOR``, are skipped: such pairs certify nothing
    and only invite round-off trouble.  Returns None when no admissible pair
    exists (the state is not usable for this construction).
    """
    weights = sf.weights
    best: HardyPair | None = None
    for j in range(weights.size):
        for i in range(j + 1, weights.size):
            p2 = float(weights[j])
            p1 = float(weights[i])
            if p1 <= PAIR_FLOOR or p2 - p1 <= PAIR_FLOOR:
                continue
            value = hardy_parameter_a(p1, p2)
            if best is None or value > best.a:
                best = HardyPair(index_small=i, index_large=j, p1=p1, p2=p2, a=value)
    return best


__all__ = [
    "PAIR_FLOOR",
    "STATE_TOL",
    "WEIGHT_FLOOR",
    "DensityOperator",
    "HardyPair",
    "SchmidtForm",
    "StateVector",
    "find_hardy_pair",
    "maximally_mixed",
    "pure_density",
    "schmidt_decompose",
    "validate_density",
]

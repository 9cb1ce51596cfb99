"""Validated bipartite state types, Schmidt decomposition, and selection of a
distinct-weight Schmidt pair.

A state's trace is held to one tolerance, ``STATE_TOL``: a state vector's
squared norm (the trace of its projector) and, by default, a density
matrix's trace.  Every density-matrix invariant is checked once, in
``_check_density``: at ``STATE_TOL`` by ``DensityOperator``, at the caller's
tolerance by ``validate_density``.

The Schmidt decomposition is one SVD of the amplitude coefficient matrix, in
a fixed phase gauge: each pair of Schmidt vectors is only defined up to
(u e^{i phi}, v e^{-i phi}), and the measurements built from them depend on
that choice.
"""

from __future__ import annotations

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
#: far above SVD round-off (about 1e-16) and below ``DEFAULT_DELTA``, so no
#: weight that a pair may use at the default gap is dropped.
WEIGHT_FLOOR = 1e-12

#: Default minimum weight gap (and minimum weight) for an admissible pair.
DEFAULT_DELTA = 1e-8


@dataclass(frozen=True)
class StateVector:
    """Unit vector in C^d1 (x) C^d2, stored as a flat complex amplitude array.

    The amplitude of basis ket ``|i>|j>`` sits at index ``i * d2 + j``.
    """

    d1: int
    d2: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionMismatchError("subsystem dimensions must be positive")
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


def _check_density(matrix, d1: int, d2: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The one gate for density matrices: every invariant checked at ``tol``.

    Returns the Hermitian part of ``matrix`` (exactly Hermitian, so spectral
    routines downstream meet their preconditions) and its ascending spectrum.

    Raises
    ------
    DimensionMismatchError
        A dimension is not positive, or the shape is not (d1 d2, d1 d2).
    InvalidStateError
        An entry is not finite.
    NotHermitianError, NotUnitTraceError, NotPositiveError
        The corresponding check failed beyond ``tol``, or the trace is not
        positive.
    """
    if d1 < 1 or d2 < 1:
        raise DimensionMismatchError("subsystem dimensions must be positive")
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
    eigenvalues = np.linalg.eigvalsh(sym)
    smallest = float(eigenvalues[0])
    if smallest < -tol:
        raise NotPositiveError(f"eigenvalue {smallest!r} below -{tol}")
    return sym, eigenvalues


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on C^d1 (x) C^d2.

    The input passes ``_check_density`` at ``STATE_TOL`` and the stored
    matrix is its Hermitian part.  Use ``validate_density`` to construct
    from data that may need round-off repair at a looser tolerance.

    ``eigenvalues`` is the read-only ascending spectrum of ``matrix``, kept
    from the positivity check; it takes no part in ``==`` or ``repr``.
    """

    d1: int
    d2: int
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat, eigenvalues = _check_density(self.matrix, self.d1, self.d2, STATE_TOL)
        mat.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


def validate_density(matrix, d1: int, d2: int, tol: float = STATE_TOL) -> DensityOperator:
    """Validate and, where round-off requires, repair a candidate density matrix.

    The matrix passes ``_check_density`` at ``tol``.  Eigenvalues in
    [-tol, 0) are then clipped to zero and the operator renormalized to unit
    trace, so slightly negative round-off noise cannot leak into downstream
    spectral computations.

    Raises
    ------
    DimensionMismatchError, InvalidStateError, NotHermitianError,
    NotUnitTraceError, NotPositiveError
        As ``_check_density``.
    """
    sym, eigenvalues = _check_density(matrix, d1, d2, tol)
    if eigenvalues[0] < 0.0:
        # Only the repair reads eigenvectors, so only it pays for them.
        values, vectors = np.linalg.eigh(sym)
        sym = (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T
    repaired = sym / float(np.trace(sym).real)
    return DensityOperator(d1=d1, d2=d2, matrix=repaired)


def pure_density(psi: StateVector) -> DensityOperator:
    """Density operator of a pure state."""
    return DensityOperator(d1=psi.d1, d2=psi.d2, matrix=psi.projector())


def maximally_mixed(d1: int, d2: int) -> DensityOperator:
    """The white-noise state I / (d1 d2)."""
    dim = d1 * d2
    return DensityOperator(d1=d1, d2=d2, matrix=np.eye(dim) / dim)


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
        if np.any(weights <= 0.0):
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


def find_hardy_pair(sf: SchmidtForm, delta: float = DEFAULT_DELTA) -> HardyPair | None:
    """Pick the admissible weight pair that maximizes the certification
    parameter.

    Pairs whose weights differ by at most ``delta``, or whose smaller weight
    is at most ``delta``, are skipped: the parameter scales like the squared
    gap, so such pairs certify nothing and only invite round-off trouble.
    Returns None when no admissible pair exists (the state is not usable for
    this construction).
    """
    weights = sf.weights
    best: HardyPair | None = None
    for j in range(weights.size):
        for i in range(j + 1, weights.size):
            p2 = float(weights[j])
            p1 = float(weights[i])
            if p1 <= delta or p2 - p1 <= delta:
                continue
            value = hardy_parameter_a(p1, p2)
            if best is None or value > best.a:
                best = HardyPair(index_small=i, index_large=j, p1=p1, p2=p2, a=value)
    return best


__all__ = [
    "DEFAULT_DELTA",
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

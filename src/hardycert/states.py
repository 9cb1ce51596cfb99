"""Validated bipartite state types, Schmidt decomposition, and selection of a
distinct-weight Schmidt pair.

The Schmidt decomposition is computed through the Hermitian eigendecomposition
of the subsystem-1 reduced state rather than a complex SVD: the eigenvectors
give the left basis directly, and applying the transposed coefficient matrix
recovers the matching right basis, pair by pair, including inside degenerate
weight blocks.
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
from .linalg import hermitian_eig, hermiticity_defect
from .observables import hardy_parameter_a

#: Allowed deviation of a state vector's norm from 1.
NORM_TOL = 1e-9

#: Default validation tolerance for density operators.
STATE_TOL = 1e-9

#: Reduced-state eigenvalues at or below this floor are treated as exact zeros
#: when extracting Schmidt weights.  Dropping at most dim-many of them removes
#: less than 1e-9 of squared amplitude, which keeps reconstruction faithful.
WEIGHT_FLOOR = 1e-11

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
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidStateError(f"state vector norm {norm!r} is not 1 within {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def coefficient_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to d1 x d2, row index running over subsystem 1."""
        return self.amplitudes.reshape(self.d1, self.d2)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on C^d1 (x) C^d2.

    The stored matrix is the Hermitian part of the input (checked to deviate
    by at most 1e-9 first), so spectral routines downstream meet their
    preconditions exactly.  Use ``validate_density`` to construct from data
    that may need round-off repair at a looser tolerance.

    ``eigenvalues`` is the read-only ascending spectrum of ``matrix``, kept
    from the positivity check; it takes no part in ``==`` or ``repr``.
    """

    d1: int
    d2: int
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionMismatchError("subsystem dimensions must be positive")
        mat = np.array(self.matrix, dtype=complex)
        dim = self.d1 * self.d2
        if mat.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match dims ({self.d1}, {self.d2})"
            )
        if not np.all(np.isfinite(mat)):
            raise InvalidStateError("matrix entries must be finite")
        if hermiticity_defect(mat) > STATE_TOL:
            raise NotHermitianError(
                f"hermiticity defect {hermiticity_defect(mat):.3e} exceeds {STATE_TOL}"
            )
        mat = (mat + mat.conj().T) / 2.0
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > STATE_TOL:
            raise NotUnitTraceError(f"trace {trace!r} is not 1 within {STATE_TOL}")
        eigenvalues = np.linalg.eigvalsh(mat)
        smallest = float(eigenvalues[0])
        if smallest < -STATE_TOL:
            raise NotPositiveError(f"eigenvalue {smallest!r} below -{STATE_TOL}")
        mat.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


def validate_density(matrix, d1: int, d2: int, tol: float = STATE_TOL) -> DensityOperator:
    """Validate and, where round-off requires, repair a candidate density matrix.

    Hermiticity, unit trace, and positivity are each checked at ``tol``.
    Eigenvalues in [-tol, 0) are clipped to zero and the operator renormalized
    to unit trace, so slightly negative round-off noise cannot leak into
    downstream spectral computations.

    Raises
    ------
    NotHermitianError, NotUnitTraceError, NotPositiveError
        The corresponding check failed beyond ``tol``.
    """
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
    if abs(trace - 1.0) > tol:
        raise NotUnitTraceError(f"trace {trace!r} is not 1 within {tol}")
    smallest = float(np.linalg.eigvalsh(sym)[0])
    if smallest < -tol:
        raise NotPositiveError(f"eigenvalue {smallest!r} below -{tol}")
    if smallest < 0.0:
        # Only the repair reads eigenvectors, so only it pays for them.
        system = hermitian_eig(sym)
        clipped = np.clip(system.eigenvalues, 0.0, None)
        sym = (system.eigenvectors * clipped) @ system.eigenvectors.conj().T
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

    ``weights`` are positive square roots of the reduced-state spectrum,
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
        if abs(float(np.sum(weights**2)) - 1.0) > 1e-9:
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

    Eigendecomposes the subsystem-1 reduced state; for each kept eigenpair
    (weight^2, alpha) the partner vector is beta = C.T conj(alpha) / weight
    with C the coefficient matrix, which is automatically orthonormal even
    across degenerate weight blocks.  Eigenvalues at or below WEIGHT_FLOOR
    are dropped as numerical zeros.
    """
    coeff = psi.coefficient_matrix()
    reduced = coeff @ coeff.conj().T
    system = hermitian_eig(reduced)
    order = np.argsort(system.eigenvalues, kind="stable")[::-1]
    weights = []
    left = []
    right = []
    for idx in order:
        weight_sq = float(system.eigenvalues[idx])
        if weight_sq <= WEIGHT_FLOOR:
            continue
        weight = math.sqrt(weight_sq)
        alpha = system.eigenvectors[:, idx]
        beta = coeff.T @ alpha.conj() / weight
        beta = beta / float(np.linalg.norm(beta))
        weights.append(weight)
        left.append(alpha)
        right.append(beta)
    if not weights:
        raise InvalidStateError("no Schmidt weight above the numerical floor")
    return SchmidtForm(
        weights=np.array(weights),
        left_basis=np.column_stack(left),
        right_basis=np.column_stack(right),
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
    "NORM_TOL",
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

"""Validated bipartite state types and the Schmidt decomposition.

This is the bottom layer of the package: it imports only ``errors`` and
``linalg``.  Which Schmidt pair a candidate's measurements use is chosen in
``observables``, next to the parameter ``a`` the choice maximises.

A state's trace is held to one tolerance, ``STATE_TOL``: a state vector's
squared norm and, by default, a density matrix's trace.  Every
density-matrix invariant is checked by one gate, ``_gate``: the entry checks
(dims, shape, finite entries, Hermiticity, trace), then positivity.  One
Cholesky factorisation of the Hermitian part, shifted down by a bound on
round-off, proves most states positive definite without a spectrum; the
rest take one ``eigh``, whose eigenvectors serve a round-off repair when its
spectrum is negative.  ``DensityOperator`` runs the gate at ``STATE_TOL`` and
``validate_density`` at the caller's tolerance, so at one tolerance both
store the same matrix.  Neither divides an unrepaired matrix by its trace:
its readers do.  A state is its validated matrix and keeps no spectrum;
``pure_density`` and ``maximally_mixed`` are states by construction.  Those
two, ``validate_density`` and ``schmidt_decompose`` seal their records with
``linalg._sealed`` over the arrays they have just computed, as the
constructors seal theirs after the checks, so no check runs twice.

The Schmidt decomposition is one SVD of the amplitude coefficient matrix, in
a fixed phase gauge: each pair of Schmidt vectors is only defined up to
(u e^{i phi}, v e^{-i phi}), and the measurements built from them depend on
that choice.  It runs as two steps, ``_schmidt_svd`` and ``_fix_gauge``,
because a verdict reads only the weights of the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
)
from .linalg import _roundoff, _sealed, hermitian_part

#: Allowed deviation from 1 of a state's trace: a state vector's squared norm
#: and a ``DensityOperator``'s trace.
#: ``DensityOperator`` checks its other invariants at it too, and it is the
#: default tolerance of ``validate_density``.
STATE_TOL = 1e-9

#: Schmidt weights at or below this floor are treated as exact zeros.  It sits
#: far above SVD round-off (about 1e-16) and below ``observables.PAIR_FLOOR``,
#: so no weight that a pair may use is dropped.
WEIGHT_FLOOR = 1e-12


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

    The amplitude of basis ket ``|i>|j>`` sits at index ``i * d2 + j``.  The
    amplitudes are stored as given, so their squared norm may miss 1 by up
    to ``STATE_TOL``; ``projector`` and ``schmidt_decompose`` describe the
    unit vector ``psi / ||psi||``.
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
        if not np.isfinite(amps).all():
            raise InvalidStateError("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > STATE_TOL:
            raise InvalidStateError(
                f"state vector squared norm {norm_sq!r} is not 1 within {STATE_TOL}"
            )
        _sealed(self, amplitudes=amps)

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi| / <psi|psi>, made exactly
        Hermitian by ``linalg.hermitian_part`` (the complex products of the
        outer product can miss by an ulp).

        Dividing by the squared norm gives it unit trace: a certificate
        measured against an unnormalised projector could gain up to
        ``STATE_TOL`` of margin that the unit vector does not have.
        """
        amps = self.amplitudes
        return hermitian_part(amps[:, None] * amps.conj())[0] / np.vdot(amps, amps).real


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0, naming it.

    A NaN would make every ``x > tol`` comparison false and switch its check
    off; a negative one admits what a zero refuses.  A bool is refused too,
    as it is for dims: ``True`` would be a tolerance of 1.
    """
    if isinstance(value, (bool, np.bool_)) or not 0.0 <= value < math.inf:  # NaN fails it too
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _gate(matrix, d1: int, d2: int, tol: float) -> np.ndarray:
    """The density gate at ``tol``: the matrix to store.

    The entries are checked first: dims, shape, finite entries, Hermiticity
    and a positive trace within ``tol`` of 1.  One adjoint of the matrix,
    taken by ``linalg.hermitian_part``, gives both the Hermiticity defect and
    the Hermitian part that every later step reads and the gate stores.
    Positivity comes next, from the cheapest proof that holds:

    - One Cholesky factorisation of the Hermitian part minus ``s I``, with
      ``s = linalg._roundoff(D, tr)``: ``4 (D + 1) eps tr`` (D = d1 d2, eps
      the machine epsilon, tr the trace) plus the smallest normal float.  A
      floating-point Cholesky that runs to completion proves the smallest
      eigenvalue of the unshifted matrix exceeds ``s`` less the
      factorisation's backward error, which is about ``gamma_{D+1} tr``
      (S. M. Rump, BIT 46, 433-452 (2006); N. J. Higham, *Accuracy and
      Stability of Numerical Algorithms*, ch. 10), and the tiny term covers
      underflow.  With eps twice the unit round-off,
      ``s`` is 8 ``gamma_{D+1} tr``: room for the larger constants of complex
      arithmetic and a margin that also exceeds an eigensolver's own error,
      so the spectrum ``eigh`` would give is nonnegative.  The Hermitian
      part is kept as it is, off-unit trace included, and no spectrum is
      solved.
    - Otherwise (a singular or nearly singular matrix, such as a pure
      projector) one ``eigh`` of the Hermitian part gives its spectrum,
      refused below ``-tol``.  A nonnegative spectrum keeps the Hermitian
      part as it is.  A negative one is repaired from the same solve:
      eigenvalues clipped up to a floor of ``_roundoff(D - 1, 1)`` (4 D
      ulps), a division by the clipped trace and the Hermitian part of the
      quotient, which validates to itself.  Nearly every matrix the Cholesky
      cannot prove has round-off negatives and is repaired, so its spectrum
      and eigenvectors come from one solve rather than two.

    The entries were finite, but forming the Hermitian part can overflow; the
    solvers would then return NaNs or fail to converge, so it is refused
    first, with no numpy warning.

    Raises
    ------
    DimensionMismatchError
        A dimension is not an integer >= 1, or the shape is not (d1 d2, d1 d2).
    InvalidStateError
        An entry is not finite, or the Hermitian part overflows.
    NotHermitianError, NotUnitTraceError, NotPositiveError
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
    sym, defect = hermitian_part(mat)
    # A non-finite entry leaves its Hermitian-part entry non-finite, so one
    # pass over the Hermitian part clears the input too; only when it fails
    # is the input read, to tell a non-finite entry from an overflow.
    sym_finite = bool(np.isfinite(sym).all())
    if not sym_finite and not np.isfinite(mat).all():
        raise InvalidStateError("matrix entries must be finite")
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol}")
    trace = float(sym.trace().real)
    off_unit = abs(trace - 1.0) > tol
    if off_unit or trace <= 0.0:
        # A tol of 1 or more admits a trace <= 0, which no renormalisation repairs.
        expected = f"1 within {tol}" if off_unit else "positive"
        raise NotUnitTraceError(f"trace {trace!r} is not {expected}")
    if not sym_finite:
        raise InvalidStateError("matrix entries overflow the floating-point range")
    # sym - s I: the shift above, taken off the diagonal of a copy.
    shifted = sym.copy()
    shifted.reshape(-1)[:: dim + 1] -= _roundoff(dim, trace)
    try:
        # No upper=: numpy 1.24 lacks it, and the factor is not read.
        np.linalg.cholesky(shifted)
        return sym
    except np.linalg.LinAlgError:
        pass  # not proven positive definite: solve the spectrum
    values, vectors = np.linalg.eigh(sym)
    if values[0] < -tol:
        raise NotPositiveError(f"eigenvalue {float(values[0])!r} below -{tol}")
    if values[0] >= 0.0:
        return sym
    # An eigenvalue clipped to zero comes back from an eigensolver a few ulps
    # either side of it; clipped to 4 D ulps, it comes back positive.
    clipped = (vectors * np.clip(values, _roundoff(dim - 1, 1.0), None)) @ vectors.conj().T
    clipped /= float(np.trace(clipped).real)
    return hermitian_part(clipped)[0]


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite operator on C^d1 (x) C^d2 whose trace
    is within ``STATE_TOL`` of 1.

    The constructor takes outside input, so it runs the density gate at
    ``STATE_TOL``: the stored matrix is the input's Hermitian part, as given
    when it is positive semidefinite and repaired when round-off made its
    spectrum negative.  ``validate_density`` runs the same gate at a
    caller's tolerance.
    """

    d1: int
    d2: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _sealed(self, matrix=_gate(self.matrix, self.d1, self.d2, STATE_TOL))


def validate_density(matrix, d1: int, d2: int, tol: float = STATE_TOL) -> DensityOperator:
    """Validate and, where round-off requires, repair a candidate density
    matrix: the constructor's gate at ``tol`` instead of ``STATE_TOL``.

    A matrix whose spectrum is nonnegative is stored as its Hermitian part,
    not divided by its trace, so a state's own matrix validates to itself
    bit for bit.  Eigenvalues in [-tol, 0) are clipped up to a floor a few
    ulps above zero and the repaired operator has unit trace, so slightly
    negative round-off noise cannot leak into downstream spectral
    computations.

    Raises
    ------
    ValueError
        ``tol`` is not a finite number >= 0.
    DimensionMismatchError, InvalidStateError, NotHermitianError,
    NotUnitTraceError, NotPositiveError
        As the gate, ``_gate``.
    """
    _check_tolerance("tol", tol)
    return _sealed(object.__new__(DensityOperator), d1=d1, d2=d2, matrix=_gate(matrix, d1, d2, tol))


def pure_density(psi: StateVector) -> DensityOperator:
    """Density operator of a pure state: its projector, stored as it is.

    A validated ``StateVector``'s projector is exactly Hermitian, has unit
    trace and is positive semidefinite up to round-off, so no gate runs.
    The gate, if run on this matrix, would repair it by a few ulps, lifting
    it off rank one: its smallest eigenvalue is nearly always below zero.
    """
    return _sealed(object.__new__(DensityOperator), d1=psi.d1, d2=psi.d2, matrix=psi.projector())


def maximally_mixed(d1: int, d2: int) -> DensityOperator:
    """The white-noise state I / (d1 d2)."""
    _check_subsystem_dims(d1, d2)
    dim = d1 * d2
    matrix = np.eye(dim, dtype=complex) / dim
    return _sealed(object.__new__(DensityOperator), d1=d1, d2=d2, matrix=matrix)


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of a bipartite pure state, held as three checked,
    read-only arrays.

    ``weights`` are the positive singular values of the coefficient matrix,
    sorted in descending order (ties allowed for degenerate spectra), whose
    squares sum to 1 within ``STATE_TOL``.  ``left_basis`` / ``right_basis``
    are 2-D complex arrays with one column per weight: column k holds the
    subsystem-1 / subsystem-2 unit vector carrying ``weights[k]``, and each
    basis's columns are orthonormal, every entry of its Gram matrix ``B^H B``
    within ``STATE_TOL`` of the identity's.  The constructor converts the
    three fields (lists are accepted), checks them and stores them
    read-only, so a measurement built from a form cannot be changed through
    it afterwards.

    Raises
    ------
    InvalidStateError
        The weights are not a non-empty 1-D array of positive, descending
        numbers whose squares sum to 1, or a basis's columns are not
        orthonormal.
    DimensionMismatchError
        A basis is not 2-D or its column count is not the weight count.
    """

    weights: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise InvalidStateError("weights must be a non-empty 1-D array")
        if not (weights > 0.0).all():  # NaN fails it too
            raise InvalidStateError("Schmidt weights must be strictly positive")
        if (np.diff(weights) > 0.0).any():
            raise InvalidStateError("Schmidt weights must be sorted in descending order")
        if abs(float(np.sum(weights**2)) - 1.0) > STATE_TOL:
            raise InvalidStateError("squared Schmidt weights must sum to 1")
        bases = [np.array(basis, dtype=complex) for basis in (self.left_basis, self.right_basis)]
        if any(basis.ndim != 2 or basis.shape[1] != weights.size for basis in bases):
            raise DimensionMismatchError(
                "bases must be 2-D, and basis column count must match the weight count"
            )
        for basis in bases:
            defect = np.abs(basis.conj().T @ basis - np.eye(weights.size)).max()
            if not defect <= STATE_TOL:  # NaN fails it too
                raise InvalidStateError(f"basis columns not orthonormal: Gram defect {defect:.3e}")
        _sealed(self, weights=weights, left_basis=bases[0], right_basis=bases[1])


def _schmidt_svd(psi: StateVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``schmidt_decompose`` up to its gauge: the columns of ``U``, the kept,
    normalised, read-only weights and the rows of ``V^H``, in the solver's
    phases, from one SVD of the amplitudes reshaped to the d1 x d2
    coefficient matrix (row index over subsystem 1).  The bases are left
    writable: ``_fix_gauge`` reads them into fresh arrays.  A verdict reads
    only the weights."""
    coefficients = psi.amplitudes.reshape(psi.d1, psi.d2)
    left, weights, right_h = np.linalg.svd(coefficients, full_matrices=False)
    rank = np.count_nonzero(weights > WEIGHT_FLOOR)
    kept = weights[:rank]
    kept = kept / math.sqrt(kept.dot(kept))
    kept.setflags(write=False)
    return left[:, :rank], kept, right_h[:rank]


def _fix_gauge(left: np.ndarray, weights: np.ndarray, right_h: np.ndarray) -> SchmidtForm:
    """The Schmidt form of one ``_schmidt_svd`` triple, in
    ``schmidt_decompose``'s gauge, sealed over the two fresh rephased bases."""
    pivots = left[np.argmax(np.abs(left), axis=0), np.arange(weights.size)]
    phases = pivots.conj() / np.abs(pivots)
    left_basis, right_basis = left * phases, right_h.T * phases.conj()
    return _sealed(
        object.__new__(SchmidtForm), weights=weights, left_basis=left_basis, right_basis=right_basis
    )


def schmidt_decompose(psi: StateVector) -> SchmidtForm:
    """Schmidt-decompose a bipartite pure state.

    One SVD ``C = U diag(s) V^H`` of the coefficient matrix gives the weights
    ``s`` and the bases: column k of ``U`` on subsystem 1 and row k of
    ``V^H`` on subsystem 2.  Weights at or below WEIGHT_FLOOR are dropped as
    numerical zeros, and the kept ones are divided by their norm: they are
    the weights of the unit vector ``psi / ||psi||``, whose ``projector``
    the criterion measures against, so ``a`` is taken on the same state.

    Gauge: each left vector is rotated so that its largest-magnitude
    component is real and positive, and its right partner takes the
    conjugate phase.  The weights, ``a`` and epsilon do not depend on this
    choice, but the measurements built from the bases, and so a state's
    36-cell behavior and the local-model LP, do; the gauge pins them.
    ``certify`` and ``noise_threshold`` run the SVD alone, and ``certify``
    fixes the gauge only when a behavior is read.

    The form is sealed without re-running ``SchmidtForm``'s checks: a
    validated state's largest weight is near 1, the SVD sorts the weights in
    descending order, the kept ones are positive and normalised, and the
    SVD's singular vectors, rephased, are orthonormal.  Its weights and its
    complex 2-D bases are read-only, as the constructor leaves them.
    """
    return _fix_gauge(*_schmidt_svd(psi))


__all__ = [
    "STATE_TOL",
    "WEIGHT_FLOOR",
    "DensityOperator",
    "SchmidtForm",
    "StateVector",
    "maximally_mixed",
    "pure_density",
    "schmidt_decompose",
    "validate_density",
]

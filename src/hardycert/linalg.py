"""Dense complex-matrix primitives: Hermitian eigendecomposition and the
trace norm.

Everything here is a pure function on numpy arrays.  The operators this
package meets are desk scale (dimension products of at most 64), so dense
O(n^3) algorithms are used without apology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, NonSquareError

DEFAULT_HERMITICITY_TOL = 1e-9


def _as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation between ``m`` and its conjugate transpose."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class EigenSystem:
    """Real spectrum in ascending order plus matching orthonormal eigenvectors.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(m, hermiticity_tol: float) -> np.ndarray:
    mat = _as_matrix(m)
    if mat.shape[0] != mat.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {mat.shape}")
    defect = hermiticity_defect(mat)
    if defect > hermiticity_tol:
        raise NonHermitianError(
            f"hermiticity defect {defect:.3e} exceeds tolerance {hermiticity_tol:.3e}"
        )
    return (mat + mat.conj().T) / 2.0


def hermitian_eig(m, hermiticity_tol: float = DEFAULT_HERMITICITY_TOL) -> EigenSystem:
    """Eigendecompose a Hermitian matrix.

    Eigenvalues come back ascending.  Each eigenvector is rotated by a global
    phase so that its largest-magnitude component is real and positive, which
    pins the output down for non-degenerate spectra (degenerate eigenspaces
    still have basis freedom, as any eigensolver's do).

    Raises
    ------
    NonSquareError
        ``m`` is not square.
    NonHermitianError
        ``max |m - m^dagger|`` exceeds ``hermiticity_tol``.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(_hermitian_part(m, hermiticity_tol))
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=_fix_phases(eigenvectors))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    if vectors.size == 0:  # a 0x0 matrix has no pivot for argmax to find
        return vectors
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * (pivots.conj() / np.abs(pivots))


def trace_norm(m, hermiticity_tol: float = DEFAULT_HERMITICITY_TOL) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix.

    Raises the same errors as ``hermitian_eig``.
    """
    return float(np.sum(np.abs(np.linalg.eigvalsh(_hermitian_part(m, hermiticity_tol)))))


__all__ = [
    "DEFAULT_HERMITICITY_TOL",
    "EigenSystem",
    "hermitian_eig",
    "hermiticity_defect",
    "trace_norm",
]

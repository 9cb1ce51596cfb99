"""Dense complex-matrix primitives: the Hermiticity check and the trace norm.

Everything here is a pure function on numpy arrays.  The operators this
package meets are desk scale (dimension products of at most 64), so dense
O(n^3) algorithms are used without apology.
"""

from __future__ import annotations

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


def trace_norm(m, hermiticity_tol: float = DEFAULT_HERMITICITY_TOL) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix.

    Raises
    ------
    NonSquareError
        ``m`` is not square.
    NonHermitianError
        ``max |m - m^dagger|`` exceeds ``hermiticity_tol``.
    """
    return float(np.sum(np.abs(np.linalg.eigvalsh(_hermitian_part(m, hermiticity_tol)))))


__all__ = [
    "DEFAULT_HERMITICITY_TOL",
    "hermiticity_defect",
    "trace_norm",
]

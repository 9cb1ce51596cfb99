"""The Hermitian part of a dense complex matrix, with its Hermiticity defect,
and the package's bound on round-off in an n x n matrix.

Every density matrix is checked by the one gate in ``states``, which uses
this; the trace distance in ``certification`` is taken on differences of
validated operators and needs no check of its own.
"""

from __future__ import annotations

import numpy as np

#: The machine epsilon, read once.
_EPS = float(np.finfo(float).eps)


def _roundoff(n: int, scale: float) -> float:
    """``4 (n + 1) eps scale``: the round-off bound of the density gate's
    Cholesky shift for an n x n matrix of trace ``scale``, and the test of
    ``certification._candidate_distance`` for an eigenvector at unit trace.
    With eps twice the unit round-off it is 8 ``gamma_{n+1} scale``."""
    return 4.0 * (n + 1) * _EPS * scale


def hermitian_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(m + m^H) / 2`` and the largest entrywise deviation between ``m``
    and ``m^H``, both from one adjoint ``m^H``.

    Finite entries near the largest float can overflow either result.  That
    gives an infinite defect or infinite entries, silently: the caller
    refuses them with an error of its own rather than a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        adjoint = m.conj().T
        defect = float(np.abs(m - adjoint).max()) if m.size else 0.0
        return (m + adjoint) / 2.0, defect


__all__ = ["hermitian_part"]

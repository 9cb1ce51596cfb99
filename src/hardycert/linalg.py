"""The package's numerics: the Hermitian part of a dense complex matrix, with
its Hermiticity defect, and the one bound on round-off in an n x n matrix;
and the one seal of a checked record.

Every density matrix is checked by the one gate in ``states``, which uses
the first two; ``hermitian_part`` is the one place ``(m + m^H) / 2`` is
written, and a state vector's projector and the gate's repair call it too.
The trace distance in ``certification`` is taken on differences of
validated operators and needs no check of its own.  The
machine constants are read here and nowhere else, and ``_roundoff`` is the
one form of every round-off budget in the package.  This module imports
nothing of the package, so every layer, ``lhv`` included, may read it.

``_sealed`` is the one place a frozen record's fields are stored.  Each
checking constructor ends with it, after its checks; the package's own
builders call it on ``object.__new__(cls)`` over arrays they have just
computed, which hold the record's invariants by construction, so no check
runs twice.
"""

from __future__ import annotations

import numpy as np

#: The machine epsilon and the smallest normal float, read once.
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _roundoff(n: int, scale: float) -> float:
    """``4 (n + 1) eps scale`` plus the smallest normal float: the package's
    one round-off bound for an n x n matrix of magnitude ``scale``.  With eps
    twice the unit round-off the first term is 8 ``gamma_{n+1} scale``.  The
    tiny term covers underflow, and it rounds away bit for bit whenever the
    first term is at least about 2e-292.

    Its readers: the density gate's Cholesky shift (n = D, at the trace) and
    repair floor (n + 1 = D, at unit scale), the eigenvector test of
    ``certification._candidate_distance`` and the spectral margin and
    bracket width of its ``_refined_distance`` (n = D, at unit trace), and
    the shift of the 37 x 37 normal equations of ``lhv._projected_model``
    (n + 1 = 37, at their trace)."""
    return 4.0 * (n + 1) * _EPS * scale + _TINY


def _sealed(record, **fields):
    """``record``, an instance of a frozen dataclass, with each of ``fields``
    stored on it and each array among them made read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)
    return record


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

"""The Hermiticity defect of a dense complex matrix.

Every density matrix is checked by the one gate in ``states``, which uses
this; the trace distance in ``certification`` is taken on differences of
validated operators and needs no check of its own.
"""

from __future__ import annotations

import numpy as np


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation between ``m`` and its conjugate transpose."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T)))


__all__ = ["hermiticity_defect"]

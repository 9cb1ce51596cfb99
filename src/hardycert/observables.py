"""Measurement construction for the two-distinct-weight nonlocality argument.

Given a pure state whose Schmidt expansion contains two distinct weights
p1 < p2, two weight-dependent 2x2 unitaries rotate that Schmidt pair into the
"x" and "y" measurement bases on each subsystem.  The resulting four
three-outcome observables (eigenvalues +1, -1 on the rotated pair, 0 on the
rest of the space) have joint statistics with a sharp signature: five
designated joint probabilities vanish exactly while a sixth equals

    a = p1^2 p2^2 (p1 - p2)^2 / (p1^2 + p2^2 - p1 p2)^2 > 0.

That signature is what the certification module's criterion feeds on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonPositiveWeightError

if TYPE_CHECKING:
    from .states import HardyPair, SchmidtForm

#: Canonical outcome order for the three-outcome observables.  Lexicographic
#: enumerations elsewhere (deterministic strategies, behavior tables) follow it.
OUTCOMES = (1, 0, -1)

#: Probabilities within this window outside [0, 1] are clipped to the boundary.
PROBABILITY_CLIP = 1e-12


def _check_weights(p1: float, p2: float) -> None:
    if not (0.0 < p1 < math.inf and 0.0 < p2 < math.inf):  # NaN fails it too
        raise NonPositiveWeightError(f"weights must be positive and finite, got ({p1}, {p2})")


def hardy_parameter_a(p1: float, p2: float) -> float:
    """Closed form of the single nonzero probability in the designated table.

    Symmetric in its arguments and zero exactly when the weights coincide, so
    equal-weight states certify nothing.
    """
    _check_weights(p1, p2)
    if p1 == p2:
        return 0.0
    denom = p1 * p1 + p2 * p2 - p1 * p2
    return (p1 * p1) * (p2 * p2) * (p1 - p2) ** 2 / (denom * denom)


def build_rotations(p1: float, p2: float) -> tuple[np.ndarray, np.ndarray]:
    """The weight-dependent 2x2 unitaries ``(u, v)`` for a pair p1 != p2:
    ``u`` maps the Schmidt pair to the x basis, ``v @ u`` to the y basis.

    With r = sqrt(p1 p2) and q = p2 - p1:

        u = (p1 + p2)^(-1/2)          [[sqrt(p2), -i sqrt(p1)],
                                       [-i sqrt(p1), sqrt(p2)]]
        v = (p1^2 + p2^2 - p1 p2)^(-1/2) [[-i q, r],
                                          [r, -i q]]
    """
    _check_weights(p1, p2)
    su = 1.0 / math.sqrt(p1 + p2)
    u = su * np.array(
        [
            [math.sqrt(p2), -1j * math.sqrt(p1)],
            [-1j * math.sqrt(p1), math.sqrt(p2)],
        ]
    )
    r = math.sqrt(p1 * p2)
    q = p2 - p1
    sv = 1.0 / math.sqrt(p1 * p1 + p2 * p2 - p1 * p2)
    v = sv * np.array([[-1j * q, r], [r, -1j * q]])
    return u, v


def build_bases(sf: SchmidtForm, pair: HardyPair) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the selected Schmidt pair into the measurement bases.

    Returns ``(alice, bob)`` with shapes ``(2, 2, d1)`` and ``(2, 2, d2)``:
    ``alice[s, 0]`` and ``alice[s, 1]`` are the +1 and -1 vectors of setting
    s (0 = x, 1 = y) on subsystem 1, and likewise for ``bob`` on subsystem 2.
    All of them stay inside the two-dimensional span of the selected Schmidt
    pair on their side.

    Convention: the smaller weight's Schmidt vectors occupy slot 1 of the
    rotation and the larger weight's slot 2.  The x vectors are the u-images
    of those slots and the y vectors the (v u)-images, separately on each
    subsystem.  The slot assignment is pinned by the vanishing of the five
    designated joint probabilities, which the test suite checks directly.
    """
    u, v = build_rotations(pair.p1, pair.p2)
    rotations = np.stack([u, v @ u])
    slots = [pair.index_small, pair.index_large]
    # Row k of a rotation holds the coefficients of the k-th new vector in
    # the Schmidt-pair basis, so the image vectors are the rows of R @ basis.T.
    alice = rotations @ sf.left_basis[:, slots].T
    bob = rotations @ sf.right_basis[:, slots].T
    return alice, bob


class HardyObservables(NamedTuple):
    """Spectral projectors of the four three-outcome observables.

    ``alice[s, k]`` is the projector of setting s (0 = X1, 1 = Y1) onto
    outcome ``OUTCOMES[k]``, a ``(2, 3, d1, d1)`` stack; ``bob`` holds X2, Y2
    on subsystem 2 the same way.  The +1 and -1 projectors are rank one and
    the 0 projector covers the rest of the space (zero on a qubit).  This
    pair of stacks is the one representation of a measurement: a state's
    cells on it are read only through ``lhv.behavior_from_state``.
    """

    alice: np.ndarray
    bob: np.ndarray


def _projector_stack(vectors: np.ndarray, dim: int) -> np.ndarray:
    rank_one = np.einsum("sai,saj->saij", vectors, vectors.conj())
    zero = np.eye(dim) - rank_one.sum(axis=1)
    stack = np.stack([rank_one[:, 0], zero, rank_one[:, 1]], axis=1)
    stack.setflags(write=False)
    return stack


def build_observables(bases: tuple[np.ndarray, np.ndarray], d1: int, d2: int) -> HardyObservables:
    """Assemble the projector stacks of the four observables from the bases."""
    alice, bob = bases
    if alice.shape != (2, 2, d1) or bob.shape != (2, 2, d2):
        raise DimensionMismatchError(
            f"basis vectors have dims ({alice.shape[-1]}, {bob.shape[-1]}), "
            f"expected ({d1}, {d2})"
        )
    return HardyObservables(alice=_projector_stack(alice, d1), bob=_projector_stack(bob, d2))


#: (alice setting, bob setting, alice outcome, bob outcome) indices into the
#: behavior of the six designated cells, in HardyProbabilityTable order.
HARDY_CELLS = ((0, 0, 0, 0), (1, 0, 0, 2), (0, 1, 2, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0))


class HardyProbabilityTable(NamedTuple):
    """The six designated joint probabilities, in canonical order.

    For an exact two-distinct-weight pure state the first five vanish and the
    last equals ``hardy_parameter_a(p1, p2)``.
    """

    x1_plus_x2_plus: float
    y1_plus_x2_minus: float
    x1_minus_y2_plus: float
    y1_plus_x2_zero: float
    x1_zero_y2_plus: float
    y1_plus_y2_plus: float

    @classmethod
    def from_behavior(cls, tables: np.ndarray) -> HardyProbabilityTable:
        """The six designated cells of a ``(2, 2, 3, 3)`` behavior."""
        return cls._make(float(tables[cell]) for cell in HARDY_CELLS)


__all__ = [
    "HARDY_CELLS",
    "OUTCOMES",
    "PROBABILITY_CLIP",
    "HardyObservables",
    "HardyProbabilityTable",
    "build_bases",
    "build_observables",
    "build_rotations",
    "hardy_parameter_a",
]

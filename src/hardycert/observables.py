"""Measurement construction for the two-distinct-weight nonlocality argument.

Given a pure state whose Schmidt expansion contains two distinct weights
p1 < p2, two weight-dependent 2x2 unitaries rotate that Schmidt pair into the
"x" and "y" measurement bases on each subsystem.  The resulting four
three-outcome observables (eigenvalues +1, -1 on the rotated pair, 0 on the
rest of the space) have joint statistics with a sharp signature: five
designated joint probabilities vanish exactly while a sixth equals

    a = p1^2 p2^2 (p1 - p2)^2 / (p1^2 + p2^2 - p1 p2)^2 > 0.

That signature is what the certification module's criterion feeds on.

This module is the whole Hardy measurement, in three steps:
``find_hardy_pair`` picks the Schmidt pair that maximises ``a``,
``build_bases`` and ``build_observables`` turn it into projector stacks, and
``behavior_from_state`` reads a state's 36 cells on them.  It imports
``states`` for the state types, ``lhv`` for the ``Behavior`` type and its
table checks, and ``linalg`` for the seal of that record; none of them
imports it back.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonPositiveWeightError
from .lhv import Behavior, _check_tables
from .linalg import _sealed
from .states import STATE_TOL, DensityOperator, SchmidtForm

#: A weight pair is admissible when its smaller weight and its gap both exceed
#: this floor.  The floor loses no certificate: the denominator of
#: ``hardy_parameter_a`` is at least ``p1*p2`` and at least ``p2*(p2 - p1)``,
#: so ``a <= min((p2 - p1)**2, p1**2)``, and a pair at the floor has
#: ``a <= 1e-16``, far below ``certification.CERTIFICATION_TOL``.
PAIR_FLOOR = 1e-8


def _check_weights(p1: float, p2: float) -> tuple[float, float]:
    """The pair as two Python floats, or a refusal of a pair that the closed
    forms cannot take: a weight that is not a real number (a bool, which
    would be a weight of 1, is refused, as it is for dims and tolerances),
    not positive, or above ``1 + STATE_TOL`` (no accepted state has one), or
    two weights so small that the squared denominator of
    ``hardy_parameter_a`` underflows to 0 in double precision.  Any other
    pair gives finite values, each computed in double precision."""
    for p in (p1, p2):
        # A float, the usual weight, skips the slower abstract-class check.
        if type(p) is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
            raise NonPositiveWeightError(f"weights must be real numbers, got ({p1!r}, {p2!r})")
    if not (0.0 < p1 <= 1.0 + STATE_TOL and 0.0 < p2 <= 1.0 + STATE_TOL):  # NaN fails it too
        raise NonPositiveWeightError(f"weights must lie in (0, 1 + {STATE_TOL}], got ({p1}, {p2})")
    p1, p2 = float(p1), float(p2)
    denom = p1 * p1 + p2 * p2 - p1 * p2
    if denom * denom == 0.0:
        raise NonPositiveWeightError(f"weights ({p1}, {p2}) are too small for the closed forms")
    return p1, p2


def _parameter_a(p1: float, p2: float) -> float:
    """``hardy_parameter_a`` for weights that pass ``_check_weights``."""
    denom = p1 * p1 + p2 * p2 - p1 * p2
    return (p1 * p1) * (p2 * p2) * (p1 - p2) ** 2 / (denom * denom)


def hardy_parameter_a(p1: float, p2: float) -> float:
    """Closed form of the single nonzero probability in the designated table.

    Symmetric in its arguments and zero exactly when the weights coincide, so
    equal-weight states certify nothing.  The weights are taken in double
    precision whatever their type, and the value is a Python float.
    """
    return _parameter_a(*_check_weights(p1, p2))


class HardyPair(NamedTuple):
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
    return _best_pair(sf.weights)


def _best_pair(weights: np.ndarray) -> HardyPair | None:
    """``find_hardy_pair`` on a Schmidt form's weights alone.

    An admissible pair's weights are both above ``PAIR_FLOOR`` and differ,
    so ``a`` is taken without ``hardy_parameter_a``'s checks and is
    positive.  Of pairs with equal ``a`` the first in the walk wins.
    """
    values = weights.tolist()
    best_a, best = 0.0, None
    for j, p2 in enumerate(values):
        for i in range(j + 1, len(values)):
            p1 = values[i]
            if p1 > PAIR_FLOOR and p2 - p1 > PAIR_FLOOR:
                value = _parameter_a(p1, p2)
                if value > best_a:
                    best_a, best = value, (i, j)
    if best is None:
        return None
    i, j = best
    return HardyPair(index_small=i, index_large=j, p1=values[i], p2=values[j], a=best_a)


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

    With su = (p1 + p2)^(-1/2) and sv = (p1^2 + p2^2 - p1 p2)^(-1/2), the
    paper's weight-dependent unitaries are

        u = su [[sqrt(p2), -i sqrt(p1)],      v = sv [[-i (p2 - p1), sqrt(p1 p2)],
                [-i sqrt(p1), sqrt(p2)]]              [sqrt(p1 p2), -i (p2 - p1)]]

    and their product has the closed form

        v u = su sv [[-i p2^(3/2), p1^(3/2)],
                     [p1^(3/2), -i p2^(3/2)]],

    from which the y rotation is written; it agrees with ``v @ u`` up to
    round-off in the last bit.

    Raises
    ------
    DimensionMismatchError
        The pair's indices are not two distinct columns of the form, or its
        ``p1, p2`` are not exactly the form's weights at them, as every pair
        ``find_hardy_pair`` returns for the form is.
    NonPositiveWeightError
        The pair's weights are too small for the closed forms, as
        ``hardy_parameter_a`` would refuse them.
    """
    slots = [pair.index_small, pair.index_large]
    weights = dict(enumerate(sf.weights.tolist()))
    if (
        np.array(slots).dtype.kind not in "iu"
        or slots[0] == slots[1]
        or [weights.get(k) for k in slots] != [pair.p1, pair.p2]
    ):
        raise DimensionMismatchError(
            f"pair {tuple(pair)} is not two distinct columns of the form with their weights"
        )
    p1, p2 = _check_weights(pair.p1, pair.p2)
    su = 1.0 / math.sqrt(p1 + p2)
    sv = 1.0 / math.sqrt(p1 * p1 + p2 * p2 - p1 * p2)
    r1, r2 = math.sqrt(p1), math.sqrt(p2)
    y1, y2 = p1 * r1 * sv, p2 * r2 * sv  # p1^(3/2) sv and p2^(3/2) sv
    rotations = su * np.array([[[r2, -1j * r1], [-1j * r1, r2]], [[-1j * y2, y1], [y1, -1j * y2]]])
    # Row k of a rotation holds the coefficients of the k-th new vector in
    # the Schmidt-pair basis, so the image vectors are the rows of R @ basis.T.
    alice = rotations @ sf.left_basis[:, slots].T
    bob = rotations @ sf.right_basis[:, slots].T
    return alice, bob


class HardyObservables(NamedTuple):
    """Spectral projectors of the four three-outcome observables.

    ``alice[s, k]`` is the projector of setting s (0 = X1, 1 = Y1) onto
    outcome ``lhv.OUTCOMES[k]``, a ``(2, 3, d1, d1)`` stack; ``bob`` holds
    X2, Y2 on subsystem 2 the same way.  The +1 and -1 projectors are rank
    one and the 0 projector covers the rest of the space (zero on a qubit).
    This pair of stacks is the one representation of a measurement: a
    state's cells on it are read only through ``behavior_from_state``.
    """

    alice: np.ndarray
    bob: np.ndarray


def _projector_stack(vectors: np.ndarray, dim: int) -> np.ndarray:
    """One party's ``(2, 3, dim, dim)`` stack, written in place: the +1 and
    -1 projectors of each setting's vectors in outcome slots 0 and 2, and
    the 0 projector, the identity less both, in slot 1."""
    stack = np.empty((2, 3, dim, dim), dtype=complex)
    np.multiply(vectors[:, :, :, None], vectors.conj()[:, :, None, :], out=stack[:, ::2])
    zero = stack[:, 1]
    np.add(stack[:, 0], stack[:, 2], out=zero)
    np.subtract(np.eye(dim), zero, out=zero)
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


def behavior_from_state(sigma: DensityOperator, obs: HardyObservables) -> Behavior:
    """Quantum behavior of a state on an ``(alice, bob)`` pair of projector
    stacks, such as ``build_observables`` returns.

    ``tables[s, t, k, l]`` is Tr[(alice[s, k] (x) bob[t, l]) sigma] / Tr sigma,
    all 36 cells at once.  A state's trace may miss 1 by up to ``STATE_TOL``,
    and the facets and the LP read tables that sum to 1, so the cells are
    divided by it.  Values within PROBABILITY_CLIP outside [0, 1] are clipped
    to the boundary against round-off overshoot, in place.  The behavior is
    sealed once, over the one fresh array the division writes:
    ``Behavior``'s shape, finiteness and range checks run on it, its realness
    check and its copy do not, as the array is real and owned.

    Raises
    ------
    DimensionMismatchError
        The stacks' dims differ from the state's.
    InvalidStateError
        The stacks are not a measurement: their cells, as ``Behavior``
        would refuse them.
    """
    alice, bob = obs
    d1, d2 = alice.shape[-1], bob.shape[-1]
    if (sigma.d1, sigma.d2) != (d1, d2):
        raise DimensionMismatchError(
            f"projector dims ({d1}, {d2}) do not match state dims ({sigma.d1}, {sigma.d2})"
        )
    # Tr[(A (x) B) rho] = sum_ijmn A[i,j] B[m,n] rho[(j,n),(i,m)] = vec(A) . R . vec(B)
    # with R[(i,j),(m,n)] = rho[(j,n),(i,m)]: one bilinear form per cell.
    r = sigma.matrix.reshape(d1, d2, d1, d2).transpose(2, 0, 3, 1).reshape(d1 * d1, d2 * d2)
    cells = alice.reshape(-1, d1 * d1) @ r @ bob.reshape(-1, d2 * d2).T
    values = cells.real.reshape(alice.shape[:2] + bob.shape[:2]).transpose(0, 2, 1, 3)
    # Divided straight into a fresh array in table order: the one array the
    # behavior keeps.
    tables = np.divide(values, np.trace(sigma.matrix).real, order="C")
    _check_tables(tables)
    np.clip(tables, 0.0, 1.0, out=tables)
    return _sealed(object.__new__(Behavior), tables=tables)


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
    "PAIR_FLOOR",
    "HardyObservables",
    "HardyPair",
    "HardyProbabilityTable",
    "behavior_from_state",
    "build_bases",
    "build_observables",
    "find_hardy_pair",
    "hardy_parameter_a",
]

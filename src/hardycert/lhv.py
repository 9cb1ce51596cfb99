"""Local-hidden-variable feasibility oracle for the four-observable scenario.

For two settings per party and three outcomes per setting, stochastic local
models and mixtures of deterministic assignments describe exactly the same
behaviors, so deciding whether a behavior admits a local realistic model
reduces to a membership test in the convex hull of the 81 deterministic
strategies.  A strategy is the tuple ``(x1, y1, x2, y2)`` of outcomes, and
``enumerate_strategies()`` is the one enumeration of them.  The test is a
small equality-form LP: 36 joint-probability cells plus normalization
against 81 nonnegative weights.

This oracle is deliberately independent of the trace-distance criterion in
the certification module; agreement between the two is a cross-check, not a
construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InvalidStateError, MalformedBehaviorError
from .observables import OUTCOMES, PROBABILITY_CLIP, behavior_tables
from .simplex import solve_feasibility_lp

if TYPE_CHECKING:
    from .observables import HardyObservables
    from .states import DensityOperator

#: Behaviors whose tables fail to normalize within this are rejected outright.
NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class Behavior:
    """Joint outcome tables for the four setting pairs.

    ``tables[i, j, k, l]`` is P(A_i = OUTCOMES[k], B_j = OUTCOMES[l]) with
    A_0, A_1 = X1, Y1 and B_0, B_1 = X2, Y2.  Probabilities generated from a
    quantum state normalize and obey no-signaling automatically; the type
    itself only polices shape, finiteness, and the [0, 1] range up to
    PROBABILITY_CLIP.
    """

    tables: np.ndarray

    def __post_init__(self) -> None:
        tables = np.array(self.tables, dtype=float)
        if tables.shape != (2, 2, 3, 3):
            raise InvalidStateError(f"behavior tables must have shape (2, 2, 3, 3), got {tables.shape}")
        if not np.all(np.isfinite(tables)):
            raise InvalidStateError("behavior entries must be finite")
        if np.any(tables < -PROBABILITY_CLIP) or np.any(tables > 1.0 + PROBABILITY_CLIP):
            raise InvalidStateError("behavior entries must lie in [0, 1]")
        tables.setflags(write=False)
        object.__setattr__(self, "tables", tables)


def enumerate_strategies() -> list[tuple[int, int, int, int]]:
    """All 81 deterministic strategies ``(x1, y1, x2, y2)``, lexicographic
    over the outcome order (+1, 0, -1); the first maps every setting to +1."""
    return list(itertools.product(OUTCOMES, repeat=4))


def behavior_from_state(sigma: DensityOperator, obs: HardyObservables) -> Behavior:
    """Quantum behavior of a state on the four constructed observables."""
    return Behavior(tables=behavior_tables(sigma, *obs))


@functools.cache
def strategy_constraint_matrix() -> np.ndarray:
    """The 37 x 81 system mapping strategy weights to behavior cells.

    Row order: the 36 cells in C order over (alice setting, bob setting,
    alice outcome, bob outcome), then the normalization row of ones.  Column
    order follows ``enumerate_strategies()``.  Many rows are linearly
    dependent; the solver is expected to cope.  The matrix is a constant, so
    it is built once and returned read-only.
    """
    # One-hot as (setting slot, outcome, strategy): slots 0-1 are Alice's.
    strategies = np.array(enumerate_strategies())
    onehot = strategies.T[:, None, :] == np.array(OUTCOMES)[:, None]
    alice, bob = onehot[:2], onehot[2:]
    cells = alice[:, None, :, None] & bob[None, :, None, :]
    matrix = np.vstack([cells.reshape(-1, len(strategies)), np.ones(len(strategies))])
    matrix.setflags(write=False)
    return matrix


class LhvResult(NamedTuple):
    """Verdict of the local-model search.

    ``weights`` is the mixture over ``enumerate_strategies()`` order when one
    exists, else None.  ``max_violation`` is the largest equation residual at
    the solution when feasible, and the minimized L1 infeasibility when not.
    """

    feasible: bool
    weights: np.ndarray | None
    max_violation: float


def lhv_feasible(behavior: Behavior, tol: float = 1e-9) -> LhvResult:
    """Decide whether any mixture of deterministic strategies reproduces the
    behavior.

    Every one of the 36 cells is constrained, redundancies included, plus the
    normalization of the weights; feasibility at ``tol`` then certifies a
    local realistic model for the behavior, and infeasibility certifies that
    none exists.

    Raises
    ------
    MalformedBehaviorError
        Some table's total probability strays from 1 beyond NORMALIZATION_TOL.
    """
    sums = behavior.tables.sum(axis=(2, 3))
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > NORMALIZATION_TOL:
        raise MalformedBehaviorError(
            f"table normalization off by {worst:.3e}, beyond {NORMALIZATION_TOL}"
        )
    matrix = strategy_constraint_matrix()
    rhs = np.concatenate([behavior.tables.reshape(-1), [1.0]])
    result = solve_feasibility_lp(matrix, rhs, tol=tol)
    if not result.feasible:
        return LhvResult(feasible=False, weights=None, max_violation=result.residual)
    violation = float(np.max(np.abs(matrix @ result.solution - rhs)))
    return LhvResult(feasible=True, weights=result.solution, max_violation=violation)


__all__ = [
    "NORMALIZATION_TOL",
    "Behavior",
    "LhvResult",
    "behavior_from_state",
    "enumerate_strategies",
    "lhv_feasible",
    "strategy_constraint_matrix",
]

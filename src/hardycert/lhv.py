"""Local-hidden-variable feasibility oracle for the four-observable scenario.

For two settings per party and three outcomes per setting, stochastic local
models and mixtures of deterministic assignments describe exactly the same
behaviors, so deciding whether a behavior admits a local realistic model
reduces to a membership test in the convex hull of the 81 deterministic
strategies.  A strategy is the tuple ``(x1, y1, x2, y2)`` of outcomes, and
``enumerate_strategies()`` is the one enumeration of them.

The hull has 1,116 facets, known in closed form: 36 positivity rows, 648
liftings of CHSH and 432 relabelings of CGLMP (Collins & Gisin, J. Phys. A 37,
1775 (2004); Collins, Gisin, Linden, Massar & Popescu, PRL 88, 040404
(2002)).  ``facet_table()`` holds them with integer coefficients on the 36
cells.  ``lhv_feasible`` decides in three steps, cheapest proof first.  A
violated facet excludes the behavior from the hull outright and is its
witness.  A behavior that violates none is offered one diagonally scaled
projection of the product of its marginals onto the cells; nonnegative
weights that reproduce the 37 equations within FEASIBILITY_TOL prove it
local.  Only when that fails does it go on to a small equality-form LP, 36
joint-probability cells plus normalization against 81 nonnegative weights,
whose solution is the local model or whose residual proves there is none.

This oracle is deliberately independent of the trace-distance criterion in
the certification module; agreement between the two is a cross-check, not a
construction.  It imports only ``errors``, ``simplex`` and ``linalg``, the
package's numerics: it knows nothing of states, measurements or the
criterion, and reads a behavior only as 36 numbers.  It owns the table axes
that the measurement side fills, ``OUTCOMES`` and the ``PROBABILITY_CLIP``
window of ``Behavior``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidStateError, MalformedBehaviorError
from .linalg import _roundoff, _sealed
from .simplex import FEASIBILITY_TOL, solve_feasibility_lp

#: Canonical outcome order for the three-outcome observables.  Lexicographic
#: enumerations elsewhere (deterministic strategies, behavior tables) follow it.
OUTCOMES = (1, 0, -1)

#: Probabilities within this window outside [0, 1] are clipped to the boundary.
PROBABILITY_CLIP = 1e-12

#: Behaviors whose tables fail to normalize within this are rejected outright.
NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class Behavior:
    """Joint outcome tables for the four setting pairs.

    ``tables[i, j, k, l]`` is P(A_i = OUTCOMES[k], B_j = OUTCOMES[l]) with
    A_0, A_1 = X1, Y1 and B_0, B_1 = X2, Y2.  Probabilities generated from a
    quantum state normalize and obey no-signaling automatically; the type
    itself only polices shape, realness, finiteness, and the [0, 1] range up
    to PROBABILITY_CLIP.
    """

    tables: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.tables)
        if np.iscomplexobj(raw) and raw.imag.any():
            raise InvalidStateError("behavior entries must be real")
        tables = np.array(raw.real, dtype=float)
        _check_tables(tables)
        _sealed(self, tables=tables)


def _check_tables(tables: np.ndarray) -> None:
    """Refuse real tables whose shape is not (2, 2, 3, 3), or whose entries
    are not finite or stray from [0, 1] by more than PROBABILITY_CLIP."""
    if tables.shape != (2, 2, 3, 3):
        raise InvalidStateError(f"behavior tables must have shape (2, 2, 3, 3), got {tables.shape}")
    # min and max propagate NaN, so both are finite only when every entry is.
    low, high = float(tables.min()), float(tables.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidStateError("behavior entries must be finite")
    if low < -PROBABILITY_CLIP or high > 1.0 + PROBABILITY_CLIP:
        raise InvalidStateError("behavior entries must lie in [0, 1]")


def enumerate_strategies() -> list[tuple[int, int, int, int]]:
    """All 81 deterministic strategies ``(x1, y1, x2, y2)``, lexicographic
    over the outcome order (+1, 0, -1); the first maps every setting to +1."""
    return list(itertools.product(OUTCOMES, repeat=4))


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


class FacetTable(NamedTuple):
    """The facets of the local polytope: ``coefficients[r] @ cells <=
    bounds[r]`` holds for every local behavior, cells in the row order of
    ``strategy_constraint_matrix()``.

    ``classes[r]`` names the family of row r: ``"positivity"`` (rows 0-35),
    ``"chsh"`` (36-683) or ``"cglmp"`` (684-1115).  Coefficients are -1, 0
    or 1 and bounds 0 or 2, stored as floats.
    """

    coefficients: np.ndarray
    bounds: np.ndarray
    classes: np.ndarray


# Seed of the CGLMP inequality for three outcomes (Collins et al. 2002):
# P(A0=B0) + P(B0=A1+1) + P(A1=B1) + P(B1=A0) - P(A0=B0-1) - P(B0=A1)
# - P(A1=B1-1) - P(B1=A0-1) <= 2, outcomes read as 0, 1, 2 mod 3.  Entry
# [i, j, s] is the coefficient of every cell of setting pair (i, j) whose
# outcome indices satisfy l - k = s (mod 3).
_CGLMP_SEED = np.array([[[1, -1, 0], [1, 0, -1]], [[-1, 1, 0], [1, -1, 0]]], dtype=np.int8)


@functools.cache
def facet_table() -> FacetTable:
    """All 1,116 facets of the hull of the 81 deterministic strategies.

    Each family is built straight from one seed inequality, with no
    deduplication pass:

    * positivity: ``-cell <= 0`` for each of the 36 cells;
    * CHSH, ``E00 + E01 + E10 - E11 <= 2`` with each setting's outcomes
      coarse-grained to +-1 by a non-constant map (6 per setting).  Negating
      all four maps gives the same row, so Alice's X1 map keeps +1 at +1:
      3 * 6**3 = 648 rows;
    * CGLMP, the seed above under every outcome permutation of each setting.
      Shifting all outcomes by one mod 3 gives the same row, so Alice's X1
      permutation fixes the first outcome: 2 * 6**3 = 432 rows.

    The table is a constant, so it is built once and returned read-only.
    """
    # Small integer dtypes keep the transient arrays, and the peak memory of
    # the first call, small.  The 6 non-constant +-1 maps of the outcomes
    # (+1, 0, -1); the first 3 send +1 to +1.
    maps = np.array(list(itertools.product((1, -1), repeat=3))[1:-1], dtype=np.int8)
    x1, y1, x2, y2 = np.indices((3, 6, 6, 6)).reshape(4, -1)
    alice = np.stack([maps[x1], maps[y1]], axis=1)
    bob = np.stack([maps[x2], maps[y2]], axis=1)
    chsh = np.einsum("ij,rik,rjl->rijkl", np.array([[1, 1], [1, -1]], dtype=np.int8), alice, bob)

    # The 6 permutations of the outcome indices; the first 2 fix index 0.
    perms = np.array(list(itertools.permutations(range(3))), dtype=np.int8)
    x1, y1, x2, y2 = np.indices((2, 6, 6, 6)).reshape(4, -1)
    alice = np.stack([perms[x1], perms[y1]], axis=1)[:, :, None, :, None]
    bob = np.stack([perms[x2], perms[y2]], axis=1)[:, None, :, None, :]
    i, j = np.indices((2, 2))[:, None, :, :, None, None]
    cglmp = _CGLMP_SEED[i, j, (bob - alice) % 3]

    cells = 36
    rows = [-np.eye(cells, dtype=np.int8), chsh.reshape(-1, cells), cglmp.reshape(-1, cells)]
    table = FacetTable(
        coefficients=np.vstack(rows, dtype=float),
        bounds=np.repeat([0.0, 2.0, 2.0], [cells, len(chsh), len(cglmp)]),
        classes=np.repeat(["positivity", "chsh", "cglmp"], [cells, len(chsh), len(cglmp)]),
    )
    for array in table:
        array.setflags(write=False)
    return table


class LhvResult(NamedTuple):
    """Verdict of the local-model search.

    ``weights`` is the mixture over ``enumerate_strategies()`` order when one
    exists, else None: nonnegative, and reproducing the cells and the
    normalization within FEASIBILITY_TOL in L1.  When the projection found
    it, it is an interior point that may weight all 81 strategies and moves
    continuously with the cells; when the LP did, it is a vertex with at
    most 25.  When a facet decided the verdict, ``facet`` is its row in
    ``facet_table()``, the witness ``lhv_feasible`` picks, and
    ``max_violation`` its violation, ``coefficients[facet] @ cells -
    bounds[facet]``, with the cells of each table divided by its sum; that is
    within FEASIBILITY_TOL of the largest violation of any facet.  Otherwise
    ``facet`` is None: ``max_violation`` is the largest equation residual of
    the weights when feasible, and the LP's minimized L1 infeasibility when
    not.
    """

    feasible: bool
    weights: np.ndarray | None
    max_violation: float
    facet: int | None = None


def lhv_feasible(behavior: Behavior) -> LhvResult:
    """Decide whether any mixture of deterministic strategies reproduces the
    behavior.

    Every step reads the cells of each table divided by its own sum, as
    ``behavior_from_state`` divides by the trace: a table may miss 1 by up
    to NORMALIZATION_TOL, far more than the FEASIBILITY_TOL the facets and
    the LP allow, so slack that is admitted is not read as nonlocality.

    The facets come first: one violated by more than FEASIBILITY_TOL
    certifies that no local model exists.  The witness is the lowest-numbered
    row among those violated by more than FEASIBILITY_TOL and within
    FEASIBILITY_TOL of the largest violation: symmetric facets tie up to
    round-off, and a last-bit change to the cells must not move the witness
    between them.  This is sound for any behavior, signalling or not, since a
    valid inequality holds on every mixture of the strategies.
    Otherwise every one of the 36 cells is constrained, redundancies
    included, plus the normalization of the weights.  One scaled projection
    proposes weights; if, clipped to nonnegative, they meet that system
    within FEASIBILITY_TOL in L1, the bar at which the LP reports feasible,
    they are the local model.  Otherwise the LP decides: feasibility at
    FEASIBILITY_TOL certifies a local realistic model for the behavior, and
    infeasibility certifies that none exists.

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
    # The cells go straight into the right-hand side of the 37 equations;
    # its last entry is the normalization of the weights.
    rhs = np.empty(37)
    rhs[-1] = 1.0
    cells = rhs[:-1]
    np.divide(behavior.tables, sums[:, :, None, None], out=cells.reshape(2, 2, 3, 3))
    facets = facet_table()
    violations = facets.coefficients @ cells - facets.bounds
    largest = violations.max()
    if largest > FEASIBILITY_TOL:
        near = (violations > FEASIBILITY_TOL) & (violations >= largest - FEASIBILITY_TOL)
        facet = int(near.argmax())
        return LhvResult(
            feasible=False, weights=None, max_violation=float(violations[facet]), facet=facet
        )
    matrix = strategy_constraint_matrix()
    projected = _projected_model(matrix, rhs)
    if projected is None:
        result = solve_feasibility_lp(matrix, rhs)
        if not result.feasible:
            return LhvResult(feasible=False, weights=None, max_violation=result.residual)
        # Pivot round-off can leave a basic weight a few ulps below zero.
        weights = np.maximum(result.solution, 0.0)
        residual = matrix @ weights - rhs
    else:
        weights, residual = projected
    violation = float(np.max(np.abs(residual)))
    return LhvResult(feasible=True, weights=weights, max_violation=violation)


def _projected_model(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Nonnegative weights with ``matrix @ weights`` within FEASIBILITY_TOL
    of ``rhs`` in L1, with their residual ``matrix @ weights - rhs``, or
    None when one scaled projection finds none.

    The start ``q`` is the product of the parties' outcome marginals, each
    setting's read from the cells in ``rhs`` and averaged over the other
    party's two settings.  One affine-scaling step (Dikin 1967) moves it onto
    the cells: ``w = q + q * (A.T @ y)`` with ``(A diag(q) A.T + s I) y =
    rhs - A q``, where ``s = 4 * 37 * eps * tr(A diag(q) A.T)``, the
    package's one round-off form ``linalg._roundoff`` over the 37 rows,
    keeps the rank-deficient system solvable.
    Round-off negatives are clipped to zero; a clearly negative weight then
    leaves a residual beyond FEASIBILITY_TOL.
    """
    tables = rhs[:-1].reshape(2, 2, 3, 3)
    alice = tables.sum(axis=(1, 3)) / 2.0
    bob = tables.sum(axis=(0, 2)) / 2.0
    # q[i, j, k, l] = alice[0, i] alice[1, j] bob[0, k] bob[1, l], as the
    # outer product of each party's outer product.
    alice_outer = (alice[0][:, None] * alice[1]).reshape(-1, 1)
    start = (alice_outer * (bob[0][:, None] * bob[1]).reshape(-1)).reshape(-1)
    scaled = matrix * start
    normal = scaled @ matrix.T
    normal.reshape(-1)[:: len(rhs) + 1] += _roundoff(len(rhs) - 1, normal.trace())
    try:
        step = np.linalg.solve(normal, rhs - matrix @ start)
    except np.linalg.LinAlgError:
        return None
    weights = np.maximum(start + step @ scaled, 0.0)
    residual = matrix @ weights - rhs
    # Written so that a NaN residual fails too.
    if not np.abs(residual).sum() <= FEASIBILITY_TOL:
        return None
    return weights, residual


__all__ = [
    "NORMALIZATION_TOL",
    "OUTCOMES",
    "PROBABILITY_CLIP",
    "Behavior",
    "FacetTable",
    "LhvResult",
    "enumerate_strategies",
    "facet_table",
    "lhv_feasible",
    "strategy_constraint_matrix",
]

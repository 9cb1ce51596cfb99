"""Phase-one simplex feasibility solver for small dense equality systems.

Answers: does x >= 0 with A x = b exist?  One artificial variable is added
per row and their total mass minimized; the system is feasible exactly when
that minimum is numerically zero.  The phase-one reduced costs live in the
tableau as its last row, so a pivot is one rank-1 update of the whole
tableau.  Each pivot enters the column of greatest improvement, the one
whose ratio-test step times its reduced cost is largest (Chvatal, *Linear
Programming*, 1983).  A degenerate pivot, where no column can take a
positive step, falls back to Bland's rule for both the entering column and
the leaving row.  Every pivot of a possible cycle is then a Bland pivot, so
termination keeps Bland's guarantee, which matters because the systems this
package feeds in are heavily rank-deficient.  The walk ends as soon as the
cost row's artificial mass is at most PIVOT_EPS: no artificial mass is left,
every further pivot would be degenerate, and the reported residual is then
at most PIVOT_EPS up to round-off.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NumericalBreakdownError

#: Entries smaller than this are not trusted as pivots or reduced costs.
PIVOT_EPS = 1e-12

#: Largest minimized artificial mass still reported as feasible.  The
#: local-model oracle reads the same constant as its facet threshold.
FEASIBILITY_TOL = 1e-9

#: Hard iteration guard.  Greatest improvement with Bland's rule on
#: degenerate pivots terminates on its own; hitting the guard means float
#: noise broke the bookkeeping and the result is unusable.
MAX_PIVOTS = 50_000


class FeasibilityResult(NamedTuple):
    """Outcome of a feasibility solve.

    ``residual`` is the minimized total artificial mass, i.e. the smallest
    L1 equation error any x >= 0 can achieve; ``solution`` attains it.
    """

    feasible: bool
    solution: np.ndarray
    residual: float


def solve_feasibility_lp(constraint_matrix, rhs) -> FeasibilityResult:
    """Decide feasibility of ``{x >= 0 : constraint_matrix @ x = rhs}``.

    Runs a phase-one simplex on the tableau [A | I | b] (rows with negative
    b are sign-flipped first).  The walk ends when no column improves or
    when no artificial mass is left (at most PIVOT_EPS, so the residual is
    then at most PIVOT_EPS up to round-off).  Reports ``feasible`` when the
    minimized artificial mass does not exceed FEASIBILITY_TOL; the returned
    ``solution`` holds the original variables either way.

    Raises
    ------
    NumericalBreakdownError
        The pivot guard was exceeded or no admissible pivot row existed;
        neither can happen for a well-posed finite system, because every
        degenerate pivot follows Bland's rule.
    ValueError
        The data is not finite, or has a nonzero imaginary part.
    """
    a = _real(constraint_matrix)
    b = _real(rhs).reshape(-1)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D constraint matrix, got shape {a.shape}")
    if b.size != a.shape[0]:
        raise DimensionMismatchError(
            f"rhs length {b.size} does not match {a.shape[0]} constraint rows"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("constraint data must be finite")

    m, n = a.shape
    # The rows [A | I | b], each sign-flipped where b is negative, over the
    # phase-one reduced costs z_j - c_j with every basic variable artificial:
    # the column sums of [A | 0 | b], so the artificial columns' sums are
    # zeroed.  Pivots keep that row current; its last entry is the
    # artificial mass.
    sign = np.where(b < 0.0, -1.0, 1.0)[:, None]
    rows = np.hstack([sign * a, np.eye(m), sign * b[:, None]])
    tableau = np.vstack([rows, rows.sum(axis=0)])
    tableau[-1, n:-1] = 0.0
    body, values = tableau[:-1], tableau[:-1, -1]
    improving = tableau[-1, :-1]
    basis = np.arange(n, n + m)

    for _ in range(MAX_PIVOTS):
        # No artificial mass left: every further pivot would be degenerate.
        # An infeasible system keeps its mass above FEASIBILITY_TOL and so
        # always walks on until no column improves.
        if tableau[-1, -1] <= PIVOT_EPS:
            break
        columns = (improving > PIVOT_EPS).nonzero()[0]
        if columns.size == 0:
            break
        block = body[:, columns]
        # A row whose entry is at or below PIVOT_EPS does not bound the
        # column's step (inf / |entry| is inf and raises no warning).  Only a
        # finite step above PIVOT_EPS competes, so a column with no
        # admissible row never enters by greatest improvement.
        ratios = np.where(block > PIVOT_EPS, values[:, None], np.inf) / np.abs(block)
        steps = ratios.min(axis=0)
        competing = (steps > PIVOT_EPS) & (steps < np.inf)
        gains = np.where(competing, steps, 0.0) * improving[columns]
        pick = int(gains.argmax())
        if not competing[pick]:
            pick = 0  # Degenerate: Bland, smallest eligible index
        if steps[pick] == np.inf:
            raise NumericalBreakdownError("no admissible pivot row for an improving column")
        ties = (ratios[:, pick] <= steps[pick] + PIVOT_EPS).nonzero()[0]
        leaving = int(ties[basis[ties].argmin()])  # Bland: smallest basic index
        entering = int(columns[pick])
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    else:
        raise NumericalBreakdownError(f"pivot guard of {MAX_PIVOTS} iterations exceeded")

    solution = np.zeros(n)
    original = basis < n
    solution[basis[original]] = values[original]
    # Artificials stranded in the basis at (numerically) zero level still
    # count toward the reported residual; the solution itself is unaffected.
    residual = max(float(values[basis >= n].sum()), 0.0)
    feasible = residual <= FEASIBILITY_TOL
    return FeasibilityResult(feasible=feasible, solution=solution, residual=residual)


def _real(data) -> np.ndarray:
    raw = np.asarray(data)
    if np.iscomplexobj(raw) and raw.imag.any():
        raise ValueError("constraint data must be real")
    return np.asarray(raw.real, dtype=float)


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    # pivot_row[col] is exactly 1.0, so column col becomes an exact unit vector.
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row


__all__ = [
    "FEASIBILITY_TOL",
    "MAX_PIVOTS",
    "PIVOT_EPS",
    "FeasibilityResult",
    "solve_feasibility_lp",
]

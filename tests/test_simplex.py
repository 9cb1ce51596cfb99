import numpy as np
import pytest

from hardycert import simplex
from hardycert.certification import certify
from hardycert.errors import DimensionMismatchError, NumericalBreakdownError
from hardycert.lhv import strategy_constraint_matrix
from hardycert.simplex import FEASIBILITY_TOL, MAX_PIVOTS, PIVOT_EPS, solve_feasibility_lp
from support import certified_mixture, random_hardy_state, random_separable


def test_single_variable_feasible():
    result = solve_feasibility_lp(np.array([[1.0]]), np.array([1.0]))
    assert result.feasible
    assert result.solution == pytest.approx([1.0], abs=1e-12)
    assert result.residual <= 1e-12


def test_single_variable_infeasible():
    # x >= 0 with x = -1 has no solution; the closest x = 0 leaves L1 error 1.
    result = solve_feasibility_lp(np.array([[1.0]]), np.array([-1.0]))
    assert not result.feasible
    assert result.residual == pytest.approx(1.0, abs=1e-12)


def test_contradictory_rows():
    # x = 1 and x = 2 simultaneously: best achievable L1 error is 1.
    matrix = np.array([[1.0], [1.0]])
    result = solve_feasibility_lp(matrix, np.array([1.0, 2.0]))
    assert not result.feasible
    assert result.residual == pytest.approx(1.0, abs=1e-12)


def test_negative_rhs_rows_are_flipped():
    result = solve_feasibility_lp(np.array([[-1.0]]), np.array([-1.0]))
    assert result.feasible
    assert result.solution == pytest.approx([1.0], abs=1e-12)


def test_zero_rhs_is_trivially_feasible():
    matrix = np.array([[1.0, -2.0], [3.0, 1.0]])
    result = solve_feasibility_lp(matrix, np.zeros(2))
    assert result.feasible
    assert np.allclose(result.solution, 0.0, atol=1e-12)


def test_random_constructed_feasible_systems():
    rng = np.random.default_rng(51)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 16))
        matrix = rng.normal(size=(m, n))
        target = np.abs(rng.normal(size=n))
        rhs = matrix @ target
        result = solve_feasibility_lp(matrix, rhs)
        assert result.feasible
        assert np.all(result.solution >= -1e-12)
        assert np.max(np.abs(matrix @ result.solution - rhs)) < 1e-8


def test_redundant_rows_stay_feasible():
    matrix = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
    rhs = np.array([1.0, 2.0, 1.0])
    result = solve_feasibility_lp(matrix, rhs)
    assert result.feasible
    assert np.max(np.abs(matrix @ result.solution - rhs)) < 1e-12


def test_infeasible_by_sign():
    # x1 + x2 = -1 with nonnegative variables (after the row flip the columns
    # all point the wrong way).
    result = solve_feasibility_lp(np.array([[1.0, 1.0]]), np.array([-1.0]))
    assert not result.feasible
    assert result.residual == pytest.approx(1.0, abs=1e-12)


def test_tolerance_threshold():
    matrix = np.array([[1.0]])
    result = solve_feasibility_lp(matrix, np.array([5e-7]))
    # Perfectly solvable: x = 5e-7.
    assert result.feasible
    # An infeasibility of 5e-7 is well above FEASIBILITY_TOL.
    tight = solve_feasibility_lp(np.array([[0.0]]), np.array([5e-7]))
    assert not tight.feasible
    assert tight.residual == pytest.approx(5e-7, abs=1e-15)


def test_deterministic_output():
    rng = np.random.default_rng(52)
    matrix = rng.normal(size=(6, 11))
    rhs = matrix @ np.abs(rng.normal(size=11))
    first = solve_feasibility_lp(matrix, rhs)
    second = solve_feasibility_lp(matrix, rhs)
    assert np.array_equal(first.solution, second.solution)
    assert first.residual == second.residual


def test_shape_validation():
    with pytest.raises(DimensionMismatchError):
        solve_feasibility_lp(np.ones((2, 2)), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        solve_feasibility_lp(np.ones(4), np.ones(2))


# ------------------------------------------------ reference phase-one loop


def _reference_solve(constraint_matrix, rhs):
    """Phase one under Bland's rule alone that rebuilds the reduced costs
    from the artificial-basic rows on every iteration and pivots row by
    row: the solver as it was before the cost row moved into the tableau
    and greatest improvement picked the entering column."""
    a = np.asarray(constraint_matrix, dtype=float)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    m, n = a.shape
    flip = b < 0.0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    for _ in range(MAX_PIVOTS):
        reduced = tableau[basis >= n, :-1].sum(axis=0)
        reduced[n:] -= 1.0
        candidates = np.nonzero(reduced > PIVOT_EPS)[0]
        if candidates.size == 0:
            break
        entering = int(candidates[0])
        column = tableau[:, entering]
        rows = np.nonzero(column > PIVOT_EPS)[0]
        if rows.size == 0:
            raise NumericalBreakdownError("no admissible pivot row")
        ratios = tableau[rows, -1] / column[rows]
        ties = rows[ratios <= float(ratios.min()) + PIVOT_EPS]
        leaving = int(ties[np.argmin(basis[ties])])
        tableau[leaving] /= tableau[leaving, entering]
        others = np.arange(m) != leaving
        tableau[others] -= np.outer(tableau[others, entering], tableau[leaving])
        tableau[:, entering] = 0.0
        tableau[leaving, entering] = 1.0
        basis[leaving] = entering
    else:
        raise NumericalBreakdownError("pivot guard exceeded")
    values = tableau[:, -1]
    solution = np.zeros(n)
    solution[basis[basis < n]] = values[basis < n]
    residual = max(float(values[basis >= n].sum()), 0.0)
    return residual <= FEASIBILITY_TOL, solution, residual


def _assert_matches_reference(matrix, rhs):
    # Greatest improvement walks another path than the reference's Bland
    # rule, so the two may stop at different optimal vertices: the verdict
    # and the minimized mass must agree, the vertex need not.
    result = solve_feasibility_lp(matrix, rhs)
    feasible, _, residual = _reference_solve(matrix, rhs)
    assert result.feasible == feasible
    assert abs(result.residual - residual) <= 1e-12
    assert np.all(result.solution >= -1e-12)
    if feasible:
        assert np.max(np.abs(np.asarray(matrix) @ result.solution - rhs), initial=0.0) <= 1e-9
    return result


def _integer_systems(seed, count):
    """Small random integer systems: every odd one feasible by construction,
    every third one with a redundant last row."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 12))
        matrix = rng.integers(-1, 3, size=(m, n)).astype(float)
        if m > 1 and k % 3 == 0:
            matrix[-1] = matrix[0] * int(rng.integers(1, 3))  # redundant row
        if k % 2:
            rhs = matrix @ rng.integers(0, 3, size=n)
        else:
            rhs = rng.integers(-3, 4, size=m).astype(float)
        yield matrix, rhs


def test_matches_reference_on_degenerate_integer_systems():
    feasible = 0
    for matrix, rhs in _integer_systems(53, 400):
        feasible += _assert_matches_reference(matrix, rhs).feasible
    assert 200 <= feasible < 400


def _strategy_systems(dims):
    """Three certified mixtures (infeasible) and three separable states
    (feasible) as right-hand sides of the 37 x 81 strategy system."""
    rng = np.random.default_rng(54)
    for _ in range(3):
        sigma, psi = certified_mixture(rng, *dims)
        yield np.concatenate([certify(sigma, psi).behavior.tables.reshape(-1), [1.0]]), False
        sigma = random_separable(*dims, rng)
        psi = random_hardy_state(rng, *dims)
        yield np.concatenate([certify(sigma, psi).behavior.tables.reshape(-1), [1.0]]), True


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4)])
def test_matches_reference_on_strategy_system(dims):
    matrix = strategy_constraint_matrix()
    for rhs, feasible in _strategy_systems(dims):
        assert _assert_matches_reference(matrix, rhs).feasible == feasible


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4)])
def test_strategy_solutions_are_basic(dims):
    # A local model is any point of the polytope; the solver returns a
    # vertex: its nonzero weights sit on linearly independent columns, so at
    # most rank 25 of the 81 strategies carry weight.
    matrix = strategy_constraint_matrix()
    assert np.linalg.matrix_rank(matrix) == 25
    for rhs, feasible in _strategy_systems(dims):
        result = solve_feasibility_lp(matrix, rhs)
        if not feasible:
            continue
        support = np.nonzero(result.solution)[0]
        assert support.size <= 25
        assert np.linalg.matrix_rank(matrix[:, support]) == support.size


def test_no_pivot_once_the_artificial_mass_is_gone(monkeypatch):
    # Once the cost row's artificial mass is at or below PIVOT_EPS, every
    # further pivot is degenerate: the walk ends there.
    step = simplex._pivot
    masses = []

    def recorded(tableau, row, col):
        masses.append(float(tableau[-1, -1]))
        step(tableau, row, col)

    monkeypatch.setattr(simplex, "_pivot", recorded)
    matrix = strategy_constraint_matrix()
    systems = [(matrix, rhs) for dims in [(2, 2), (2, 3), (4, 4)] for rhs, ok in _strategy_systems(dims) if ok]
    systems += list(_integer_systems(55, 200))
    for a, b in systems:
        solve_feasibility_lp(a, b)
    assert len(masses) > 0
    assert min(masses) > PIVOT_EPS


def test_pivot_guard_stops_a_walk_that_needs_more_pivots(monkeypatch):
    # A separable behavior's LP takes several pivots, so a guard of one
    # pivot is exceeded and the walk stops with an error, not a result.
    rhs = next(rhs for rhs, feasible in _strategy_systems((2, 2)) if feasible)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    with pytest.raises(NumericalBreakdownError, match="pivot guard of 1 iterations"):
        solve_feasibility_lp(strategy_constraint_matrix(), rhs)


# ------------------------------------------------- awkward columns and data


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0]], [2.0, 4.0]),  # all-zero column
        ([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0]], [2.0, -4.0]),
        ([[-1.0, 1.0], [-2.0, 1.0]], [1.0, 1.0]),  # no positive entry
        ([[-1.0, 0.0], [-2.0, -1.0]], [1.0, 1.0]),
        ([[-1.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [0.0, 0.0]),  # rhs = 0
        ([[1.0, -1.0], [2.0, 0.0]], [0.0, 0.0]),
    ],
)
def test_awkward_columns_match_reference_without_warning(matrix, rhs):
    # The suite turns RuntimeWarning into an error, so an inf * 0 or a
    # 0 / 0 in the ratio test would fail here.
    _assert_matches_reference(np.array(matrix), np.array(rhs))


def test_column_without_admissible_row_never_enters():
    # Column 0 is improving (reduced cost 2.7e-12) but every entry is at or
    # below PIVOT_EPS, so it has no admissible row.  Bland's rule enters it
    # first and breaks down; greatest improvement enters column 1.
    matrix = np.array([[0.9e-12, 1.0]] * 3)
    rhs = np.ones(3)
    with pytest.raises(NumericalBreakdownError):
        _reference_solve(matrix, rhs)
    result = solve_feasibility_lp(matrix, rhs)
    assert result.feasible
    assert np.array_equal(result.solution, [0.0, 1.0])


def test_improving_column_with_no_admissible_row_breaks_down():
    # The one column's reduced cost, 5e-12, exceeds PIVOT_EPS while none of
    # its entries does: no row bounds its step, and no other column can
    # enter, so the solver reports a breakdown rather than an answer.
    matrix = np.full((5, 1), 1e-12)
    assert matrix.sum() > PIVOT_EPS >= matrix.max()
    with pytest.raises(NumericalBreakdownError, match="no admissible pivot row"):
        solve_feasibility_lp(matrix, np.ones(5))


def test_data_that_is_not_finite_is_refused():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            solve_feasibility_lp(np.array([[1.0, bad]]), np.array([1.0]))
        with pytest.raises(ValueError, match="must be finite"):
            solve_feasibility_lp(np.array([[1.0]]), np.array([-bad]))


def test_complex_data_is_refused():
    # A nonzero imaginary part used to be dropped with a ComplexWarning,
    # which turned x = 1 + 2j into the feasible x = 1.
    with pytest.raises(ValueError, match="real"):
        solve_feasibility_lp(np.array([[1.0]]), np.array([1 + 2j]))
    with pytest.raises(ValueError, match="real"):
        solve_feasibility_lp([[1.0]], [1 + 2j])
    with pytest.raises(ValueError, match="real"):
        solve_feasibility_lp([[1.0 + 1e-3j]], [1.0])
    with pytest.raises(ValueError, match="real"):
        solve_feasibility_lp([[1.0]], [complex(1.0, np.nan)])
    # A zero imaginary part is read as the real system.
    result = solve_feasibility_lp(np.array([[2.0 + 0j]]), np.array([1.0 + 0j]))
    assert result.feasible
    assert result.solution == pytest.approx([0.5], abs=1e-15)

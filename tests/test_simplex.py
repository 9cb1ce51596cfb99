import numpy as np
import pytest

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
    """Phase one that rebuilds the reduced costs from the artificial-basic
    rows on every iteration and pivots row by row: the solver as it was
    before the cost row moved into the tableau."""
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
    result = solve_feasibility_lp(matrix, rhs)
    feasible, solution, residual = _reference_solve(matrix, rhs)
    assert result.feasible == feasible
    assert np.array_equal(result.solution, solution)
    assert result.residual == residual
    return result


def test_matches_reference_on_degenerate_integer_systems():
    rng = np.random.default_rng(53)
    feasible = 0
    for k in range(400):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 12))
        matrix = rng.integers(-1, 3, size=(m, n)).astype(float)
        if m > 1 and k % 3 == 0:
            matrix[-1] = matrix[0] * int(rng.integers(1, 3))  # redundant row
        if k % 2:
            rhs = matrix @ rng.integers(0, 3, size=n)
        else:
            rhs = rng.integers(-3, 4, size=m).astype(float)
        feasible += _assert_matches_reference(matrix, rhs).feasible
    assert 200 <= feasible < 400


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4)])
def test_matches_reference_on_strategy_system(dims):
    matrix = strategy_constraint_matrix()
    rng = np.random.default_rng(54)
    for _ in range(3):
        sigma, psi = certified_mixture(rng, *dims)
        rhs = np.concatenate([certify(sigma, psi).behavior.tables.reshape(-1), [1.0]])
        assert not _assert_matches_reference(matrix, rhs).feasible
        sigma = random_separable(*dims, rng)
        psi = random_hardy_state(rng, *dims)
        rhs = np.concatenate([certify(sigma, psi).behavior.tables.reshape(-1), [1.0]])
        assert _assert_matches_reference(matrix, rhs).feasible

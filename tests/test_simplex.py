import numpy as np
import pytest

from hardycert.errors import DimensionMismatchError
from hardycert.simplex import solve_feasibility_lp


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
    result = solve_feasibility_lp(matrix, np.array([5e-7]), tol=1e-9)
    # Perfectly solvable: x = 5e-7.
    assert result.feasible
    # An infeasibility of 5e-7 is invisible at tol=1e-6 but not at 1e-9.
    loose = solve_feasibility_lp(np.array([[0.0]]), np.array([5e-7]), tol=1e-6)
    tight = solve_feasibility_lp(np.array([[0.0]]), np.array([5e-7]), tol=1e-9)
    assert loose.feasible
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

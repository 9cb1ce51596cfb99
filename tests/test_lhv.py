import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    behavior_from_state,
    build_bases,
    build_observables,
    certify,
    enumerate_strategies,
    find_hardy_pair,
    lhv_feasible,
    maximally_mixed,
    pure_density,
    schmidt_decompose,
)
import hardycert.simplex as simplex
from hardycert.errors import InvalidStateError, MalformedBehaviorError
from hardycert.lhv import ALICE_SETTINGS, BOB_SETTINGS, Behavior, strategy_constraint_matrix
from hardycert.observables import OUTCOMES
from support import certified_mixture, random_hardy_state, random_separable


def fixture_observables():
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.2)
    amps[3] = np.sqrt(0.8)
    psi = StateVector(d1=2, d2=2, amplitudes=amps)
    sf = schmidt_decompose(psi)
    pair = find_hardy_pair(sf)
    return psi, build_observables(build_bases(sf, pair), 2, 2)


# ---------------------------------------------------------------- strategies


def test_enumerate_strategies_catalog():
    strategies = enumerate_strategies()
    assert len(strategies) == 81
    assert len(set(strategies)) == 81
    assert strategies[0] == (1, 1, 1, 1)
    assert strategies[1] == (1, 1, 1, 0)   # last slot varies fastest
    assert strategies[-1] == (-1, -1, -1, -1)
    for s in strategies:
        assert all(outcome in (1, 0, -1) for outcome in s)
        assert s.alice(0) == s.x1 and s.alice(1) == s.y1
        assert s.bob(0) == s.x2 and s.bob(1) == s.y2


def test_constraint_matrix_combinatorics():
    matrix = strategy_constraint_matrix()
    assert matrix.shape == (37, 81)
    # Fixing one cell (a, b) at one setting pair leaves the two remaining
    # settings free: 3 * 3 = 9 strategies hit each cell row.
    assert np.all(matrix[:36].sum(axis=1) == 9)
    # Each strategy lands in exactly one cell per setting pair plus the
    # normalization row.
    assert np.all(matrix.sum(axis=0) == 5)
    # The matrix is a constant: built once and shared read-only.
    assert strategy_constraint_matrix() is matrix
    assert not matrix.flags.writeable


def reference_constraint_matrix() -> np.ndarray:
    """The constraint matrix built cell by cell, one strategy at a time."""
    strategies = enumerate_strategies()
    rows = []
    for i in range(len(ALICE_SETTINGS)):
        for j in range(len(BOB_SETTINGS)):
            for outcome_a in OUTCOMES:
                for outcome_b in OUTCOMES:
                    rows.append(
                        [
                            1.0 if s.alice(i) == outcome_a and s.bob(j) == outcome_b else 0.0
                            for s in strategies
                        ]
                    )
    rows.append([1.0] * len(strategies))
    return np.array(rows)


def test_constraint_matrix_matches_reference_loop():
    matrix = strategy_constraint_matrix()
    reference = reference_constraint_matrix()
    assert np.array_equal(matrix, reference)
    # Same dtype and memory order, so matrix products round the same way.
    assert matrix.dtype == reference.dtype
    assert matrix.flags.c_contiguous


def test_deterministic_behavior_recovers_its_strategy():
    matrix = strategy_constraint_matrix()
    idx = 37  # arbitrary strategy
    behavior = Behavior(tables=matrix[:36, idx].reshape(2, 2, 3, 3))
    result = lhv_feasible(behavior)
    assert result.feasible
    weights = result.weights
    assert weights[idx] == pytest.approx(1.0, abs=1e-9)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert np.delete(weights, idx).max() < 1e-9


# ------------------------------------------------------------------ behavior


def test_behavior_validation():
    with pytest.raises(InvalidStateError):
        Behavior(tables=np.zeros((2, 2, 3)))
    bad = np.zeros((2, 2, 3, 3))
    bad[0, 0, 0, 0] = -0.5
    with pytest.raises(InvalidStateError):
        Behavior(tables=bad)
    with pytest.raises(InvalidStateError):
        Behavior(tables=np.full((2, 2, 3, 3), np.nan))


def test_behavior_from_white_noise():
    _, obs = fixture_observables()
    behavior = behavior_from_state(maximally_mixed(2, 2), obs)
    for i in range(2):
        for j in range(2):
            table = behavior.tables[i, j]
            assert np.allclose(table[np.ix_([0, 2], [0, 2])], 0.25, atol=1e-12)
            assert np.max(np.abs(table[1, :])) < 1e-12
            assert np.max(np.abs(table[:, 1])) < 1e-12


def test_behavior_table_accessor():
    _, obs = fixture_observables()
    behavior = behavior_from_state(maximally_mixed(2, 2), obs)
    assert np.array_equal(behavior.table("X1", "Y2"), behavior.tables[0, 1])
    assert np.array_equal(behavior.table("Y1", "X2"), behavior.tables[1, 0])


def test_behavior_normalization_and_no_signaling():
    rng = np.random.default_rng(61)
    for _ in range(15):
        psi = random_hardy_state(rng, d1=2, d2=3)
        sf = schmidt_decompose(psi)
        pair = find_hardy_pair(sf)
        obs = build_observables(build_bases(sf, pair), 2, 3)
        sigma = random_separable(2, 3, rng)
        behavior = behavior_from_state(sigma, obs)
        sums = behavior.tables.sum(axis=(2, 3))
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        # Alice's marginal cannot depend on Bob's setting, nor vice versa.
        alice = behavior.tables.sum(axis=3)
        assert np.max(np.abs(alice[:, 0, :] - alice[:, 1, :])) < 1e-9
        bob = behavior.tables.sum(axis=2)
        assert np.max(np.abs(bob[0, :, :] - bob[1, :, :])) < 1e-9


def test_behavior_of_product_state_factorizes():
    rng = np.random.default_rng(62)
    _, obs = fixture_observables()
    for _ in range(10):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        sigma = pure_density(StateVector(2, 2, amps))
        behavior = behavior_from_state(sigma, obs)
        for i in range(2):
            for j in range(2):
                table = behavior.tables[i, j]
                marg_a = table.sum(axis=1)
                marg_b = table.sum(axis=0)
                assert np.max(np.abs(table - np.outer(marg_a, marg_b))) < 1e-10


def test_behavior_zero_cells_for_pure_fixture():
    psi, obs = fixture_observables()
    behavior = behavior_from_state(pure_density(psi), obs)
    # Outcome order is (+1, 0, -1): the five vanishing cells sit at
    # (X1,X2)[+,+], (Y1,X2)[+,-], (X1,Y2)[-,+], (Y1,X2)[+,0], (X1,Y2)[0,+].
    assert abs(behavior.tables[0, 0, 0, 0]) <= 1e-10
    assert abs(behavior.tables[1, 0, 0, 2]) <= 1e-10
    assert abs(behavior.tables[0, 1, 2, 0]) <= 1e-10
    assert abs(behavior.tables[1, 0, 0, 1]) <= 1e-10
    assert abs(behavior.tables[0, 1, 1, 0]) <= 1e-10
    assert behavior.tables[1, 1, 0, 0] == pytest.approx(4.0 / 45.0, abs=1e-10)


# ---------------------------------------------------------------- the oracle


def test_lhv_feasible_white_noise():
    _, obs = fixture_observables()
    behavior = behavior_from_state(maximally_mixed(2, 2), obs)
    result = lhv_feasible(behavior)
    assert result.feasible
    assert result.max_violation < 1e-9
    weights = result.weights
    assert np.all(weights >= -1e-12)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-9)
    # The recovered mixture must really generate the behavior.
    matrix = strategy_constraint_matrix()
    rhs = np.concatenate([behavior.tables.reshape(-1), [1.0]])
    assert np.max(np.abs(matrix @ weights - rhs)) < 1e-8


def test_lhv_feasible_separable_states():
    rng = np.random.default_rng(63)
    for _ in range(20):
        psi = random_hardy_state(rng, d1=2, d2=2)
        sf = schmidt_decompose(psi)
        pair = find_hardy_pair(sf)
        obs = build_observables(build_bases(sf, pair), 2, 2)
        sigma = random_separable(2, 2, rng)
        result = lhv_feasible(behavior_from_state(sigma, obs))
        assert result.feasible


def test_lhv_infeasible_for_pure_hardy_state():
    psi, obs = fixture_observables()
    result = lhv_feasible(behavior_from_state(pure_density(psi), obs))
    assert not result.feasible
    assert result.weights is None
    assert result.max_violation > 1e-9


def test_lhv_infeasible_whenever_margin_is_positive():
    rng = np.random.default_rng(64)
    for _ in range(20):
        sigma, psi = certified_mixture(rng, d1=2, d2=2)
        report = certify(sigma, psi)
        assert report.margin > 0
        sf = schmidt_decompose(psi)
        pair = find_hardy_pair(sf)
        obs = build_observables(build_bases(sf, pair), 2, 2)
        result = lhv_feasible(behavior_from_state(sigma, obs))
        assert not result.feasible


def test_lhv_rejects_malformed_behavior():
    _, obs = fixture_observables()
    tables = behavior_from_state(maximally_mixed(2, 2), obs).tables * 0.9
    with pytest.raises(MalformedBehaviorError):
        lhv_feasible(Behavior(tables=tables))


def test_lhv_pivot_path_is_pinned(monkeypatch):
    # Pivot counts recorded with the solver that rebuilt its reduced costs on
    # every iteration; Bland's rule must walk the same path.  The benchmark's
    # tracer counts simplex.pivots by wrapping this same module attribute.
    pivots = 0
    step = simplex._pivot

    def counted(*args):
        nonlocal pivots
        pivots += 1
        step(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    psi, obs = fixture_observables()
    cases = [
        (p * pure_density(psi).matrix + (1.0 - p) * np.eye(4) / 4.0, feasible, count)
        for p, feasible, count in ((0.99, False, 17), (0.6, True, 48))
    ]
    cases.append((random_separable(2, 2, np.random.default_rng(0)).matrix, True, 41))
    for matrix, feasible, count in cases:
        pivots = 0
        result = lhv_feasible(behavior_from_state(DensityOperator(d1=2, d2=2, matrix=matrix), obs))
        assert result.feasible is feasible
        assert pivots == count

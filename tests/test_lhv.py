import itertools
from collections import Counter

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    behavior_from_state,
    certify,
    enumerate_strategies,
    lhv_feasible,
    maximally_mixed,
    pure_density,
)
import hardycert.lhv as lhv
import hardycert.simplex as simplex
from hardycert.errors import InvalidStateError, MalformedBehaviorError
from hardycert.lhv import (
    NORMALIZATION_TOL,
    OUTCOMES,
    PROBABILITY_CLIP,
    Behavior,
    facet_table,
    strategy_constraint_matrix,
)
from hardycert.simplex import FEASIBILITY_TOL
from support import (
    A_FIXTURE,
    certified_mixture,
    fixture_state,
    hardy_observables,
    random_hardy_state,
    random_separable,
    random_single_density,
)


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
    # The full order, independent of how it is generated: outcome ranks in
    # OUTCOMES order strictly increase lexicographically down the list.  The
    # constraint matrix and its reference loop both take their columns from
    # enumerate_strategies(), so only this pins the column order.
    ranks = [tuple(OUTCOMES.index(outcome) for outcome in s) for s in strategies]
    assert all(earlier < later for earlier, later in zip(ranks, ranks[1:]))


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
    for i in range(2):
        for j in range(2):
            for outcome_a in OUTCOMES:
                for outcome_b in OUTCOMES:
                    rows.append(
                        [
                            1.0 if s[i] == outcome_a and s[2 + j] == outcome_b else 0.0
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
    # A complex table is accepted when its imaginary part is zero, and
    # refused, not silently truncated, when it is not.
    uniform = np.full((2, 2, 3, 3), 1.0 / 9.0)
    for tables in (uniform.astype(complex), uniform.tolist()):
        assert np.array_equal(Behavior(tables=tables).tables, uniform)
    for imag in (1e-3, np.nan):
        tables = uniform.astype(complex)
        tables[0, 1, 2, 0] += 1j * imag
        with pytest.raises(InvalidStateError, match="real"):
            Behavior(tables=tables)
    # The round-off window: cells up to PROBABILITY_CLIP outside [0, 1] pass.
    for value, accepted in (
        (-PROBABILITY_CLIP, True),
        (1.0 + PROBABILITY_CLIP, True),
        (-2.0 * PROBABILITY_CLIP, False),
        (1.0 + 2.0 * PROBABILITY_CLIP, False),
    ):
        cells = np.zeros((2, 2, 3, 3))
        cells[1, 0, 2, 1] = value
        if accepted:
            assert Behavior(tables=cells).tables[1, 0, 2, 1] == value
        else:
            with pytest.raises(InvalidStateError):
                Behavior(tables=cells)


def test_behavior_from_white_noise():
    obs = hardy_observables(fixture_state())
    behavior = behavior_from_state(maximally_mixed(2, 2), obs)
    for i in range(2):
        for j in range(2):
            table = behavior.tables[i, j]
            assert np.allclose(table[np.ix_([0, 2], [0, 2])], 0.25, atol=1e-12)
            assert np.max(np.abs(table[1, :])) < 1e-12
            assert np.max(np.abs(table[:, 1])) < 1e-12


def test_behavior_normalization_and_no_signaling():
    rng = np.random.default_rng(61)
    for _ in range(15):
        obs = hardy_observables(random_hardy_state(rng, d1=2, d2=3))
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
    obs = hardy_observables(fixture_state())
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
    psi = fixture_state()
    obs = hardy_observables(psi)
    behavior = behavior_from_state(pure_density(psi), obs)
    # Outcome order is (+1, 0, -1): the five vanishing cells sit at
    # (X1,X2)[+,+], (Y1,X2)[+,-], (X1,Y2)[-,+], (Y1,X2)[+,0], (X1,Y2)[0,+].
    assert abs(behavior.tables[0, 0, 0, 0]) <= 1e-10
    assert abs(behavior.tables[1, 0, 0, 2]) <= 1e-10
    assert abs(behavior.tables[0, 1, 2, 0]) <= 1e-10
    assert abs(behavior.tables[1, 0, 0, 1]) <= 1e-10
    assert abs(behavior.tables[0, 1, 1, 0]) <= 1e-10
    assert behavior.tables[1, 1, 0, 0] == pytest.approx(A_FIXTURE, abs=1e-10)


# ---------------------------------------------------------------- the oracle


def test_lhv_feasible_white_noise():
    obs = hardy_observables(fixture_state())
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
        obs = hardy_observables(random_hardy_state(rng, d1=2, d2=2))
        sigma = random_separable(2, 2, rng)
        result = lhv_feasible(behavior_from_state(sigma, obs))
        assert result.feasible


def test_product_states_off_unit_trace_are_local():
    # A state's trace may miss 1 by up to STATE_TOL.  Its cells are divided by
    # the trace, so they sum to 1 and a product state violates no facet; read
    # undivided, these cells summed to 1 + 5e-10 and facet 82 or 421 rejected
    # them.
    rng = np.random.default_rng(64)
    obs = hardy_observables(fixture_state())
    ket00 = np.zeros((4, 4))
    ket00[0, 0] = 1.0
    products = [ket00] + [
        np.kron(random_single_density(2, rng), random_single_density(2, rng)) for _ in range(10)
    ]
    for rho in products:
        behavior = behavior_from_state(DensityOperator(2, 2, rho * (1.0 + 5e-10)), obs)
        assert np.max(np.abs(behavior.tables.sum(axis=(2, 3)) - 1.0)) < 1e-12
        result = lhv_feasible(behavior)
        assert result.feasible and result.facet is None


def test_lhv_infeasible_for_pure_hardy_state():
    psi = fixture_state()
    obs = hardy_observables(psi)
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
        obs = hardy_observables(psi)
        result = lhv_feasible(behavior_from_state(sigma, obs))
        assert not result.feasible


def test_lhv_rejects_malformed_behavior():
    obs = hardy_observables(fixture_state())
    tables = behavior_from_state(maximally_mixed(2, 2), obs).tables * 0.9
    with pytest.raises(MalformedBehaviorError):
        lhv_feasible(Behavior(tables=tables))


def separable_behaviors(count: int) -> list[Behavior]:
    """Behaviors of seeded 3x3 separable states, each local as it stands."""
    rng = np.random.default_rng(66)
    behaviors = []
    for _ in range(count):
        obs = hardy_observables(random_hardy_state(rng, d1=3, d2=3))
        behaviors.append(behavior_from_state(random_separable(3, 3, rng), obs))
    return behaviors


@pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 + 5e-7])
def test_normalization_slack_is_not_nonlocality(scale):
    # Tables off 1 within NORMALIZATION_TOL are read divided by their sums.
    # Read as they stood, scaling by 1 + 1e-9 left an LP residual of 4e-9,
    # beyond FEASIBILITY_TOL, in all ten separable ones, and white noise
    # violated a facet by 2e-9.
    white = behavior_from_state(maximally_mixed(2, 2), hardy_observables(fixture_state()))
    for behavior in separable_behaviors(10) + [white]:
        assert lhv_feasible(behavior).feasible
        # A local verdict there also has facet None, agrees with the bare LP
        # and carries weights that reproduce the divided cells.
        assert lp_checked_verdict(Behavior(tables=behavior.tables * scale))


def test_normalization_beyond_tolerance_still_raises():
    for behavior in separable_behaviors(3):
        for scale in (1.0 + 2 * NORMALIZATION_TOL, 1.0 - 2 * NORMALIZATION_TOL):
            with pytest.raises(MalformedBehaviorError, match="normalization off"):
                lhv_feasible(Behavior(tables=behavior.tables * scale))


def test_lhv_pivot_path_is_pinned(monkeypatch):
    # Pivot counts under greatest improvement (Bland's rule alone walked
    # 17, 48 and 41).  A local case stops once no artificial mass is left.
    # The benchmark's tracer counts simplex.pivots by wrapping this same
    # module attribute.  The local cases' pivots are pinned on the bare LP,
    # since lhv_feasible certifies one of them with no LP at all.
    pivots = 0
    step = simplex._pivot

    def counted(*args):
        nonlocal pivots
        pivots += 1
        step(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    psi = fixture_state()
    obs = hardy_observables(psi)

    def behavior(matrix):
        return behavior_from_state(DensityOperator(d1=2, d2=2, matrix=matrix), obs)

    def mixture(p):
        return p * pure_density(psi).matrix + (1.0 - p) * np.eye(4) / 4.0

    # p = 0.99 is nonlocal: a facet decides it with no pivot, while the LP on
    # the same system still walks its 17 pivots to infeasibility.
    nonlocal_behavior = behavior(mixture(0.99))
    rhs = np.concatenate([nonlocal_behavior.tables.reshape(-1), [1.0]])
    assert not simplex.solve_feasibility_lp(strategy_constraint_matrix(), rhs).feasible
    assert pivots == 17
    pivots = 0
    result = lhv_feasible(nonlocal_behavior)
    assert not result.feasible and result.facet is not None
    assert pivots == 0
    # Local behaviors violate no facet, and the LP on each system walks 9
    # pivots.  The projection certifies the separable one with none; at
    # p = 0.6 its most negative weight is -0.012, so lhv_feasible falls back
    # to that same LP.
    separable = random_separable(2, 2, np.random.default_rng(0)).matrix
    for matrix, count, fallback in ((mixture(0.6), 9, True), (separable, 9, False)):
        local = behavior(matrix)
        pivots = 0
        rhs = np.concatenate([local.tables.reshape(-1), [1.0]])
        assert simplex.solve_feasibility_lp(strategy_constraint_matrix(), rhs).feasible
        assert pivots == count
        pivots = 0
        result = lhv_feasible(local)
        assert result.feasible and result.facet is None
        assert pivots == (count if fallback else 0)


def counted_lp(monkeypatch) -> list[int]:
    """Counts lhv_feasible's calls to the LP: the one-entry list's value."""
    calls = [0]
    solve = lhv.solve_feasibility_lp

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(lhv, "solve_feasibility_lp", counted)
    return calls


def seeded_separable_behaviors(count: int) -> list[Behavior]:
    """Behaviors of seeded separable states at 2x2 to 4x4."""
    rng = np.random.default_rng(67)
    behaviors = []
    for _ in range(count):
        d1, d2 = (int(d) for d in rng.integers(2, 5, size=2))
        obs = hardy_observables(random_hardy_state(rng, d1=d1, d2=d2))
        behaviors.append(behavior_from_state(random_separable(d1, d2, rng), obs))
    return behaviors


def test_projection_certifies_most_separable_behaviors(monkeypatch):
    # The scaled projection proves locality before the simplex; every model
    # it returns is one the bare LP agrees exists.  About 97% need no LP.
    calls = counted_lp(monkeypatch)
    behaviors = seeded_separable_behaviors(120)
    projected = 0
    for behavior in behaviors:
        before = calls[0]
        result = lhv_feasible(behavior)
        assert result.feasible and result.facet is None
        if calls[0] == before:
            projected += 1
            assert lp_checked_verdict(behavior)
    assert projected >= 0.9 * len(behaviors)


def test_projected_weights_are_stable_under_last_bit_changes(monkeypatch):
    # Projected weights are a fixed continuous function of the cells, so a
    # last-bit change moves them by round-off, not to another vertex.
    calls = counted_lp(monkeypatch)
    compared = 0
    for behavior in seeded_separable_behaviors(120):
        result = lhv_feasible(behavior)
        if calls[0]:
            calls[0] = 0
            continue
        for scale in (1.0 + 2.0**-52, 1.0 - 2.0**-52):
            moved = lhv_feasible(Behavior(tables=behavior.tables * scale))
            assert calls[0] == 0
            assert np.max(np.abs(moved.weights - result.weights)) <= 1e-12
        compared += 1
    assert compared >= 108


def test_projection_falls_back_to_the_lp_on_a_vertex_mixture(monkeypatch):
    # The even mixture of "all +1" and "all -1" is local, but its product
    # start spreads weight over 16 strategies and one projected step cannot
    # pull it back onto two: the projection fails and the LP finds the model.
    calls = counted_lp(monkeypatch)
    cells = strategy_constraint_matrix()[:36, [0, 80]].mean(axis=1)
    result = lhv_feasible(Behavior(tables=cells.reshape(2, 2, 3, 3)))
    assert calls[0] == 1
    assert result.feasible and result.facet is None
    assert np.flatnonzero(result.weights).tolist() == [0, 80]


def test_a_singular_projection_falls_back_to_the_lp(monkeypatch):
    # Normal equations the solver refuses leave the projection without a
    # model: the LP decides, and its weights reproduce each table's cells,
    # divided by the table's sum, within FEASIBILITY_TOL.
    behaviors = seeded_separable_behaviors(6)
    calls = counted_lp(monkeypatch)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    for behavior in behaviors:
        result = lhv_feasible(behavior)
        assert result.feasible and result.facet is None
        cells = behavior.tables / behavior.tables.sum(axis=(2, 3), keepdims=True)
        residual = strategy_constraint_matrix() @ result.weights - np.append(cells, 1.0)
        assert np.abs(residual).sum() <= FEASIBILITY_TOL
    assert calls[0] == len(behaviors)


# ---------------------------------------------------------------- the facets


def vertex_slacks() -> np.ndarray:
    """Each facet's value minus its bound on each of the 81 strategies."""
    table = facet_table()
    return table.coefficients @ strategy_constraint_matrix()[:36] - table.bounds[:, None]


def test_facet_table_shape_and_classes():
    table = facet_table()
    assert table.coefficients.shape == (1116, 36)
    assert table.bounds.shape == table.classes.shape == (1116,)
    # 36 positivity, 648 CHSH-lifting and 432 CGLMP rows, in that order.
    assert table.classes.tolist() == ["positivity"] * 36 + ["chsh"] * 648 + ["cglmp"] * 432
    # The table is a constant: built once and shared read-only.
    assert facet_table() is table
    assert not any(array.flags.writeable for array in table)


def test_facet_coefficients_are_small_integers():
    table = facet_table()
    assert set(np.unique(table.coefficients).tolist()) == {-1.0, 0.0, 1.0}
    assert set(table.bounds.tolist()) == {0.0, 2.0}
    # Positivity rows are -cell <= 0, one cell each.
    assert np.array_equal(table.coefficients[:36], -np.eye(36))


def test_facets_are_valid_and_tight():
    # No strategy exceeds a bound, and some strategy attains each one.
    assert np.array_equal(vertex_slacks().max(axis=1), np.zeros(1116))


def test_each_row_is_a_facet():
    # The 81 strategies, with the normalization row, have rank 25: the local
    # polytope is 24-dimensional.  A facet is 23-dimensional, so its tight
    # strategies have rank 24 with the normalization row.
    matrix = strategy_constraint_matrix()
    assert np.linalg.matrix_rank(matrix) == 25
    for slack in vertex_slacks():
        assert np.linalg.matrix_rank(matrix[:, slack == 0]) == 24


def test_facets_are_pairwise_distinct():
    # Rows are compared on the strategies, where the cell coordinates'
    # normalization and no-signaling redundancies cannot hide a duplicate.
    assert len(np.unique(vertex_slacks(), axis=0)) == 1116


def test_hardy_inequality_is_one_chsh_facet():
    # P(Y1+,Y2+) <= P(X1+,X2+) + P(Y1+,X2-) + P(X1-,Y2+) + P(Y1+,X2 0)
    # + P(X1 0,Y2+), written as hardy @ cells <= 0.
    hardy = np.zeros((2, 2, 3, 3))
    hardy[1, 1, 0, 0] = 1.0
    for cell in ((0, 0, 0, 0), (1, 0, 0, 2), (0, 1, 2, 0), (1, 0, 0, 1), (0, 1, 1, 0)):
        hardy[cell] = -1.0
    values = hardy.reshape(-1) @ strategy_constraint_matrix()[:36]
    assert values.max() == 0.0
    assert np.count_nonzero(values == 0.0) == 45
    slacks = vertex_slacks()
    # slack_r = c * values with c > 0, on all 81 strategies.
    scale = (slacks @ values) / (values @ values)
    proportional = np.flatnonzero(
        (scale > 0) & np.all(np.abs(slacks - scale[:, None] * values) < 1e-12, axis=1)
    )
    assert len(proportional) == 1
    assert facet_table().classes[proportional[0]] == "chsh"


def lp_checked_verdict(behavior: Behavior) -> bool:
    """lhv_feasible's verdict, after checking it against the bare LP on the
    same cells, each table divided by its own sum."""
    tables = behavior.tables
    cells = (tables / tables.sum(axis=(2, 3), keepdims=True)).reshape(-1)
    reference = simplex.solve_feasibility_lp(strategy_constraint_matrix(), np.append(cells, 1.0))
    result = lhv_feasible(behavior)
    assert result.feasible is reference.feasible
    if result.feasible:
        # A local verdict is a model that checks without the LP: whether the
        # projection or the simplex found it, it meets the LP's own bar.
        assert result.facet is None
        matrix, rhs = strategy_constraint_matrix(), np.append(cells, 1.0)
        residuals = np.abs(matrix @ result.weights - rhs)
        assert np.all(result.weights >= 0.0)
        assert abs(result.weights.sum() - 1.0) <= FEASIBILITY_TOL
        assert residuals.sum() <= FEASIBILITY_TOL
        assert result.max_violation == residuals.max()
    elif result.facet is not None:
        # The witness recomputes from the table alone.
        table = facet_table()
        violation = table.coefficients[result.facet] @ cells - table.bounds[result.facet]
        assert violation > FEASIBILITY_TOL
        assert violation == pytest.approx(result.max_violation, rel=1e-12, abs=1e-15)
    return result.feasible


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_facet_verdict_matches_lp_on_states(d1, d2):
    rng = np.random.default_rng(65 + 10 * d1 + d2)
    for _ in range(6):
        sigma, psi = certified_mixture(rng, d1=d1, d2=d2)
        certified = behavior_from_state(sigma, hardy_observables(psi))
        assert not lp_checked_verdict(certified)
        assert lhv_feasible(certified).facet is not None
        obs = hardy_observables(random_hardy_state(rng, d1=d1, d2=d2))
        assert lp_checked_verdict(behavior_from_state(random_separable(d1, d2, rng), obs))


def test_witness_facet_is_stable_under_last_bit_changes():
    # Symmetric facets tie up to round-off.  Scaling the tables by 1 +- 2**-52
    # moves the cells, read divided by their sums, in the last bits; the
    # most violated row then flipped between tied facets on some of these
    # behaviors, while the witness rule keeps the same row on all of them.
    rng = np.random.default_rng(1)
    table = facet_table()
    flipped = 0
    for _ in range(120):
        d1, d2 = (int(d) for d in rng.integers(2, 5, size=2))
        sigma, psi = certified_mixture(rng, d1=d1, d2=d2)
        behavior = behavior_from_state(sigma, hardy_observables(psi))
        result = lhv_feasible(behavior)
        sums = behavior.tables.sum(axis=(2, 3))[:, :, None, None]
        violations = table.coefficients @ (behavior.tables / sums).reshape(-1) - table.bounds
        assert result.max_violation == violations[result.facet] > FEASIBILITY_TOL
        assert result.max_violation >= violations.max() - FEASIBILITY_TOL
        near = (violations > FEASIBILITY_TOL) & (violations >= violations.max() - FEASIBILITY_TOL)
        assert result.facet == np.flatnonzero(near)[0]
        for scale in (1.0 + 2.0**-52, 1.0 - 2.0**-52, 1.0 + 3 * 2.0**-52):
            scaled = behavior.tables * scale
            assert lhv_feasible(Behavior(tables=scaled)).facet == result.facet
            sums = scaled.sum(axis=(2, 3))[:, :, None, None]
            most = (table.coefficients @ (scaled / sums).reshape(-1) - table.bounds).argmax()
            flipped += most != violations.argmax()
    assert flipped > 0


def relabeled(tables: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``tables`` with each setting's outcomes permuted at random."""
    alice = [rng.permutation(3) for _ in range(2)]
    bob = [rng.permutation(3) for _ in range(2)]
    out = np.empty_like(tables)
    for i, j in itertools.product(range(2), repeat=2):
        out[i, j] = tables[i, j][np.ix_(alice[i], bob[j])]
    return out


def test_facet_verdict_matches_lp_along_no_signaling_directions():
    # Two maximally nonlocal no-signaling boxes: the Popescu-Rohrlich box on
    # outcomes +-1 and the box saturating the CGLMP seed, each at 4 where
    # local models reach 2.
    chsh_box = np.zeros((2, 2, 3, 3))
    for i, j in itertools.product(range(2), repeat=2):
        pairs = ((0, 2), (2, 0)) if (i, j) == (1, 1) else ((0, 0), (2, 2))
        for k, l in pairs:
            chsh_box[i, j, k, l] = 0.5
    shift = (np.arange(3)[None, :] - np.arange(3)[:, None]) % 3
    cglmp_box = np.stack([(shift == s) / 3.0 for s in (0, 0, 1, 0)]).reshape(2, 2, 3, 3)
    cells = strategy_constraint_matrix()[:36]
    center = cells.mean(axis=1)  # the uniform mixture of all strategies
    table = facet_table()
    rng = np.random.default_rng(73)
    verdicts = Counter()
    for _ in range(60):
        # A random no-signaling point: relabeled boxes mixed with strategies.
        parts = [relabeled(chsh_box, rng).reshape(-1), relabeled(cglmp_box, rng).reshape(-1)]
        parts += [cells[:, s] for s in rng.integers(0, 81, size=3)]
        direction = rng.dirichlet(np.ones(len(parts))) @ np.array(parts) - center
        # Where the facets put the edge of the local region along it.
        rate = table.coefficients @ direction
        room = table.bounds - table.coefficients @ center
        edge = np.min(room[rate > 0] / rate[rate > 0])
        steps = [rng.uniform(0.0, 1.0)]
        if edge * (1.0 + 1e-3) <= 1.0:
            steps += [edge * (1.0 - 1e-3), edge * (1.0 + 1e-3)]
        for t in steps:
            behavior = Behavior(tables=(center + t * direction).reshape(2, 2, 3, 3))
            verdicts[lp_checked_verdict(behavior)] += 1
    assert verdicts[True] > 50 and verdicts[False] > 30


def test_signaling_behavior_is_never_feasible():
    # Alice's outcome follows Bob's setting; independent random tables signal
    # almost surely.  No mixture of strategies signals, so the projection's
    # residual check alone rejects every one of them, whether a facet or the
    # LP then decides the verdict.
    first = np.zeros((2, 2, 3, 3))
    first[:, 0, 0, 0] = first[:, 1, 2, 0] = 1.0
    rng = np.random.default_rng(74)
    random = [rng.dirichlet(np.ones(9), size=4).reshape(2, 2, 3, 3) for _ in range(20)]
    matrix = strategy_constraint_matrix()
    for tables in [first] + random:
        assert lhv._projected_model(matrix, np.append(tables, 1.0)) is None
        result = lhv_feasible(Behavior(tables=tables))
        assert not result.feasible and result.weights is None

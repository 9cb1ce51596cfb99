import math
import re
import warnings

import numpy as np
import pytest

from hardycert import (
    behavior_from_state,
    build_bases,
    build_observables,
    certify,
    find_hardy_pair,
    hardy_parameter_a,
    maximally_mixed,
    pure_density,
    schmidt_decompose,
    validate_density,
)
from hardycert.errors import DimensionMismatchError, InvalidStateError, NonPositiveWeightError
from hardycert.lhv import OUTCOMES, PROBABILITY_CLIP, Behavior
from hardycert.observables import HardyObservables, HardyProbabilityTable, build_rotations
from hardycert.states import STATE_TOL, SchmidtForm
from support import (
    A_FIXTURE,
    certified_mixture,
    fixture_state,
    hardy_observables,
    random_density,
    random_hardy_state,
)


# ------------------------------------------------------------- closed form


def test_hardy_parameter_fixture_value():
    assert hardy_parameter_a(math.sqrt(0.2), math.sqrt(0.8)) == pytest.approx(
        A_FIXTURE, abs=1e-12
    )


def test_hardy_parameter_zero_iff_equal():
    p = 1.0 / math.sqrt(2.0)
    assert hardy_parameter_a(p, p) == 0.0
    for q in (0.3, 0.5, 0.9):
        assert hardy_parameter_a(q, math.sqrt(1 - q * q)) > 0.0 or q * q == 0.5


def test_hardy_parameter_symmetric():
    assert hardy_parameter_a(0.3, 0.7) == pytest.approx(hardy_parameter_a(0.7, 0.3), abs=1e-15)


def test_hardy_parameter_maximum_identity():
    # For unit-norm qubit weights, the parameter reduces to x^2 (1 - 2x) / (1 - x)^2
    # in x = p1 p2; its stationary point solves x^2 - 3x + 1 = 0, where
    # (1 - x)^2 = x and the maximum collapses to 2 - 5x = (5 sqrt(5) - 11) / 2.
    x_star = (3.0 - math.sqrt(5.0)) / 2.0
    s = (1.0 - math.sqrt(1.0 - 4.0 * x_star * x_star)) / 2.0
    value = hardy_parameter_a(math.sqrt(s), math.sqrt(1.0 - s))
    assert value == pytest.approx((5.0 * math.sqrt(5.0) - 11.0) / 2.0, abs=1e-12)


BAD_WEIGHTS = [
    (0.0, 0.5),
    (0.5, -0.1),
    (math.nan, 0.5),
    (0.5, math.nan),
    (math.inf, 0.5),
    # Above 1 + STATE_TOL, which no weight of an accepted state exceeds.
    (1e160, 2e160),
    (1e-144, 1e150),
    (1e6, 1e306),
    # Positive, but the squared denominator underflows to 0.
    (1e-100, 2e-100),
    (1e-200, 1e-200),
]


def test_hardy_parameter_rejects_bad_weights():
    for weights in BAD_WEIGHTS:
        with pytest.raises(NonPositiveWeightError):
            hardy_parameter_a(*weights)


# --------------------------------------------------------------- rotations


def test_build_rotations_equal_weights():
    p = 1.0 / math.sqrt(2.0)
    u, v = build_rotations(p, p)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(u, inv_sqrt2 * np.array([[1.0, -1.0j], [-1.0j, 1.0]]), atol=1e-12)
    assert np.allclose(v, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


def test_build_rotations_fixture_entries():
    u, v = build_rotations(math.sqrt(0.2), math.sqrt(0.8))
    # sqrt(0.8) - sqrt(0.2) = sqrt(0.2), so the diagonal is -i sqrt(0.2)/sqrt(0.6).
    expected_diag = -1.0j * math.sqrt(0.2) / math.sqrt(0.6)
    assert v[0, 0] == pytest.approx(expected_diag, abs=1e-12)
    assert v[1, 1] == pytest.approx(expected_diag, abs=1e-12)
    expected_u00 = math.sqrt(math.sqrt(0.8)) / math.sqrt(math.sqrt(0.2) + math.sqrt(0.8))
    assert u[0, 0] == pytest.approx(expected_u00, abs=1e-12)


def test_build_rotations_unitary():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        p1, p2 = rng.uniform(0.05, 1.0, size=2)
        u, v = build_rotations(float(p1), float(p2))
        for mat in (u, v):
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12


def test_build_rotations_rejects_bad_weights():
    for weights in BAD_WEIGHTS:
        with pytest.raises(NonPositiveWeightError):
            build_rotations(*weights)


#: Weights from the smallest subnormal to 2e304: one and two times every
#: sixth power of ten, and 1 + STATE_TOL with its next float.
WEIGHT_GRID = [5e-324, 1.0 + STATE_TOL, math.nextafter(1.0 + STATE_TOL, math.inf)] + [
    m * 10.0**k for k in range(-320, 307, 6) for m in (1.0, 2.0)
]


def test_closed_forms_give_finite_values_or_refuse_the_weights():
    # Every pair either gives finite values, without a warning, from both
    # closed forms, or is refused by both with NonPositiveWeightError; no
    # other exception escapes.  Pairs that a state can carry are admitted.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p1 in WEIGHT_GRID:
            for p2 in WEIGHT_GRID:
                try:
                    a = hardy_parameter_a(p1, p2)
                except NonPositiveWeightError:
                    assert not (1e-80 <= p1 <= 1.0 and 1e-80 <= p2 <= 1.0), (p1, p2)
                    with pytest.raises(NonPositiveWeightError):
                        build_rotations(p1, p2)
                    continue
                u, v = build_rotations(p1, p2)
                assert 0.0 <= a < math.inf, (p1, p2)
                assert np.isfinite(u).all() and np.isfinite(v).all(), (p1, p2)


# ------------------------------------------------------------------- bases


def test_build_bases_orthonormal_and_in_span():
    rng = np.random.default_rng(32)
    for _ in range(10):
        psi = random_hardy_state(rng)
        sf = schmidt_decompose(psi)
        pair = find_hardy_pair(sf)
        alice, bob = build_bases(sf, pair)
        assert alice.shape == (2, 2, psi.d1) and bob.shape == (2, 2, psi.d2)
        for vectors in (alice, bob):
            for plus, minus in vectors:
                assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.norm(minus) == pytest.approx(1.0, abs=1e-10)
                assert abs(np.vdot(plus, minus)) < 1e-10
        # Every vector stays inside the span of its side's selected pair.
        left_pair = sf.left_basis[:, [pair.index_small, pair.index_large]]
        right_pair = sf.right_basis[:, [pair.index_small, pair.index_large]]
        for vec in alice.reshape(4, -1):
            residual = vec - left_pair @ (left_pair.conj().T @ vec)
            assert np.linalg.norm(residual) < 1e-10
        for vec in bob.reshape(4, -1):
            residual = vec - right_pair @ (right_pair.conj().T @ vec)
            assert np.linalg.norm(residual) < 1e-10


def test_build_bases_y_vectors_compose_rotations():
    psi = fixture_state()
    sf = schmidt_decompose(psi)
    pair = find_hardy_pair(sf)
    alice, _ = build_bases(sf, pair)
    u, v = build_rotations(pair.p1, pair.p2)
    w = v @ u
    alpha1 = sf.left_basis[:, pair.index_small]
    alpha2 = sf.left_basis[:, pair.index_large]
    expected = w[0, 0] * alpha1 + w[0, 1] * alpha2
    assert np.max(np.abs(alice[1, 0] - expected)) < 1e-12


def test_build_bases_rotates_by_build_rotations():
    # Schmidt vectors that put the selected pair on the unit vectors make the
    # bases the rotations themselves: u for x and v @ u for y, on each side,
    # within an ulp of each real and imaginary part.
    rng = np.random.default_rng(33)
    swap = np.eye(2)[:, ::-1]
    for _ in range(20):
        p1, p2 = sorted(rng.uniform(0.05, 1.0, size=2))
        norm = math.hypot(p1, p2)
        sf = SchmidtForm(weights=[p2 / norm, p1 / norm], left_basis=swap, right_basis=swap)
        pair = find_hardy_pair(sf)
        u, v = build_rotations(pair.p1, pair.p2)
        for side in build_bases(sf, pair):
            for got, want in zip(side, (u, v @ u)):
                for part in (np.real, np.imag):
                    assert np.all(np.abs(part(got) - part(want)) <= np.spacing(np.abs(part(want))))


def test_build_bases_refuses_a_pair_that_is_not_the_forms():
    # A rank-3 form: a pair must name two distinct columns of it and carry
    # its weights there exactly.  Out of range, a negative index (which
    # numpy would wrap to the last column) and weights from elsewhere, which
    # would build a measurement whose designated cells do not vanish, are
    # all refused, naming the pair.
    weights = np.array([0.8, 0.5, 0.3]) / math.sqrt(0.98)
    sf = SchmidtForm(weights=weights, left_basis=np.eye(3), right_basis=np.eye(3))
    pair = find_hardy_pair(sf)
    build_bases(sf, pair)
    other = [w for k, w in enumerate(weights.tolist()) if k != pair.index_small]
    for bad in (
        pair._replace(index_small=5),
        pair._replace(index_small=-1),
        pair._replace(index_small=pair.index_large),
        pair._replace(index_small=float(pair.index_small)),
        pair._replace(p1=other[0], p2=other[1]),
        pair._replace(p1=math.nextafter(pair.p1, 1.0)),
    ):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"pair {tuple(bad)}")):
            build_bases(sf, bad)


# ------------------------------------------------------------- observables


def test_build_observables_completeness_and_idempotence():
    obs = hardy_observables(fixture_state())
    for stack in (*obs.alice, *obs.bob):
        plus, zero, minus = stack
        assert np.max(np.abs(plus + zero + minus - np.eye(2))) < 1e-12
        for proj in (plus, minus):
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10
        # Qubit subsystems leave nothing over for the null outcome.
        assert np.max(np.abs(zero)) < 1e-12
        spectrum = np.sort(np.linalg.eigvalsh(plus - minus))
        assert np.allclose(spectrum, [-1.0, 1.0], atol=1e-10)


def test_build_observables_null_outcome_in_higher_dims():
    rng = np.random.default_rng(33)
    psi = random_hardy_state(rng, d1=3, d2=4)
    obs = hardy_observables(psi)
    assert obs.alice.shape == (2, 3, 3, 3) and obs.bob.shape == (2, 3, 4, 4)
    assert abs(np.trace(obs.alice[0, 1]).real - 1.0) < 1e-10  # rank d1 - 2
    assert abs(np.trace(obs.bob[0, 1]).real - 2.0) < 1e-10  # rank d2 - 2
    zero = obs.bob[0, 1]
    assert np.max(np.abs(zero @ zero - zero)) < 1e-10
    spectrum = np.sort(np.linalg.eigvalsh(obs.bob[0, 0] - obs.bob[0, 2]))
    assert np.allclose(spectrum, [-1.0, 0.0, 0.0, 1.0], atol=1e-10)


def test_build_observables_rejects_wrong_dims():
    psi = fixture_state()
    sf = schmidt_decompose(psi)
    with pytest.raises(DimensionMismatchError):
        build_observables(build_bases(sf, find_hardy_pair(sf)), 2, 3)


def test_observable_projector_lookup():
    psi = fixture_state()
    obs = hardy_observables(psi)
    sf = schmidt_decompose(psi)
    bases = build_bases(sf, find_hardy_pair(sf))
    # Settings index the stacks (X before Y) and outcomes follow OUTCOMES.
    assert OUTCOMES == (1, 0, -1)
    for stacks, vectors in zip(obs, bases):
        for stack, (plus, minus) in zip(stacks, vectors):
            assert np.max(np.abs(stack[0] - np.outer(plus, plus.conj()))) < 1e-12
            assert np.max(np.abs(stack[2] - np.outer(minus, minus.conj()))) < 1e-12


# ---------------------------------------------------------------- behavior


def test_behavior_completeness():
    rng = np.random.default_rng(34)
    obs = hardy_observables(fixture_state())
    for _ in range(10):
        tables = behavior_from_state(random_density(2, 2, rng), obs).tables
        assert np.max(np.abs(tables.sum(axis=(2, 3)) - 1.0)) <= 1e-10


def test_behavior_rejects_wrong_dims():
    obs = hardy_observables(fixture_state())
    with pytest.raises(DimensionMismatchError):
        behavior_from_state(maximally_mixed(2, 3), obs)


def _kron_reference(sigma, obs) -> np.ndarray:
    """Tr[(A (x) B) sigma] cell by cell, with an explicit Kronecker product."""
    tables = np.empty((2, 2, 3, 3))
    for s in range(2):
        for t in range(2):
            for k in range(3):
                for l in range(3):
                    proj = np.kron(obs.alice[s, k], obs.bob[t, l])
                    tables[s, t, k, l] = np.trace(proj @ sigma.matrix).real
    return tables


def test_behavior_matches_kron_reference():
    # Summation order differs from the reference, so equality is up to a few
    # hundred ulps of a unit-scale probability; rectangular dims pin the
    # reshape order of the state.
    tol = 256 * np.finfo(float).eps
    rng = np.random.default_rng(37)
    for d1, d2 in ((2, 2), (2, 3), (3, 5), (4, 4), (8, 8)):
        for _ in range(3):
            psi = random_hardy_state(rng, d1=d1, d2=d2)
            obs = hardy_observables(psi)
            mixture, _ = certified_mixture(rng, d1=d1, d2=d2)
            for sigma in (pure_density(psi), random_density(d1, d2, rng), mixture):
                tables = behavior_from_state(sigma, obs).tables
                assert np.max(np.abs(tables - _kron_reference(sigma, obs))) <= tol
                assert HardyProbabilityTable.from_behavior(tables) == (
                    tables[0, 0, 0, 0],
                    tables[1, 0, 0, 2],
                    tables[0, 1, 2, 0],
                    tables[1, 0, 0, 1],
                    tables[0, 1, 1, 0],
                    tables[1, 1, 0, 0],
                )


def _unclipped_cells(sigma, obs) -> np.ndarray:
    """The cells by the bilinear form ``behavior_from_state`` takes, in the
    same operations and order, before any clip."""
    alice, bob = obs
    d1, d2 = alice.shape[-1], bob.shape[-1]
    r = sigma.matrix.reshape(d1, d2, d1, d2).transpose(2, 0, 3, 1).reshape(d1 * d1, d2 * d2)
    cells = alice.reshape(-1, d1 * d1) @ r @ bob.reshape(-1, d2 * d2).T
    cells = cells.real / np.trace(sigma.matrix).real
    return cells.reshape(alice.shape[:2] + bob.shape[:2]).transpose(0, 2, 1, 3)


def test_behavior_from_state_is_the_public_constructor_bit_for_bit():
    # behavior_from_state builds its Behavior without the constructor's copy
    # and clips in place; the constructor, on the same cells clipped within
    # PROBABILITY_CLIP of [0, 1], stores the same tables.  Pure states put
    # round-off negatives on their zero cells, so the clip is exercised.
    rng = np.random.default_rng(38)
    clipped_any = False
    for d1, d2 in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (3, 5)):
        for _ in range(3):
            psi = random_hardy_state(rng, d1=d1, d2=d2)
            obs = hardy_observables(psi)
            for sigma in (pure_density(psi), random_density(d1, d2, rng)):
                values = _unclipped_cells(sigma, obs)
                clipped = np.clip(values, 0.0, 1.0)
                clipped_any |= bool((values != clipped).any())
                near = np.abs(values - clipped) <= PROBABILITY_CLIP
                expected = Behavior(tables=np.where(near, clipped, values)).tables
                assert np.array_equal(behavior_from_state(sigma, obs).tables, expected)
    assert clipped_any


def test_behavior_from_state_refuses_what_the_constructor_refuses():
    # Stacks that are not a measurement: scaled up, negated, holding a NaN,
    # or with two outcomes per setting.  Each raises the constructor's
    # InvalidStateError, with its message, through behavior_from_state.
    rng = np.random.default_rng(39)
    psi = random_hardy_state(rng, d1=3, d2=3)
    obs = hardy_observables(psi)
    sigma = random_density(3, 3, rng)
    holed = obs.alice.copy()
    holed[0, 0, 0, 0] = np.nan
    stacks = [
        (2.0 * obs.alice, 10.0 * obs.bob),
        (obs.alice, -obs.bob),
        (holed, obs.bob),
        (obs.alice[:, :2], obs.bob),
    ]
    for alice, bob in stacks:
        bad = HardyObservables(alice=alice, bob=bob)
        with pytest.raises(InvalidStateError) as public:
            Behavior(tables=_unclipped_cells(sigma, bad))
        with pytest.raises(InvalidStateError, match=re.escape(str(public.value))):
            behavior_from_state(sigma, bad)


# -------------------------------------------------------- probability table


def test_table_pure_fixture():
    psi = fixture_state()
    table = certify(pure_density(psi), psi).table
    for value in table[:5]:
        assert abs(value) <= 1e-10
    assert table.y1_plus_y2_plus == pytest.approx(A_FIXTURE, abs=1e-10)


def test_table_white_noise():
    table = certify(maximally_mixed(2, 2), fixture_state()).table
    expected = (0.25, 0.25, 0.25, 0.0, 0.0, 0.25)
    for value, target in zip(table, expected):
        assert value == pytest.approx(target, abs=1e-12)


def test_table_zero_conditions_random_states():
    rng = np.random.default_rng(35)
    for _ in range(30):
        psi = random_hardy_state(rng)
        report = certify(pure_density(psi), psi)
        table, pair = report.table, report.pair
        assert max(abs(v) for v in table[:5]) <= 1e-10
        assert abs(table.y1_plus_y2_plus - hardy_parameter_a(pair.p1, pair.p2)) <= 1e-10


def test_table_is_affine_in_the_state():
    rng = np.random.default_rng(36)
    psi = fixture_state()
    rho1 = random_density(2, 2, rng)
    rho2 = random_density(2, 2, rng)
    for weight in (0.25, 0.5, 0.75):
        blend = validate_density(
            weight * rho1.matrix + (1 - weight) * rho2.matrix, 2, 2
        )
        t1 = np.array(certify(rho1, psi).table)
        t2 = np.array(certify(rho2, psi).table)
        tb = np.array(certify(blend, psi).table)
        assert np.max(np.abs(tb - (weight * t1 + (1 - weight) * t2))) < 1e-12

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    Verdict,
    candidate_from_state,
    certify,
    find_hardy_pair,
    hardy_parameter_a,
    maximally_mixed,
    noise_threshold,
    pure_density,
    schmidt_decompose,
    trace_distance,
    validate_density,
)
from hardycert.certification import CERTIFICATION_TOL
from hardycert.errors import DimensionMismatchError, NotHardyError
from hardycert.observables import PAIR_FLOOR
from support import (
    A_FIXTURE,
    assemble_pure_state,
    certified_mixture,
    fixture_state,
    haar_unitary,
    random_density,
    random_hardy_state,
    random_projector,
)


def white_noise_mixture(p: float) -> "validate_density":
    psi = fixture_state()
    return validate_density(p * psi.projector() + (1 - p) * np.eye(4) / 4.0, 2, 2)


# ------------------------------------------------------------ trace distance


def test_trace_distance_identical_states():
    rho = maximally_mixed(2, 2)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states():
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1.0
    one = np.zeros(4, dtype=complex)
    one[3] = 1.0
    d = trace_distance(
        pure_density(StateVector(2, 2, zero)), pure_density(StateVector(2, 2, one))
    )
    assert d == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_white_noise_fixture():
    d = trace_distance(maximally_mixed(2, 2), pure_density(fixture_state()))
    assert d == pytest.approx(0.75, abs=1e-12)


def test_trace_distance_metric_axioms():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = random_density(2, 2, rng)
        b = random_density(2, 2, rng)
        c = random_density(2, 2, rng)
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert -1e-12 <= dab <= 1.0 + 1e-12
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10


def test_trace_distance_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatchError, match=r"s1 dims \(2, 2\) do not match s2 dims \(2, 3\)"):
        trace_distance(maximally_mixed(2, 2), maximally_mixed(2, 3))


def test_trace_distance_dominates_projector_gaps():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d1 = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 4))
        s1 = random_density(d1, d2, rng)
        s2 = random_density(d1, d2, rng)
        proj = random_projector(d1 * d2, rng)
        gap = abs(np.trace(proj @ s1.matrix).real - np.trace(proj @ s2.matrix).real)
        assert gap <= trace_distance(s1, s2) + 1e-10


# ----------------------------------------------------------------- certify


def test_certify_pure_fixture():
    psi = fixture_state()
    report = certify(pure_density(psi), psi)
    assert report.epsilon <= 1e-12
    assert report.a == pytest.approx(A_FIXTURE, abs=1e-12)
    assert report.margin == pytest.approx(A_FIXTURE, abs=1e-10)
    assert report.verdict is Verdict.NONLOCAL_CERTIFIED
    assert max(abs(v) for v in report.table[:5]) <= 1e-10


def test_certify_white_noise_mixtures():
    psi = fixture_state()
    report = certify(white_noise_mixture(0.99), psi)
    assert report.epsilon == pytest.approx(0.0075, abs=1e-12)
    assert report.verdict is Verdict.NONLOCAL_CERTIFIED

    report = certify(white_noise_mixture(0.9), psi)
    assert report.epsilon == pytest.approx(0.075, abs=1e-12)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.margin < 0.0


def test_certify_equal_weight_candidate_is_not_hardy():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    candidate = StateVector(2, 2, bell)
    report = certify(maximally_mixed(2, 2), candidate)
    assert report.verdict is Verdict.NOT_HARDY
    assert report.a == 0.0
    assert report.pair is None and report.table is None
    assert report.margin == pytest.approx(-6.0 * report.epsilon, abs=1e-15)


def test_certify_margin_identity_and_verdict_consistency():
    rng = np.random.default_rng(43)
    for _ in range(25):
        psi = random_hardy_state(rng, d1=2, d2=2)
        sigma = random_density(2, 2, rng)
        report = certify(sigma, psi)
        assert report.margin == pytest.approx(report.a - 6.0 * report.epsilon, abs=1e-12)
        if report.margin > 1e-10:
            assert report.verdict is Verdict.NONLOCAL_CERTIFIED
        else:
            assert report.verdict is not Verdict.NONLOCAL_CERTIFIED


def test_hardy_parameter_is_bounded_by_gap_and_smaller_weight():
    # a <= min((p2 - p1)**2, p1**2): a pair whose gap or smaller weight is at
    # the pair floor has a <= PAIR_FLOOR**2, which no margin can clear.
    rng = np.random.default_rng(44)
    pairs = [tuple(np.sort(rng.uniform(1e-3, 1.0, size=2))) for _ in range(200)]
    pairs += [(p, p + gap) for p in rng.uniform(1e-3, 0.7, size=50) for gap in (1e-6, 1e-9)]
    pairs += [(1e-9, p) for p in rng.uniform(1e-3, 1.0, size=50)]
    for p1, p2 in pairs:
        # The relative slack covers the closed form's own rounding.
        assert hardy_parameter_a(p1, p2) <= min((p2 - p1) ** 2, p1**2) * (1.0 + 1e-12)
    assert PAIR_FLOOR**2 < CERTIFICATION_TOL


def _reference_certified(sigma, psi) -> tuple[bool, float]:
    """The criterion with every pair of a > 0 admissible: (certified, a)."""
    weights = [float(w) for w in schmidt_decompose(psi).weights]
    values = [
        hardy_parameter_a(p1, p2)
        for j, p2 in enumerate(weights)
        for p1 in weights[j + 1:]
    ]
    a = max([value for value in values if value > 0.0], default=0.0)
    epsilon = trace_distance(sigma, pure_density(psi))
    return a - 6.0 * epsilon > CERTIFICATION_TOL, a


def test_pair_floor_loses_no_certificate():
    rng = np.random.default_rng(45)
    profiles = [
        [0.8, 0.2],
        [0.6, 0.3, 1e-9],  # a 1e-9 weight
        [0.5, 0.5 - 1e-9],  # a 1e-9 gap and nothing else
        [0.4, 0.4 - 1e-9, 0.2],  # a 1e-9 gap beside a usable pair
        [0.5, 0.5 - 1e-9, 1e-9],  # no pair clears the floor
    ]
    certified = 0
    for raw in profiles:
        weights = np.array(raw) / np.linalg.norm(raw)
        d = len(raw)
        for _ in range(6):
            psi = assemble_pure_state(weights, haar_unitary(d, rng), haar_unitary(d, rng), d, d)
            p = rng.uniform(0.97, 1.0)
            noise = random_density(d, d, rng).matrix
            sigma = validate_density(p * psi.projector() + (1.0 - p) * noise, d, d)
            report = certify(sigma, psi)
            expected, a = _reference_certified(sigma, psi)
            assert (report.verdict is Verdict.NONLOCAL_CERTIFIED) == expected
            if expected:
                certified += 1
                assert report.a == a
    assert 0 < certified < 30


def test_certify_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatchError, match=r"state dims \(2, 3\) .* candidate dims \(2, 2\)"):
        certify(maximally_mixed(2, 3), fixture_state())


def test_certify_table_deviation_bounded_by_epsilon():
    rng = np.random.default_rng(44)
    for _ in range(50):
        psi = random_hardy_state(rng, d1=2, d2=3)
        tau = random_density(2, 3, rng)
        w = float(rng.uniform(0.0, 1.0))
        sigma = validate_density(
            (1 - w) * psi.projector() + w * tau.matrix, 2, 3
        )
        report = certify(sigma, psi)
        targets = np.array([0.0, 0.0, 0.0, 0.0, 0.0, report.a])
        deviation = np.max(np.abs(np.array(report.table) - targets))
        assert deviation <= report.epsilon + 1e-10


# ------------------------------------------------------- candidate selection


def test_candidate_from_state_recovers_dominant_pure_state():
    psi = fixture_state()
    candidate = candidate_from_state(white_noise_mixture(0.9))
    overlap = abs(np.vdot(candidate.amplitudes, psi.amplitudes)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_candidate_from_state_runs_on_degenerate_input():
    candidate = candidate_from_state(maximally_mixed(2, 2))
    assert np.linalg.norm(candidate.amplitudes) == pytest.approx(1.0, abs=1e-9)
    report = certify(maximally_mixed(2, 2), candidate)
    assert report.verdict in (Verdict.NOT_HARDY, Verdict.INCONCLUSIVE)


def test_certified_pair_generator_behaves():
    rng = np.random.default_rng(45)
    sigma, psi = certified_mixture(rng, d1=2, d2=2)
    report = certify(sigma, psi)
    assert report.margin > 1e-3


# ------------------------------------------------------------ noise threshold


def test_noise_threshold_white_noise_fixture():
    report = noise_threshold(fixture_state(), maximally_mixed(2, 2))
    assert report.d_noise == pytest.approx(0.75, abs=1e-12)
    assert report.a == pytest.approx(A_FIXTURE, abs=1e-12)
    assert report.p_star == pytest.approx(1.0 - A_FIXTURE / 4.5, abs=1e-12)
    assert report.p_star == pytest.approx(0.9802469, abs=1e-6)


def test_noise_threshold_zero_for_self_noise():
    psi = fixture_state()
    report = noise_threshold(psi, pure_density(psi))
    assert report.d_noise <= 1e-12
    assert report.p_star == 0.0


def test_noise_threshold_orthogonal_noise():
    psi = fixture_state()
    flip = np.zeros(4, dtype=complex)
    flip[1] = 1.0  # |01>, orthogonal to psi
    report = noise_threshold(psi, pure_density(StateVector(2, 2, flip)))
    assert report.d_noise == pytest.approx(1.0, abs=1e-12)
    assert report.p_star == pytest.approx(1.0 - A_FIXTURE / 6.0, abs=1e-12)


def test_noise_threshold_requires_distinct_weights():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    with pytest.raises(NotHardyError):
        noise_threshold(StateVector(2, 2, bell), maximally_mixed(2, 2))


def test_noise_threshold_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatchError, match=r"candidate dims \(2, 2\) .* noise dims \(2, 3\)"):
        noise_threshold(fixture_state(), maximally_mixed(2, 3))


def test_noise_threshold_boundary_spot_checks():
    rng = np.random.default_rng(46)
    psi = fixture_state()
    for _ in range(10):
        noise = random_density(2, 2, rng)
        report = noise_threshold(psi, noise)
        if not 0.01 < report.p_star < 0.99:
            continue
        for p, expect_positive in ((report.p_star + 0.01, True), (report.p_star - 0.01, False)):
            sigma = validate_density(
                p * psi.projector() + (1 - p) * noise.matrix, 2, 2
            )
            margin = certify(sigma, psi).margin
            assert (margin > 0) == expect_positive


def test_mixture_distance_is_linear_in_noise_weight():
    rng = np.random.default_rng(47)
    psi = fixture_state()
    pure = pure_density(psi)
    for _ in range(10):
        noise = random_density(2, 2, rng)
        base = trace_distance(noise, pure)
        for p in np.linspace(0.1, 0.9, 9):
            sigma = validate_density(
                p * psi.projector() + (1 - p) * noise.matrix, 2, 2
            )
            assert trace_distance(sigma, pure) == pytest.approx((1 - p) * base, abs=1e-10)


# ------------------------------------------------------------ normalisation

#: Just inside ``STATE_TOL``: a squared norm or a trace this far from 1 is
#: admitted, and must move no margin by more than round-off.
OFF_UNIT = 0.999e-9


def boundary_mixture() -> tuple[DensityOperator, StateVector]:
    """The white-noise mixture of the fixture 1e-10 below its ``p_star``,
    where a margin of a few 1e-10 decides the verdict."""
    psi = fixture_state()
    p = noise_threshold(psi, maximally_mixed(2, 2)).p_star - 1e-10
    return white_noise_mixture(p), psi


def scaled(psi: StateVector, factor: float) -> StateVector:
    return StateVector(psi.d1, psi.d2, psi.amplitudes * factor)


def test_margin_is_taken_for_the_unit_candidate_and_state():
    sigma, psi = boundary_mixture()
    unit = certify(sigma, psi)
    assert unit.verdict is Verdict.INCONCLUSIVE
    assert -5e-10 < unit.margin < -4e-10
    cases = [
        (sigma, scaled(psi, np.sqrt(1.0 - OFF_UNIT))),
        (sigma, scaled(psi, np.sqrt(1.0 + OFF_UNIT))),
        (DensityOperator(2, 2, sigma.matrix * (1.0 + OFF_UNIT)), psi),
        (DensityOperator(2, 2, sigma.matrix * (1.0 - OFF_UNIT)), psi),
    ]
    for state, candidate in cases:
        report = certify(state, candidate)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.margin == pytest.approx(unit.margin, abs=1e-12)
        assert report.a == report.pair.a == pytest.approx(A_FIXTURE, abs=1e-15)


def test_noise_threshold_is_taken_for_the_unit_candidate_and_noise():
    psi = fixture_state()
    white = maximally_mixed(2, 2)
    unit = noise_threshold(psi, white).p_star
    for factor in (1.0 - OFF_UNIT, 1.0 + OFF_UNIT):
        assert noise_threshold(scaled(psi, np.sqrt(factor)), white).p_star == pytest.approx(unit, abs=1e-12)
        noise = DensityOperator(2, 2, white.matrix * factor)
        assert noise_threshold(psi, noise).p_star == pytest.approx(unit, abs=1e-12)


def test_off_unit_inputs_leave_margins_unchanged():
    # Property: within STATE_TOL of unit norm or trace, the scale of the
    # candidate's amplitudes or of the state's matrix moves no margin.
    rng = np.random.default_rng(48)
    for d1 in (2, 3, 4):
        for d2 in (2, 3, 4):
            sigma, psi = certified_mixture(rng, d1=d1, d2=d2)
            built = DensityOperator(d1, d2, sigma.matrix)
            unit = certify(built, psi)
            for factor in (1.0 - OFF_UNIT, 1.0 + OFF_UNIT):
                state = DensityOperator(d1, d2, sigma.matrix * factor)
                assert trace_distance(state, built) <= 1e-15
                for report in (certify(built, scaled(psi, np.sqrt(factor))), certify(state, psi)):
                    assert report.verdict is unit.verdict
                    assert report.margin == pytest.approx(unit.margin, abs=1e-12)

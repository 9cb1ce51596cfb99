import math
import warnings
from collections import Counter

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    Verdict,
    behavior_from_state,
    build_bases,
    build_observables,
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
from hardycert import certification, states
from hardycert.certification import CERTIFICATION_TOL
from hardycert.errors import DimensionMismatchError, NotHardyError
from hardycert.observables import PAIR_FLOOR, HardyProbabilityTable
from support import (
    A_FIXTURE,
    assemble_pure_state,
    certified_mixture,
    dominant_states,
    fixture_state,
    haar_unitary,
    random_density,
    random_hardy_state,
    random_projector,
    random_separable,
    random_state_vector,
)


def white_noise_mixture(p: float) -> "validate_density":
    psi = fixture_state()
    return validate_density(p * psi.projector() + (1 - p) * np.eye(4) / 4.0, 2, 2)


MEASUREMENT_STEPS = ("build_bases", "build_observables", "behavior_from_state")


def count_measurement_steps(monkeypatch) -> Counter:
    """Calls of each measurement step, by the names ``certify``'s module
    looks them up by."""
    calls: Counter = Counter()
    for name in MEASUREMENT_STEPS:
        def counted(*args, _name=name, _step=getattr(certification, name)):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(certification, name, counted)
    return calls


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


# ------------------------------------------------------- candidate distance

#: Seeded subsystem dimensions of the distance properties, 2x2 to 8x8.
DISTANCE_DIMS = [(2, 2), (2, 3), (3, 3), (4, 4), (8, 8)]


def distance_pad(dim: int) -> float:
    """The density gate's shift at unit trace, ``4 (D + 1) eps``."""
    return 4.0 * (dim + 1) * np.finfo(float).eps


def bracket(sigma: DensityOperator, psi: StateVector) -> tuple[float, float]:
    """``(1 - f, 1 - f + |r|)`` for the unit state and candidate v, with
    ``f = <v|sigma|v>`` and ``r = sigma v - f v``."""
    unit = sigma.matrix / np.trace(sigma.matrix).real
    v = psi.amplitudes / np.linalg.norm(psi.amplitudes)
    w = unit @ v
    f = np.vdot(v, w).real
    return 1.0 - f, 1.0 - f + np.linalg.norm(w - f * v)


def count_spectra(monkeypatch) -> list:
    """Shapes of the matrices ``eigvalsh`` sees from here on."""
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.shape) or eigvalsh(a))
    return seen


@pytest.mark.parametrize("d1, d2", DISTANCE_DIMS)
def test_eigvalsh_distance_lies_in_the_bracket(d1, d2):
    # Fuchs-van de Graaf below, the rank-two perturbation that makes v an
    # eigenvector above, for candidates that are no eigenvector of sigma.
    rng = np.random.default_rng([60, d1, d2])
    pad = distance_pad(d1 * d2)
    for _ in range(10):
        sigma = random_density(d1, d2, rng, rank=int(rng.integers(1, d1 * d2 + 1)))
        top = candidate_from_state(sigma).amplitudes
        near = top + 1e-6 * random_state_vector(d1, d2, rng).amplitudes
        candidates = [
            random_state_vector(d1, d2, rng),
            random_hardy_state(rng, d1=d1, d2=d2),
            StateVector(d1, d2, near / np.linalg.norm(near)),
        ]
        for sigma, psi in [(sigma, psi) for psi in candidates] + [certified_mixture(rng, d1, d2)]:
            low, high = bracket(sigma, psi)
            exact = trace_distance(sigma, pure_density(psi))
            epsilon = certify(sigma, psi).epsilon
            assert low - pad <= exact <= high + pad
            assert low - pad <= epsilon <= high + pad
            assert 0.0 <= epsilon <= 1.0


@pytest.mark.parametrize("d1, d2", DISTANCE_DIMS)
def test_eigenvector_candidates_take_no_spectrum(d1, d2, monkeypatch):
    # The top eigenvector, white noise, a white-noise mixture with its own
    # candidate and a candidate's own projector: v is an eigenvector up to
    # round-off, and the distance is the bracket's upper end.
    rng = np.random.default_rng([61, d1, d2])
    dim = d1 * d2
    pad = distance_pad(dim)
    white = maximally_mixed(d1, d2)
    cases = []
    for _ in range(5):
        sigma = random_density(d1, d2, rng)
        psi = random_hardy_state(rng, d1=d1, d2=d2)
        p = float(rng.uniform(0.0, 1.0))
        mixture = validate_density(p * psi.projector() + (1.0 - p) * np.eye(dim) / dim, d1, d2)
        cases += [
            (lambda s=sigma: certify(s, candidate_from_state(s)).epsilon,
             lambda s=sigma: trace_distance(s, pure_density(candidate_from_state(s)))),
            (lambda psi=psi: noise_threshold(psi, white).d_noise,
             lambda psi=psi: trace_distance(white, pure_density(psi))),
            (lambda psi=psi: certify(white, psi).epsilon,
             lambda psi=psi: trace_distance(white, pure_density(psi))),
            (lambda m=mixture, psi=psi: certify(m, psi).epsilon,
             lambda m=mixture, psi=psi: trace_distance(m, pure_density(psi))),
            (lambda m=mixture, psi=psi: noise_threshold(psi, m).d_noise,
             lambda m=mixture, psi=psi: trace_distance(m, pure_density(psi))),
            (lambda psi=psi: noise_threshold(psi, pure_density(psi)).d_noise, lambda: 0.0),
        ]
    references = [reference() for _, reference in cases]
    spectra = count_spectra(monkeypatch)
    values = [value() for value, _ in cases]
    assert spectra == []
    for value, reference in zip(values, references):
        assert 0.0 <= value <= 1.0
        assert abs(value - reference) <= pad


def test_candidate_distance_stays_in_the_unit_interval():
    # Round-off can put 1 - f + |r| a few ulps outside [0, 1] at both ends:
    # a candidate's own projector and an orthogonal one.
    rng = np.random.default_rng(62)
    for d1, d2 in DISTANCE_DIMS * 4:
        pad = distance_pad(d1 * d2)
        basis = haar_unitary(d1 * d2, rng)
        psi, phi = StateVector(d1, d2, basis[:, 0]), StateVector(d1, d2, basis[:, 1])
        assert 0.0 <= certify(pure_density(psi), psi).epsilon <= pad
        assert 1.0 - pad <= certify(pure_density(phi), psi).epsilon <= 1.0
        assert 0.0 <= certify(random_density(d1, d2, rng), psi).epsilon <= 1.0


#: Subsystem dimensions at which a candidate that is no eigenvector of its
#: state gets epsilon from the refinement, D = 25 to 64.
REFINE_DIMS = [(5, 5), (4, 8), (6, 6), (8, 8)]


def spectral_distance(sigma: DensityOperator, psi: StateVector) -> float:
    """The eigvalsh distance from the unit state to the unit candidate,
    formed as ``certify`` forms it."""
    unit = sigma.matrix / sigma.matrix.trace().real
    v = psi.amplitudes / math.sqrt(np.vdot(psi.amplitudes, psi.amplitudes).real)
    return min(0.5 * float(np.abs(np.linalg.eigvalsh(unit - v[:, None] * v.conj())).sum()), 1.0)


def refinement_cases(rng: np.random.Generator, d1: int, d2: int, near: float = 1e-12) -> list:
    """Seeded (state, candidate) pairs at d1 x d2: certified mixtures,
    product mixtures against a Hardy candidate, rank 1-3 states against a
    random vector, a candidate within ``near`` of a non-top eigenvector, and
    a pure state's projector against a vector 1e-8 to 1 away from it."""
    dim = d1 * d2
    cases = []
    for rank in (1, 2, 3):
        sigma = random_density(d1, d2, rng)
        vectors = np.linalg.eigh(sigma.matrix)[1]
        moved = vectors[:, rng.integers(dim - 1)] + near * random_state_vector(d1, d2, rng).amplitudes
        cases += [
            certified_mixture(rng, d1, d2),
            (random_separable(d1, d2, rng), random_hardy_state(rng, d1=d1, d2=d2)),
            (random_density(d1, d2, rng, rank=rank), random_state_vector(d1, d2, rng)),
            (sigma, StateVector(d1, d2, moved / np.linalg.norm(moved))),
        ]
    for step in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        psi = random_state_vector(d1, d2, rng)
        moved = psi.amplitudes + step * random_state_vector(d1, d2, rng).amplitudes
        cases.append((pure_density(psi), StateVector(d1, d2, moved / np.linalg.norm(moved))))
    # A vector 1e-9 from orthogonal to the projected one: epsilon rounds to 1.
    for _ in range(3):
        basis = haar_unitary(dim, rng)
        moved = basis[:, 1] + 1e-9 * basis[:, 0]
        cases.append((pure_density(StateVector(d1, d2, basis[:, 0])), StateVector(d1, d2, moved)))
    return cases


def rotated_candidate(psi: StateVector, angle: float, rng: np.random.Generator) -> StateVector:
    """``cos(angle) psi + sin(angle) phi`` for a random unit phi orthogonal
    to the unit psi: its projector is ``sin(angle)`` from psi's."""
    u = psi.amplitudes / np.linalg.norm(psi.amplitudes)
    phi = random_state_vector(psi.d1, psi.d2, rng).amplitudes
    phi = phi - np.vdot(u, phi) * u
    phi = phi / np.linalg.norm(phi)
    return StateVector(psi.d1, psi.d2, math.cos(angle) * u + math.sin(angle) * phi)


@pytest.mark.parametrize("d1, d2", REFINE_DIMS)
def test_refined_distance_is_the_spectral_one(d1, d2):
    # Temple's bracket on the one negative eigenvalue of unit - v v^H: its
    # upper end is within the gate's shift of the eigvalsh distance, and no
    # verdict moves.  A projector's difference with a nearby vector has one
    # negative eigenvalue of -1e-8 or less and D - 2 at round-off zero: a
    # Rayleigh quotient at one of those is no bracket on the first.
    rng = np.random.default_rng([63, d1, d2])
    pad = distance_pad(d1 * d2)
    cases = refinement_cases(rng, d1, d2) + refinement_cases(rng, d1, d2, near=1e-9)
    for sigma, psi in cases:
        report = certify(sigma, psi)
        spectral = spectral_distance(sigma, psi)
        assert 0.0 <= report.epsilon <= 1.0
        assert abs(report.epsilon - spectral) <= pad
        if report.pair is not None:
            margin = report.pair.a - 6.0 * spectral
            assert report.verdict is (
                Verdict.NONLOCAL_CERTIFIED if margin > CERTIFICATION_TOL else Verdict.INCONCLUSIVE
            )


@pytest.mark.parametrize("d1, d2", REFINE_DIMS)
def test_refinement_certifies_mixtures_with_one_solve(d1, d2, monkeypatch):
    # A certified mixture, a product mixture and a pure state's projector
    # against a nearby vector: one linear solve, and no spectrum.
    rng = np.random.default_rng([64, d1, d2])
    psi = random_state_vector(d1, d2, rng)
    moved = psi.amplitudes + 1e-3 * random_state_vector(d1, d2, rng).amplitudes
    cases = [
        certified_mixture(rng, d1, d2),
        (random_separable(d1, d2, rng), random_hardy_state(rng, d1=d1, d2=d2)),
        (pure_density(psi), StateVector(d1, d2, moved / np.linalg.norm(moved))),
    ]
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    spectra = count_spectra(monkeypatch)
    for sigma, psi in cases:
        certify(sigma, psi)
    assert spectra == []
    assert solves == [(d1 * d2, d1 * d2)] * len(cases)


@pytest.mark.parametrize("d1, d2", [(5, 5), (4, 8), (6, 6)])
def test_refinement_certifies_low_rank_states_far_from_the_candidate(d1, d2, monkeypatch):
    # A rank-2 or rank-3 state against a random candidate: one
    # Rayleigh-quotient step from the two-vector Ritz pair leaves a bracket
    # too wide to certify for about a third of them, and the second step
    # certifies every one, with no spectrum.
    rng = np.random.default_rng([67, d1, d2])
    cases = [
        (random_density(d1, d2, rng, rank=rank), random_state_vector(d1, d2, rng))
        for rank in (2, 3) * 10
    ]
    references = [spectral_distance(sigma, psi) for sigma, psi in cases]
    spectra = count_spectra(monkeypatch)
    values = [certify(sigma, psi).epsilon for sigma, psi in cases]
    assert spectra == []
    for value, reference in zip(values, references):
        assert abs(value - reference) <= distance_pad(d1 * d2)


@pytest.mark.parametrize("d1, d2", REFINE_DIMS)
def test_a_rayleigh_quotient_near_round_off_zero_is_refused(d1, d2, monkeypatch):
    # A pure state's projector against a candidate 1.5 delta from it, delta
    # = distance_pad(D): v is no eigenvector, and the negative eigenvalue,
    # -1.5 delta, lies within 2 delta of the D - 2 eigenvalues at round-off
    # zero.  A Rayleigh quotient that close to zero brackets nothing: the
    # refinement refuses it and the distance is one eigvalsh, bit for bit.
    # At 3 delta the bracket is certified and no spectrum is taken.
    rng = np.random.default_rng([66, d1, d2])
    delta = distance_pad(d1 * d2)
    psi = random_state_vector(d1, d2, rng)
    near, clear = (rotated_candidate(psi, angle, rng) for angle in (1.5 * delta, 3.0 * delta))
    sigma = pure_density(psi)
    expected = spectral_distance(sigma, near)
    spectra = count_spectra(monkeypatch)
    assert certify(sigma, near).epsilon == expected
    assert spectra == [(d1 * d2, d1 * d2)]
    assert abs(certify(sigma, clear).epsilon - 3.0 * delta) <= delta
    assert spectra == [(d1 * d2, d1 * d2)]


@pytest.mark.parametrize("d1, d2", REFINE_DIMS)
def test_singular_shift_falls_back_to_the_spectrum_bit_for_bit(d1, d2, monkeypatch):
    # A shift the solver finds exactly singular leaves the bracket
    # unproven, and epsilon is the eigvalsh distance of the same matrix.  A
    # candidate 1e-12 from an eigenvector takes the eigenvector test's
    # bracket instead, so the near candidates here are 1e-9 away.
    rng = np.random.default_rng([65, d1, d2])
    cases = refinement_cases(rng, d1, d2, near=1e-9)
    spectral = [spectral_distance(sigma, psi) for sigma, psi in cases]

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert [certify(sigma, psi).epsilon for sigma, psi in cases] == spectral


@pytest.mark.parametrize("fill", [0.0, math.nan])
def test_a_zero_or_nan_step_falls_back_to_the_spectrum_bit_for_bit(fill, monkeypatch):
    # A solve that returns a zero or a NaN vector leaves no Rayleigh
    # quotient: epsilon is the eigvalsh distance of the same matrix, and no
    # RuntimeWarning is raised on the way.
    sigma, psi = certified_mixture(np.random.default_rng(68), d1=8, d2=8)
    spectral = spectral_distance(sigma, psi)
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or np.full_like(b, fill))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert certify(sigma, psi).epsilon == spectral
    assert solves == [(64, 64)]


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


def test_certify_equal_weight_candidate_is_not_hardy(monkeypatch):
    calls = count_measurement_steps(monkeypatch)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    candidate = StateVector(2, 2, bell)
    report = certify(maximally_mixed(2, 2), candidate)
    assert report.verdict is Verdict.NOT_HARDY
    assert report.a == 0.0
    assert report.pair is None and report.table is None and report.behavior is None
    assert report.margin == pytest.approx(-6.0 * report.epsilon, abs=1e-15)
    # There is no pair to build observables from, read or not.
    assert sum(calls.values()) == 0


def test_not_hardy_margin_at_zero_distance_is_positive_zero():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    candidate = StateVector(2, 2, bell)
    report = certify(pure_density(candidate), candidate)
    assert report.verdict is Verdict.NOT_HARDY
    assert report.epsilon == 0.0
    assert report.margin == 0.0 and math.copysign(1.0, report.margin) == 1.0


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


# ----------------------------------------------------------- lazy behavior


@pytest.mark.parametrize("read", ["behavior", "table"])
def test_certify_measures_the_behavior_only_when_read(read, monkeypatch):
    calls = count_measurement_steps(monkeypatch)
    sigma, psi = certified_mixture(np.random.default_rng(49), d1=2, d2=3)
    report = certify(sigma, psi)
    assert report.verdict is Verdict.NONLOCAL_CERTIFIED
    assert sum(calls.values()) == 0
    getattr(report, read)
    assert calls == dict.fromkeys(MEASUREMENT_STEPS, 1)
    # Later reads of either return what the first read measured.
    behavior = report.behavior
    assert report.behavior is behavior
    assert report.table == HardyProbabilityTable.from_behavior(behavior.tables)
    assert calls == dict.fromkeys(MEASUREMENT_STEPS, 1)


#: The Schmidt gauge step and the public SVD-plus-gauge that runs it.
GAUGE_STEPS = ("_fix_gauge", "schmidt_decompose")


def count_gauge_steps(monkeypatch) -> Counter:
    """Calls of each gauge step, by every name the criterion's module and
    the states module look it up by."""
    calls: Counter = Counter()
    for module in (states, certification):
        for name in GAUGE_STEPS:
            if not hasattr(module, name):
                continue

            def counted(*args, _name=name, _step=getattr(module, name)):
                calls[_name] += 1
                return _step(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("read", ["behavior", "table"])
def test_verdicts_fix_no_gauge_until_the_behavior_is_read(read, monkeypatch):
    # A verdict reads only the Schmidt weights; the gauge-fixed vectors are
    # built from the same SVD on the first read of the behavior, once.
    sigma, psi = certified_mixture(np.random.default_rng(51), d1=3, d2=5)
    calls = count_gauge_steps(monkeypatch)
    report = certify(sigma, psi)
    assert report.verdict is Verdict.NONLOCAL_CERTIFIED
    noise_threshold(psi, maximally_mixed(3, 5))
    assert sum(calls.values()) == 0
    getattr(report, read)
    report.behavior, report.table
    assert calls == {"_fix_gauge": 1}


def equal_weight_state(rng: np.random.Generator, d1: int, d2: int) -> StateVector:
    """A maximally entangled state in Haar-random local bases: no pair."""
    rank = min(d1, d2)
    weights = np.full(rank, 1.0 / np.sqrt(rank))
    return assemble_pure_state(weights, haar_unitary(d1, rng), haar_unitary(d2, rng), d1, d2)


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 5), (8, 8)])
def test_lazy_behavior_is_the_eager_one_bit_for_bit(d1, d2):
    # The verdict's numbers and the lazy behavior are those of the eager
    # chain schmidt_decompose, find_hardy_pair, build_bases,
    # build_observables, behavior_from_state, for a certified, a noisy and
    # an equal-weight (NotHardy) candidate.  Below D = 25 epsilon is the
    # eigvalsh distance bit for bit; at 8x8 it comes from the refinement,
    # within the gate's shift of it, and the margin is read off it.
    rng = np.random.default_rng([50, d1, d2])
    refined = d1 * d2 >= certification._REFINE_MIN_DIM
    certified = certified_mixture(rng, d1=d1, d2=d2)
    noisy = (random_density(d1, d2, rng), random_hardy_state(rng, d1=d1, d2=d2))
    not_hardy = (random_density(d1, d2, rng), equal_weight_state(rng, d1, d2))
    for sigma, psi in (certified, noisy, not_hardy):
        report = certify(sigma, psi)
        sf = schmidt_decompose(psi)
        pair = find_hardy_pair(sf)
        # None of these candidates is an eigenvector of its state, so
        # epsilon is held to the eigvalsh distance to the unit candidate's
        # v v^H.
        spectral = spectral_distance(sigma, psi)
        epsilon = report.epsilon
        if refined:
            assert abs(epsilon - spectral) <= distance_pad(d1 * d2)
        else:
            assert epsilon == spectral
        assert report.pair == pair
        if pair is None:
            assert report.verdict is Verdict.NOT_HARDY
            assert (report.a, report.margin) == (0.0, -6.0 * epsilon)
            assert report.behavior is None and report.table is None
            with pytest.raises(NotHardyError):
                noise_threshold(psi, sigma)
            continue
        assert (report.a, report.margin) == (pair.a, pair.a - 6.0 * epsilon)
        assert noise_threshold(psi, sigma).a == pair.a
        obs = build_observables(build_bases(sf, pair), d1, d2)
        eager = behavior_from_state(sigma, obs)
        assert np.array_equal(report.behavior.tables, eager.tables)
        assert report.table == HardyProbabilityTable.from_behavior(eager.tables)


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


#: Subsystem dimensions at which the top eigenvector is first sought by
#: power steps, D = 25, 32 and 64.
POWER_DIMS = [(5, 5), (4, 8), (8, 8)]


class CountedProducts(np.ndarray):
    """A matrix view that counts the matrix-vector products taken on it."""

    def __matmul__(self, other):
        self.products += 1
        return np.ndarray.__matmul__(np.asarray(self), other)


def power_steps(matrix: np.ndarray) -> tuple[np.ndarray | None, int]:
    """``_top_eigenpair``'s vector on ``matrix`` when power steps proved it,
    None when it handed over to ``eigh``, and the power steps it took."""
    counted = matrix.view(CountedProducts)
    counted.products = 0
    vector, spectrum = certification._top_eigenpair(counted)
    return (None if spectrum is not None else np.asarray(vector)), counted.products


@pytest.mark.parametrize("d1, d2", POWER_DIMS)
def test_power_steps_find_a_dominant_top_eigenvector(d1, d2):
    # The vector matches eigh's top column up to phase, the gap is eigh's,
    # and the criterion against it is the criterion against eigh's column.
    rng = np.random.default_rng([69, d1, d2])
    pad = distance_pad(d1 * d2)
    for sigma in dominant_states(rng, d1, d2):
        values, vectors = np.linalg.eigh(sigma.matrix)
        candidate, gap = certification.top_eigenvector(sigma)
        assert np.array_equal(candidate.amplitudes, candidate_from_state(sigma).amplitudes)
        assert abs(np.vdot(vectors[:, -1], candidate.amplitudes)) ** 2 >= 1.0 - 1e-13
        assert abs(gap - (values[-1] - values[-2])) <= 1e-14
        report = certify(sigma, candidate)
        expected = certify(sigma, StateVector(d1, d2, vectors[:, -1]))
        assert report.verdict is expected.verdict
        assert abs(report.epsilon - expected.epsilon) <= pad
        assert abs(report.a - expected.a) <= pad


def declined_state(name: str, d1: int, d2: int) -> DensityOperator:
    """A state whose top eigenvector power steps leave to eigh."""
    dim = d1 * d2
    rng = np.random.default_rng([70, d1, d2])
    if name == "separable":  # top eigenvalue below half the trace
        return random_separable(d1, d2, rng)
    if name == "maximally-mixed":
        return maximally_mixed(d1, d2)
    if name == "purity-a-quarter":  # tr sigma^2 = 1/4 exactly
        return DensityOperator(d1, d2, np.diag([0.25] * 4 + [0.0] * (dim - 4)))
    if name == "orthogonal-start":
        # 0.55 on (|1> + |2>) / sqrt 2 and 0.45 on |0>: the steps start and
        # stay on |0>, an eigenvector with zero residual, not the top one.
        phi = np.zeros(dim, dtype=complex)
        phi[1:3] = math.sqrt(0.5)
        matrix = 0.55 * np.outer(phi, phi.conj())
        matrix[0, 0] = 0.45
        return DensityOperator(d1, d2, matrix)
    if name == "degenerate-pair":
        # 0.5 on |0> and on |D - 1>: 2 mu = t exactly on |0>, and eigh's top
        # column is |D - 1>.
        return DensityOperator(d1, d2, np.diag([0.5] + [0.0] * (dim - 2) + [0.5]))
    # "slow": top eigenvalues 0.51 and 0.48; "below-half": 0.49 and 0.06,
    # with 0.45 spread over the rest, so tr sigma^2 > t^2 / 4 at D = 25 and
    # 32 but not at 64.  Each in a Haar-random basis.
    top, rest = ((0.51, 0.48), 0.01) if name == "slow" else ((0.49, 0.06), 0.45)
    values = np.full(dim, rest / (dim - 2))
    values[:2] = top
    basis = haar_unitary(dim, rng)
    return DensityOperator(d1, d2, (basis * values) @ basis.conj().T)


#: The power steps each declined state may take before eigh runs: none when
#: tr sigma^2 <= t^2 / 4 proves no eigenvalue exceeds t / 2, one for a zero
#: residual at mu <= t / 2, for the slow state the two whose residuals show
#: it cannot converge within the step cap, with one step to spare, and for
#: the below-half state the two after which mu + |r| has settled at or below
#: t / 2 (14 and 15 of them, at 4x8 and 5x5, before that stop).
DECLINED_STEPS = {
    "separable": 0,
    "maximally-mixed": 0,
    "purity-a-quarter": 0,
    "orthogonal-start": 1,
    "degenerate-pair": 1,
    "slow": 3,
    "below-half": 2,
}


@pytest.mark.parametrize("name", list(DECLINED_STEPS))
@pytest.mark.parametrize("d1, d2", POWER_DIMS)
def test_declined_states_get_eighs_column_bit_for_bit(d1, d2, name):
    sigma = declined_state(name, d1, d2)
    values, vectors = np.linalg.eigh(sigma.matrix)
    vector, steps = power_steps(sigma.matrix)
    assert vector is None
    assert steps <= DECLINED_STEPS[name]
    assert np.array_equal(candidate_from_state(sigma).amplitudes, vectors[:, -1])
    candidate, gap = certification.top_eigenvector(sigma)
    assert np.array_equal(candidate.amplitudes, vectors[:, -1])
    assert gap == values[-1] - values[-2]


def test_power_steps_are_taken_from_d_25_on():
    # Below D = 25 the top eigenvector is eigh's column, dominant or not.
    rng = np.random.default_rng(71)
    for d1, d2 in [(2, 2), (3, 3), (4, 4), (3, 8)]:
        for sigma in dominant_states(rng, d1, d2):
            assert power_steps(sigma.matrix) == (None, 0)
            vector = np.linalg.eigh(sigma.matrix)[1][:, -1]
            assert np.array_equal(candidate_from_state(sigma).amplitudes, vector)


def test_top_eigenvector_on_random_spectra_from_d_25_on():
    # Seeded spectra, lambda_1 uniform in [0.3, 1), lambda_2 below both it
    # and the rest of the trace, the others spread at random, in a
    # Haar-random basis: an accepted vector is eigh's top column up to phase
    # with eigh's gap, and a declined state gets eigh's column and gap bit
    # for bit.
    taken = Counter()
    for k, (d1, d2) in enumerate([(5, 5), (4, 7), (4, 8), (6, 6), (5, 8), (7, 7), (8, 8)] * 6):
        rng = np.random.default_rng([73, k])
        dim = d1 * d2
        top = float(rng.uniform(0.3, 1.0))
        second = float(rng.uniform(0.0, min(top, 1.0 - top)))
        values = np.concatenate([[top, second], rng.dirichlet(np.ones(dim - 2)) * (1.0 - top - second)])
        basis = haar_unitary(dim, rng)
        sigma = DensityOperator(d1, d2, (basis * values) @ basis.conj().T)
        expected_values, expected_vectors = np.linalg.eigh(sigma.matrix)
        expected_gap = expected_values[-1] - expected_values[-2]
        vector, _ = power_steps(sigma.matrix)
        candidate, gap = certification.top_eigenvector(sigma)
        assert np.array_equal(candidate.amplitudes, candidate_from_state(sigma).amplitudes)
        if vector is None:
            assert np.array_equal(candidate.amplitudes, expected_vectors[:, -1])
            assert gap == expected_gap
        else:
            assert np.array_equal(candidate.amplitudes, vector)
            assert abs(np.vdot(expected_vectors[:, -1], vector)) ** 2 >= 1.0 - 1e-13
            assert abs(gap - expected_gap) <= 1e-14
        taken[vector is None] += 1
    assert taken[True] > 5 and taken[False] > 5


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


def test_noise_threshold_refuses_a_not_hardy_candidate_before_any_distance(monkeypatch):
    def no_distance(*args):
        raise AssertionError("a trace distance was taken")

    monkeypatch.setattr(certification, "_candidate_distance", no_distance)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rng = np.random.default_rng(31)
    for noise in (maximally_mixed(2, 2), random_density(2, 2, rng)):
        with pytest.raises(
            NotHardyError, match="^candidate state has no admissible pair of distinct Schmidt weights$"
        ):
            noise_threshold(StateVector(2, 2, bell), noise)


def test_noise_threshold_takes_one_svd(monkeypatch):
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    rng = np.random.default_rng(32)
    noise_threshold(fixture_state(), maximally_mixed(2, 2))
    assert len(calls) == 1
    noise_threshold(random_hardy_state(rng, d1=3, d2=3), random_density(3, 3, rng))
    assert len(calls) == 2
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    with pytest.raises(NotHardyError):
        noise_threshold(StateVector(2, 2, bell), maximally_mixed(2, 2))
    assert len(calls) == 3


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


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 3), (3, 5), (4, 4), (8, 8)])
def test_noise_threshold_is_certify_solved_for_p(d1, d2):
    # The threshold is the criterion of certify(noise, psi) solved for the
    # mixing weight: the same epsilon and a, bit for bit, and the same test.
    rng = np.random.default_rng([52, d1, d2])
    _, psi = certified_mixture(rng, d1=d1, d2=d2)
    product = np.kron(random_projector(d1, rng, rank=1), random_projector(d2, rng, rank=1))
    noises = [
        maximally_mixed(d1, d2),
        pure_density(psi),
        validate_density(product, d1, d2),
        random_density(d1, d2, rng),
    ]
    for noise in noises:
        report, criterion = noise_threshold(psi, noise), certify(noise, psi)
        eps, a = criterion.epsilon, criterion.a
        assert report.d_noise == eps and report.a == a
        assert report.p_star == (0.0 if 6.0 * eps <= a else 1.0 - a / (6.0 * eps))
    not_hardy = equal_weight_state(rng, d1, d2)
    with pytest.raises(NotHardyError, match="^candidate state has no admissible pair"):
        noise_threshold(not_hardy, maximally_mixed(d1, d2))
    with pytest.raises(DimensionMismatchError, match=rf"^candidate dims \({d1}, {d2}\) .* noise dims"):
        noise_threshold(psi, maximally_mixed(d1 + 1, d2))


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

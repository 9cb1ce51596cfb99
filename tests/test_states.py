import dataclasses

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    Verdict,
    behavior_from_state,
    build_bases,
    build_observables,
    certify,
    find_hardy_pair,
    hardy_parameter_a,
    maximally_mixed,
    noise_threshold,
    pure_density,
    schmidt_decompose,
    validate_density,
)
from hardycert.errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
)
from hardycert.states import STATE_TOL, SchmidtForm
from support import (
    assemble_pure_state,
    haar_unitary,
    random_density,
    random_single_density,
    random_state_vector,
    random_weights,
)


def fixture_state() -> StateVector:
    """sqrt(0.2)|00> + sqrt(0.8)|11>."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.2)
    amps[3] = np.sqrt(0.8)
    return StateVector(d1=2, d2=2, amplitudes=amps)


# ---------------------------------------------------------------- state types


def test_state_vector_validates_norm():
    with pytest.raises(InvalidStateError):
        StateVector(d1=2, d2=2, amplitudes=np.array([1.0, 1.0, 0.0, 0.0]))


def test_state_vector_validates_size():
    with pytest.raises(DimensionMismatchError):
        StateVector(d1=2, d2=3, amplitudes=np.zeros(4))


def test_state_vector_projector():
    psi = fixture_state()
    projector = psi.projector()
    assert abs(np.trace(projector).real - 1.0) < 1e-12
    assert np.array_equal(projector, projector.conj().T)
    assert np.max(np.abs(projector @ projector - projector)) < 1e-12


def test_state_vector_is_immutable():
    psi = fixture_state()
    with pytest.raises((ValueError, RuntimeError)):
        psi.amplitudes[0] = 1.0


def test_density_operator_accepts_white_noise():
    rho = maximally_mixed(2, 2)
    assert np.allclose(rho.matrix, np.eye(4) / 4.0)
    assert rho.dim == 4


def test_density_operator_rejects_bad_matrices():
    with pytest.raises(NotHermitianError):
        DensityOperator(d1=2, d2=2, matrix=np.diag([1.0, 0, 0, 0]) + 1e-3 * np.eye(4, k=1))
    with pytest.raises(NotUnitTraceError):
        DensityOperator(d1=2, d2=2, matrix=np.eye(4) / 2.0)
    bad = np.diag([0.6, 0.5, -0.1, 0.0])
    with pytest.raises(NotPositiveError):
        DensityOperator(d1=2, d2=2, matrix=bad)


def test_density_operator_keeps_its_spectrum():
    rng = np.random.default_rng(21)
    rho = validate_density(random_single_density(6, rng), 2, 3)
    assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(rho.matrix))
    with pytest.raises(ValueError):
        rho.eigenvalues[0] = 0.0
    assert "eigenvalues" not in repr(rho)
    flags = {f.name: (f.init, f.repr, f.compare) for f in dataclasses.fields(DensityOperator)}
    assert flags["eigenvalues"] == (False, False, False)


def test_validate_density_accepts_pure_projector():
    rho = validate_density(fixture_state().projector(), 2, 2)
    assert np.linalg.matrix_rank(rho.matrix, tol=1e-9) == 1


def test_validate_density_clips_round_off_negatives():
    eps = 5e-10
    rho = validate_density(np.diag([-eps, 0.3, 0.3, 0.4 + eps]), 2, 2)
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-15
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-15


def test_validate_density_tolerance_is_honored():
    matrix = np.diag([-1e-7, 0.3, 0.3, 0.4 + 1e-7])
    with pytest.raises(NotPositiveError):
        validate_density(matrix, 2, 2, tol=1e-9)
    repaired = validate_density(matrix, 2, 2, tol=1e-6)
    assert np.linalg.eigvalsh(repaired.matrix)[0] >= -1e-15


def test_validate_density_reports_each_failure():
    with pytest.raises(NotHermitianError):
        validate_density(np.eye(4) / 4.0 + 1e-3 * np.eye(4, k=1), 2, 2)
    with pytest.raises(NotUnitTraceError):
        validate_density(np.eye(4) / 3.0, 2, 2)
    with pytest.raises(DimensionMismatchError):
        validate_density(np.eye(4) / 4.0, 2, 3)
    # A tol of 1 or more admits traces of 0 and -1 as "1 within tol", and
    # renormalising them would divide by a zero trace.
    for matrix, tol in ((np.zeros((4, 4)), 1.0), (-np.eye(4) / 4.0, 2.0)):
        with pytest.raises(NotUnitTraceError, match="is not positive"):
            validate_density(matrix, 2, 2, tol=tol)


def norm_edge_amplitudes(norm: float) -> np.ndarray:
    """The fixture state's amplitudes, scaled to the given norm."""
    return fixture_state().amplitudes * norm


def test_state_vector_checks_the_squared_norm():
    # Squared norm 1 + 1.8e-9: downstream it would fail as the projector's
    # trace or the squared Schmidt weights, so it is refused here.
    with pytest.raises(InvalidStateError, match="squared norm"):
        StateVector(d1=2, d2=2, amplitudes=norm_edge_amplitudes(1.0 + 9e-10))


def test_accepted_state_vector_is_accepted_downstream():
    psi = StateVector(d1=2, d2=2, amplitudes=norm_edge_amplitudes(1.0 + 4.5e-10))
    assert schmidt_decompose(psi).rank == 2
    report = certify(maximally_mixed(2, 2), psi)
    assert report.epsilon == pytest.approx(0.75, abs=1e-8)
    threshold = noise_threshold(psi, maximally_mixed(2, 2))
    assert threshold.d_noise == pytest.approx(0.75, abs=1e-8)


# ---------------------------------------------------- the validation gate

#: One input per invariant: (matrix, d1, d2, error raised at STATE_TOL).
BAD_DENSITIES = {
    "non-positive-dims": (np.zeros((0, 0)), 0, 1, DimensionMismatchError),
    "shape-off-dims": (np.eye(4) / 4.0, 2, 3, DimensionMismatchError),
    "non-finite": (np.diag([np.nan, 0.25, 0.25, 0.25]), 2, 2, InvalidStateError),
    "non-hermitian": (np.eye(4) / 4.0 + 1e-3 * np.eye(4, k=1), 2, 2, NotHermitianError),
    "trace-off-1": (np.eye(4) / 3.0, 2, 2, NotUnitTraceError),
    "negative-eigenvalue": (np.diag([0.6, 0.5, -0.1, 0.0]), 2, 2, NotPositiveError),
}


@pytest.mark.parametrize("case", list(BAD_DENSITIES))
def test_gate_raises_alike_for_constructor_and_validate(case):
    matrix, d1, d2, expected = BAD_DENSITIES[case]
    with pytest.raises(expected) as direct:
        DensityOperator(d1=d1, d2=d2, matrix=matrix)
    with pytest.raises(expected) as validated:
        validate_density(matrix, d1, d2, tol=STATE_TOL)
    assert type(direct.value) is type(validated.value) is expected
    assert str(direct.value) == str(validated.value)


# ---------------------------------------------------- schmidt decomposition


def test_schmidt_product_state():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0  # |0>|1>
    sf = schmidt_decompose(StateVector(d1=2, d2=2, amplitudes=amps))
    assert sf.rank == 1
    assert np.allclose(sf.weights, [1.0], atol=1e-12)


def test_schmidt_bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / np.sqrt(2.0)
    sf = schmidt_decompose(StateVector(d1=2, d2=2, amplitudes=amps))
    assert np.allclose(sf.weights, [1.0 / np.sqrt(2.0)] * 2, atol=1e-12)


def test_schmidt_fixture_weights_and_bases():
    sf = schmidt_decompose(fixture_state())
    assert np.allclose(sf.weights, [np.sqrt(0.8), np.sqrt(0.2)], atol=1e-12)
    # Diagonal fixture: the Schmidt vectors are computational kets, and the
    # Schmidt phase gauge makes them real positive exactly.
    assert np.allclose(sf.left_basis[:, 0], [0.0, 1.0], atol=1e-12)
    assert np.allclose(sf.left_basis[:, 1], [1.0, 0.0], atol=1e-12)
    assert np.allclose(sf.right_basis, sf.left_basis, atol=1e-12)


def test_schmidt_weights_match_reduced_spectra():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(2, 7))
        psi = random_state_vector(d1, d2, rng)
        sf = schmidt_decompose(psi)
        blocks = psi.projector().reshape(d1, d2, d1, d2)
        reduced = {1: np.einsum("ijkj->ik", blocks), 2: np.einsum("ijil->jl", blocks)}
        for keep, dim in ((1, d1), (2, d2)):
            spectrum = np.linalg.eigvalsh(reduced[keep])[::-1]
            padded = np.zeros(dim)
            padded[: sf.rank] = sf.weights**2
            assert np.max(np.abs(np.sort(padded)[::-1] - np.clip(spectrum, 0.0, None))) < 1e-9


def test_schmidt_reconstruction_fidelity():
    rng = np.random.default_rng(22)
    for _ in range(30):
        d1 = int(rng.integers(2, 6))
        d2 = int(rng.integers(2, 6))
        psi = random_state_vector(d1, d2, rng)
        sf = schmidt_decompose(psi)
        overlap = abs(np.vdot(sf.reconstruct(), psi.amplitudes)) ** 2
        assert overlap > 1.0 - 1e-9


def test_schmidt_bases_orthonormal():
    rng = np.random.default_rng(23)
    for _ in range(20):
        psi = random_state_vector(4, 3, rng)
        sf = schmidt_decompose(psi)
        for basis in (sf.left_basis, sf.right_basis):
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(sf.rank))) < 1e-10


def _eigen_reference_schmidt(psi: StateVector) -> SchmidtForm:
    """The Schmidt form by the eigen route, in the documented gauge.

    Eigendecomposes C C^dagger, rotates each eigenvector so that its
    largest-magnitude component is real and positive, and takes each partner
    as C^T conj(alpha) / weight.  Squared weights at or below 1e-11 are
    dropped, as this route cannot resolve them.
    """
    coeff = psi.coefficient_matrix()
    values, vectors = np.linalg.eigh(coeff @ coeff.conj().T)
    weights, left, right = [], [], []
    for idx in np.argsort(values, kind="stable")[::-1]:
        if values[idx] <= 1e-11:
            continue
        weight = float(np.sqrt(values[idx]))
        alpha = vectors[:, idx]
        pivot = alpha[int(np.argmax(np.abs(alpha)))]
        alpha = alpha * (pivot.conjugate() / abs(pivot))
        beta = coeff.T @ alpha.conj() / weight
        weights.append(weight)
        left.append(alpha)
        right.append(beta / np.linalg.norm(beta))
    return SchmidtForm(
        weights=np.array(weights),
        left_basis=np.column_stack(left),
        right_basis=np.column_stack(right),
    )


def _spaced_weights(rank: int, rng: np.random.Generator) -> np.ndarray:
    """Descending weights, squares summing to 1, neighbours at least 0.03 apart."""
    raw = np.arange(rank, 0, -1) + rng.uniform(0.0, 0.5, size=rank)
    return raw / np.linalg.norm(raw)


@pytest.mark.parametrize("d1, d2", [(1, 3), (2, 2), (2, 3), (3, 5), (5, 3), (4, 4), (8, 8)])
def test_schmidt_gauge_matches_eigen_reference(d1, d2):
    # The gauge fixes the observables, and so a mixed state's behavior on them.
    rng = np.random.default_rng(27 + 10 * d1 + d2)
    rank = min(d1, d2)
    psi = assemble_pure_state(
        _spaced_weights(rank, rng), haar_unitary(d1, rng), haar_unitary(d2, rng), d1, d2
    )
    sf = schmidt_decompose(psi)
    ref = _eigen_reference_schmidt(psi)
    assert sf.rank == ref.rank == rank
    assert np.max(np.abs(sf.weights - ref.weights)) <= 1e-10
    assert np.max(np.abs(sf.left_basis - ref.left_basis)) <= 1e-10
    assert np.max(np.abs(sf.right_basis - ref.right_basis)) <= 1e-10
    pivots = sf.left_basis[np.argmax(np.abs(sf.left_basis), axis=0), np.arange(rank)]
    assert np.all(np.abs(pivots.imag) <= 1e-15)
    assert np.all(pivots.real > 0.0)

    pair = find_hardy_pair(sf)
    if rank == 1:
        assert pair is None
        return
    sigma = random_density(d1, d2, rng)
    tables = [
        behavior_from_state(sigma, build_observables(build_bases(form, pair), d1, d2)).tables
        for form in (sf, ref)
    ]
    assert np.max(np.abs(tables[0] - tables[1])) <= 1e-12
    # A global phase on the candidate moves no number of the report.
    phased = StateVector(d1=d1, d2=d2, amplitudes=np.exp(2.1j) * psi.amplitudes)
    behaviors = [certify(sigma, cand).behavior.tables for cand in (psi, phased)]
    assert np.max(np.abs(behaviors[0] - behaviors[1])) <= 1e-12


@pytest.mark.parametrize("p1", [1e-6, 3e-6])
def test_schmidt_keeps_small_weights(p1):
    rng = np.random.default_rng(28)
    large = np.array([0.8, 0.5, 0.3])
    weights = np.append(large / np.linalg.norm(large) * np.sqrt(1.0 - p1**2), p1)
    for _ in range(10):
        psi = assemble_pure_state(weights, haar_unitary(4, rng), haar_unitary(4, rng), 4, 4)
        sf = schmidt_decompose(psi)
        assert sf.rank == 4
        assert abs(sf.weights[-1] - p1) <= 1e-9 * p1


def test_small_weight_pair_is_found_and_inconclusive():
    p1 = 1e-6
    p2 = np.sqrt(1.0 - 1e-12)
    rng = np.random.default_rng(29)
    psi = assemble_pure_state(np.array([p2, p1]), haar_unitary(2, rng), haar_unitary(2, rng), 2, 2)
    pair = find_hardy_pair(schmidt_decompose(psi))
    assert pair is not None
    assert pair.p1 == pytest.approx(p1, rel=1e-9)
    assert pair.p2 == pytest.approx(p2, abs=1e-12)
    # a ~ 1e-12 is below the certification tolerance, but the pair exists.
    assert certify(pure_density(psi), psi).verdict is Verdict.INCONCLUSIVE


def test_schmidt_form_rejects_ascending_weights():
    with pytest.raises(InvalidStateError):
        SchmidtForm(
            weights=np.array([0.4472135954999579, 0.8944271909999159]),
            left_basis=np.eye(2),
            right_basis=np.eye(2),
        )


# ------------------------------------------------------------ pair selection


def test_find_hardy_pair_none_for_equal_weights():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / np.sqrt(2.0)
    sf = schmidt_decompose(StateVector(d1=2, d2=2, amplitudes=amps))
    assert find_hardy_pair(sf) is None


def test_find_hardy_pair_none_for_product_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    sf = schmidt_decompose(StateVector(d1=2, d2=2, amplitudes=amps))
    assert find_hardy_pair(sf) is None


def test_find_hardy_pair_two_weights():
    pair = find_hardy_pair(schmidt_decompose(fixture_state()))
    assert pair is not None
    assert pair.p1 == pytest.approx(np.sqrt(0.2), abs=1e-12)
    assert pair.p2 == pytest.approx(np.sqrt(0.8), abs=1e-12)
    assert pair.index_large == 0 and pair.index_small == 1
    assert pair.a == pytest.approx(hardy_parameter_a(pair.p1, pair.p2), abs=1e-15)


def test_find_hardy_pair_maximizes_parameter():
    # Three weights: enumerate the closed form by hand and check the argmax.
    weights = np.sqrt(np.array([0.5, 0.3, 0.2]))
    rng = np.random.default_rng(24)
    psi = assemble_pure_state(weights, haar_unitary(3, rng), haar_unitary(4, rng), 3, 4)
    pair = find_hardy_pair(schmidt_decompose(psi))
    assert pair is not None
    values = {
        (i, j): hardy_parameter_a(float(weights[i]), float(weights[j]))
        for j in range(3)
        for i in range(j + 1, 3)
    }
    best = max(values.values())
    assert pair.a == pytest.approx(best, abs=1e-9)
    assert pair.p1 == pytest.approx(np.sqrt(0.2), abs=1e-9)
    assert pair.p2 == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_find_hardy_pair_delta_screens_close_pairs():
    weights = np.sqrt(np.array([0.5, 0.3, 0.2]))
    rng = np.random.default_rng(25)
    psi = assemble_pure_state(weights, haar_unitary(3, rng), haar_unitary(3, rng), 3, 3)
    sf = schmidt_decompose(psi)
    # The widest gap is sqrt(0.5) - sqrt(0.2) ~ 0.260; past that, nothing is left.
    assert find_hardy_pair(sf, delta=0.26) is None
    assert find_hardy_pair(sf, delta=0.25) is not None


def test_find_hardy_pair_delta_screens_tiny_weights():
    tiny = 1e-9
    big = np.sqrt(1.0 - tiny**2)
    sf = SchmidtForm(
        weights=np.array([big, tiny]),
        left_basis=np.eye(2),
        right_basis=np.eye(2),
    )
    assert find_hardy_pair(sf, delta=1e-8) is None
    assert find_hardy_pair(sf, delta=1e-10) is not None


def test_pair_values_invariant_under_global_phase_and_relabeling():
    rng = np.random.default_rng(26)
    weights = random_weights(3, rng)
    u1 = haar_unitary(4, rng)
    u2 = haar_unitary(3, rng)
    psi = assemble_pure_state(weights, u1, u2, 4, 3)
    pair = find_hardy_pair(schmidt_decompose(psi))

    phased = StateVector(d1=4, d2=3, amplitudes=np.exp(1.37j) * psi.amplitudes)
    pair_phased = find_hardy_pair(schmidt_decompose(phased))

    # Hand the weights to different basis columns; the state changes but the
    # weight multiset (and so the selected pair's numbers) does not.
    perm = [2, 0, 1]
    relabeled = assemble_pure_state(weights, u1[:, perm], u2[:, perm], 4, 3)
    pair_relabeled = find_hardy_pair(schmidt_decompose(relabeled))

    for other in (pair_phased, pair_relabeled):
        assert other is not None
        assert other.p1 == pytest.approx(pair.p1, abs=1e-10)
        assert other.p2 == pytest.approx(pair.p2, abs=1e-10)
        assert other.a == pytest.approx(pair.a, abs=1e-10)


def test_pure_density_matches_projector():
    psi = fixture_state()
    assert np.max(np.abs(pure_density(psi).matrix - psi.projector())) < 1e-15

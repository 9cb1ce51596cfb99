import dataclasses

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    find_hardy_pair,
    hardy_parameter_a,
    maximally_mixed,
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
from hardycert.states import SchmidtForm
from support import (
    assemble_pure_state,
    haar_unitary,
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
    # eigensolver's phase convention makes them real positive exactly.
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

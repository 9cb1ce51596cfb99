import numpy as np
import pytest

from hardycert.errors import NonHermitianError, NonSquareError
from hardycert.linalg import _fix_phases, hermitian_eig, trace_norm
from support import random_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_hermitian_eig_pauli_x():
    system = hermitian_eig(PAULI_X)
    assert np.allclose(system.eigenvalues, [-1.0, 1.0], atol=1e-12)
    # Phase convention: the first of the equal-magnitude components is made
    # real and positive, which pins both eigenvectors completely.
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(system.eigenvectors[:, 0], [inv_sqrt2, -inv_sqrt2], atol=1e-12)
    assert np.allclose(system.eigenvectors[:, 1], [inv_sqrt2, inv_sqrt2], atol=1e-12)


def test_hermitian_eig_identity():
    system = hermitian_eig(np.eye(3))
    assert np.allclose(system.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)


def test_hermitian_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8, 16):
        for _ in range(10):
            m = random_hermitian(dim, rng)
            system = hermitian_eig(m)
            vectors = system.eigenvectors
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
            rebuilt = (vectors * system.eigenvalues) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-9
            assert np.all(np.diff(system.eigenvalues) >= -1e-12)


def test_hermitian_eig_phase_convention():
    rng = np.random.default_rng(12)
    for _ in range(50):
        system = hermitian_eig(random_hermitian(5, rng))
        for k in range(5):
            column = system.eigenvectors[:, k]
            pivot = column[int(np.argmax(np.abs(column)))]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0.0


def _fix_phases_by_column(vectors: np.ndarray) -> np.ndarray:
    fixed = np.array(vectors)
    for k in range(fixed.shape[1]):
        column = fixed[:, k]
        pivot = column[int(np.argmax(np.abs(column)))]
        fixed[:, k] = column * (pivot.conjugate() / abs(pivot))
    return fixed


def test_fix_phases_matches_column_loop():
    rng = np.random.default_rng(13)
    for dim in (2, 9, 64):
        _, vectors = np.linalg.eigh(random_hermitian(dim, rng))
        fixed = _fix_phases(vectors)
        assert np.max(np.abs(fixed - _fix_phases_by_column(vectors))) <= 1e-15
        pivots = fixed[np.argmax(np.abs(fixed), axis=0), np.arange(dim)]
        assert np.all(np.abs(pivots.imag) <= 1e-15)
        assert np.all(pivots.real > 0.0)
    assert hermitian_eig(np.zeros((0, 0))).eigenvectors.shape == (0, 0)


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(NonSquareError):
        hermitian_eig(np.ones((2, 3)))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # ... but tolerates a defect inside the tolerance.
    nearly = np.eye(2) + np.array([[0.0, 1e-12], [0.0, 0.0]])
    hermitian_eig(nearly)


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_rank_one_update():
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.2)
    amps[3] = np.sqrt(0.8)
    m = np.eye(4) / 4.0 - np.outer(amps, amps.conj())
    assert trace_norm(m) == pytest.approx(1.5, abs=1e-12)


def test_trace_norm_axioms():
    rng = np.random.default_rng(16)
    for _ in range(25):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        scale = float(rng.normal())
        assert trace_norm(scale * a) == pytest.approx(abs(scale) * trace_norm(a), abs=1e-10)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]]))

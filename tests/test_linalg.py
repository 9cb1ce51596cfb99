import numpy as np
import pytest

from hardycert.errors import NonHermitianError, NonSquareError
from hardycert.linalg import DEFAULT_HERMITICITY_TOL, _hermitian_part, trace_norm
from support import random_hermitian


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
    # ... but tolerates a defect inside the tolerance.
    nearly = np.eye(2) + np.array([[0.0, 1e-12], [0.0, 0.0]])
    assert trace_norm(nearly) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_rejects_non_square():
    with pytest.raises(NonSquareError):
        trace_norm(np.ones((2, 3)))


def test_hermitian_eig_rejects_non_hermitian():
    # The Hermiticity gate in front of every eigen solve in linalg.
    with pytest.raises(NonHermitianError):
        _hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]), DEFAULT_HERMITICITY_TOL)
    # ... but tolerates a defect inside the tolerance, returning the
    # Hermitian part.
    nearly = np.eye(2) + np.array([[0.0, 1e-12], [0.0, 0.0]])
    sym = _hermitian_part(nearly, DEFAULT_HERMITICITY_TOL)
    assert np.array_equal(sym, sym.conj().T)
    assert np.max(np.abs(sym - nearly)) <= 1e-12

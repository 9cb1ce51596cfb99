import numpy as np
import pytest

from hardycert import DensityOperator, maximally_mixed, trace_distance, validate_density
from hardycert.errors import NotHermitianError
from hardycert.linalg import hermiticity_defect
from hardycert.states import STATE_TOL, _gate


def test_hermitian_eig_rejects_non_hermitian(monkeypatch):
    # The Hermiticity gate in front of every eigen solve on a density matrix.
    with pytest.raises(NotHermitianError):
        _gate(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2, STATE_TOL)
    # ... but tolerates a defect inside the tolerance, returning the
    # Hermitian part.  It is positive definite, so the Cholesky proof
    # suffices and no spectrum is solved.
    nearly = np.eye(2) / 2.0 + np.array([[0.0, 1e-12], [0.0, 0.0]])
    assert hermiticity_defect(nearly) == pytest.approx(1e-12, rel=1e-9)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
    sym = _gate(nearly, 1, 2, STATE_TOL)
    assert solved == []
    assert np.array_equal(sym, sym.conj().T)
    assert np.max(np.abs(sym - nearly)) <= 1e-12
    assert np.trace(sym).real == 1.0
    # A singular state takes the eigvalsh path and is kept as it is: its
    # spectrum is nonnegative.
    singular = np.diag([1.0, 0.0])
    sym = _gate(singular, 1, 2, STATE_TOL)
    assert len(solved) == 1
    assert np.array_equal(sym, singular)
    assert np.array_equal(eigvalsh(sym), [0.0, 1.0])


def test_trace_norm_rejects_non_hermitian():
    # Trace distances are taken on validated states only, so a non-Hermitian
    # operand is refused on the way in, by the constructor and by repair.
    matrix = np.array([[0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        DensityOperator(d1=1, d2=2, matrix=matrix)
    with pytest.raises(NotHermitianError):
        validate_density(matrix, 1, 2)
    # ... but a defect inside the tolerance is accepted, keeping an exactly
    # Hermitian matrix, and measured like the matrix it came from.
    nearly = np.eye(2) / 2.0 + np.array([[0.0, 1e-12], [0.0, 0.0]])
    for rho in (DensityOperator(d1=1, d2=2, matrix=nearly), validate_density(nearly, 1, 2)):
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.max(np.abs(rho.matrix - nearly)) <= 1e-12
        assert trace_distance(rho, maximally_mixed(1, 2)) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(rho, rho) == 0.0

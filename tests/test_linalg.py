import numpy as np
import pytest

from hardycert import DensityOperator, maximally_mixed, trace_distance, validate_density
from hardycert.errors import InvalidStateError, NotHermitianError
from hardycert.linalg import hermitian_part
from hardycert.states import STATE_TOL, _gate


def test_hermitian_eig_rejects_non_hermitian(monkeypatch):
    # The Hermiticity gate in front of every eigen solve on a density matrix.
    with pytest.raises(NotHermitianError):
        _gate(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2, STATE_TOL)
    # ... but tolerates a defect inside the tolerance, returning the
    # Hermitian part.  It is positive definite, so the Cholesky proof
    # suffices and no spectrum is solved.
    nearly = np.eye(2) / 2.0 + np.array([[0.0, 1e-12], [0.0, 0.0]])
    assert hermitian_part(nearly)[1] == pytest.approx(1e-12, rel=1e-9)
    solved = []
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append("eigvalsh") or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append("eigh") or eigh(a))
    sym = _gate(nearly, 1, 2, STATE_TOL)
    assert solved == []
    assert np.array_equal(sym, sym.conj().T)
    assert np.max(np.abs(sym - nearly)) <= 1e-12
    assert np.trace(sym).real == 1.0
    # A singular state takes the spectral path, one eigh, and is kept as it
    # is: its spectrum is nonnegative.
    singular = np.diag([1.0, 0.0])
    sym = _gate(singular, 1, 2, STATE_TOL)
    assert solved == ["eigh"]
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


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 2), (3, 5), (8, 8)])
def test_gate_stores_the_hermitian_part_of_one_adjoint(d1, d2):
    # Within-tolerance non-Hermitian inputs, some of whose mirrored entries
    # carry signed zeros: the stored matrix is (m + m^H) / 2 and the defect
    # max|m - m^H|, bit for bit, signs of zero included.  The gate passes at
    # a tolerance equal to the defect and refuses one ulp below it.
    rng = np.random.default_rng([60, d1, d2])
    dim = d1 * d2
    signed_zeros = 0
    for _ in range(5):
        ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = ginibre @ ginibre.conj().T
        m = 0.1 * rho / np.trace(rho).real + 0.9 * np.eye(dim) / dim
        noise = 1e-11 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        noise.real[np.diag_indices(dim)] = 0.0
        m = m + noise
        for i, j in zip(*np.nonzero(np.triu(rng.random((dim, dim)) < 0.3, k=1))):
            m.real[i, j] = m.real[j, i] = -0.0
            m.imag[i, j], m.imag[j, i] = -0.0, 0.0
        sym = (m + m.conj().T) / 2
        defect = float(np.max(np.abs(m - m.conj().T)))
        signed_zeros += int(np.signbit(sym.real[sym.real == 0.0]).sum())
        part, measured = hermitian_part(m)
        assert part.tobytes() == sym.tobytes() and measured == defect
        assert hermitian_part(m)[1] == defect
        assert _gate(m, d1, d2, STATE_TOL).tobytes() == sym.tobytes()
        assert _gate(m, d1, d2, defect).tobytes() == sym.tobytes()
        with pytest.raises(NotHermitianError, match=f"defect {defect:.3e} exceeds"):
            _gate(m, d1, d2, np.nextafter(defect, 0.0))
    assert dim == 1 or signed_zeros > 0


def test_overflowing_entries_are_refused_without_a_warning():
    # Finite entries whose Hermitian part, or whose defect, overflows: the
    # gate refuses them with its own error and numpy warns of nothing (the
    # suite turns a RuntimeWarning into a failure).
    hermitian = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    hermitian[0, 2] = hermitian[2, 0] = 1.5e308
    with pytest.raises(InvalidStateError, match="overflow"):
        _gate(hermitian, 2, 2, STATE_TOL)
    skewed = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skewed[0, 1], skewed[1, 0] = 1.5e308, 1e308
    with pytest.raises(NotHermitianError, match="defect 5.000e\\+307"):
        _gate(skewed, 2, 2, STATE_TOL)
    skewed[1, 0] = -1.5e308
    with pytest.raises(NotHermitianError, match="defect inf"):
        _gate(skewed, 2, 2, STATE_TOL)


def _layouts(m: np.ndarray) -> list[np.ndarray]:
    """``m`` as a C-ordered copy, an F-ordered copy and a strided view."""
    padded = np.zeros((2 * m.shape[0], 3 * m.shape[1]), dtype=m.dtype)
    padded[::2, ::3] = m
    return [np.ascontiguousarray(m), np.asfortranarray(m), padded[::2, ::3]]


def test_hermitian_part_is_the_plain_formula_bit_for_bit():
    # The part and the defect equal (m + m^H) / 2 and max|m - m^H| bit for
    # bit, signs of zero included, whatever the layout of m: C- and
    # F-ordered, a strided view, entries whose sums overflow (an infinite
    # part and an infinite defect, with no warning) and an empty matrix.
    rng = np.random.default_rng(61)
    inputs = []
    for n in (1, 2, 5, 16):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for i, j in zip(*np.nonzero(rng.random((n, n)) < 0.3)):
            m.real[i, j], m.imag[j, i] = -0.0, 0.0
        inputs.append(m)
    huge = np.diag([0.5, 0.5, 0.0]).astype(complex)
    huge[0, 1], huge[1, 0], huge[0, 2], huge[2, 0] = 1.5e308, -1.5e308, 1.7e308, 1.7e308
    inputs += [huge, np.zeros((0, 0), dtype=complex)]
    for m in inputs:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = (m + m.conj().T) / 2
            defect = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
        for view in _layouts(m):
            part, measured = hermitian_part(view)
            assert part.shape == m.shape
            assert np.ascontiguousarray(part).tobytes() == np.ascontiguousarray(expected).tobytes()
            assert measured == defect
    assert hermitian_part(huge)[1] == np.inf and not np.isfinite(hermitian_part(huge)[0]).all()

import dataclasses
import itertools

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    Verdict,
    behavior_from_state,
    build_bases,
    certify,
    find_hardy_pair,
    hardy_parameter_a,
    lhv_feasible,
    maximally_mixed,
    noise_threshold,
    pure_density,
    schmidt_decompose,
    validate_density,
)
from hardycert.errors import (
    DimensionMismatchError,
    InvalidStateError,
    NonPositiveWeightError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
)
from hardycert.io import parse_state_dict, state_to_dict
from hardycert.lhv import Behavior, facet_table, strategy_constraint_matrix
from hardycert.observables import PAIR_FLOOR, HardyPair
from hardycert.states import STATE_TOL, WEIGHT_FLOOR, SchmidtForm
from support import (
    assemble_pure_state,
    fixture_state,
    haar_unitary,
    hardy_observables,
    random_density,
    random_single_density,
    random_state_vector,
    random_weights,
)


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
    assert rho.matrix.shape == (4, 4)


def test_density_operator_rejects_bad_matrices():
    with pytest.raises(NotHermitianError):
        DensityOperator(d1=2, d2=2, matrix=np.diag([1.0, 0, 0, 0]) + 1e-3 * np.eye(4, k=1))
    with pytest.raises(NotUnitTraceError):
        DensityOperator(d1=2, d2=2, matrix=np.eye(4) / 2.0)
    bad = np.diag([0.6, 0.5, -0.1, 0.0])
    with pytest.raises(NotPositiveError):
        DensityOperator(d1=2, d2=2, matrix=bad)


def off_unit_density(dim: int, rng: np.random.Generator, tol: float) -> np.ndarray:
    """A Hermitian full-rank density matrix whose trace misses 1 by up to
    5e-10, redrawn until the trace passes at ``tol``: at tol 0 only a trace
    of exactly 1 does, so none is scaled off 1 there."""
    while True:
        off = rng.uniform(-5e-10, 5e-10) if tol > 0.0 else 0.0
        matrix = random_single_density(dim, rng) * (1.0 + off)
        matrix = (matrix + matrix.conj().T) / 2.0
        if abs(np.trace(matrix).real - 1.0) <= tol:
            return matrix


def test_density_operator_is_its_validated_matrix():
    # A state holds its dims and its matrix, read-only, and nothing else.
    # The stored matrix is a state to the constructor's gate, bit for bit.
    rng = np.random.default_rng(21)
    for (d1, d2), tol in itertools.product(
        [(2, 2), (2, 3), (3, 3), (4, 4), (8, 8)], [0.0, STATE_TOL, 1e-6]
    ):
        for _ in range(10):
            rho = validate_density(off_unit_density(d1 * d2, rng, tol), d1, d2, tol=tol)
            again = DensityOperator(d1=d1, d2=d2, matrix=rho.matrix)
            assert np.array_equal(again.matrix, rho.matrix)
    with pytest.raises(ValueError):
        rho.matrix[0] = 0.0
    flags = {f.name: (f.init, f.repr, f.compare) for f in dataclasses.fields(DensityOperator)}
    assert flags == {
        "d1": (True, True, True),
        "d2": (True, True, True),
        "matrix": (True, True, True),
    }
    assert not hasattr(rho, "eigenvalues")


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


@pytest.mark.parametrize(
    "d1, d2",
    [(2.0, 2), (2, 2.0), (np.float64(2.0), 2), (True, 4), (4, True), (-2, -2), (0, 4)],
    ids=["float-d1", "float-d2", "numpy-float", "bool-d1", "bool-d2", "negative", "zero"],
)
def test_dims_must_be_positive_integers(d1, d2):
    # Each pair multiplies to 4 (or 0), so only the dims rule can refuse it.
    amplitudes = np.full(4, 0.5)
    matrix = np.eye(4) / 4.0
    for build in (
        lambda: StateVector(d1=d1, d2=d2, amplitudes=amplitudes),
        lambda: DensityOperator(d1=d1, d2=d2, matrix=matrix),
        lambda: validate_density(matrix, d1, d2),
        lambda: maximally_mixed(d1, d2),
    ):
        with pytest.raises(DimensionMismatchError, match="must be positive integers"):
            build()


def test_numpy_integer_dims_are_accepted():
    d = np.int64(2)
    assert StateVector(d1=d, d2=d, amplitudes=np.full(4, 0.5)).d1 == 2
    assert validate_density(np.eye(4) / 4.0, d, d).d2 == 2
    assert maximally_mixed(d, np.int32(2)).matrix.shape == (4, 4)


BAD_TOLERANCES = [
    float("nan"), -1e-3, float("inf"), True, False,
    pytest.param(np.True_, id="numpy-True"), pytest.param(np.False_, id="numpy-False"),
]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_validate_density_rejects_nan_or_negative_tol(tol):
    # At tol = nan every "x > tol" check is false, and this matrix, which is
    # no state, would be "repaired" into |00><00|.
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        validate_density(np.diag([1.5, -0.5, 0.0, 0.0]), 2, 2, tol=tol)


def test_validate_density_refuses_a_bool_tol_before_repairing():
    # Read as tol = 1, True would let this matrix, which is no state, pass
    # every check and come back clipped and renormalised into
    # diag(0.5, 0.5, 0, 0).
    matrix = np.diag([0.7, 0.7, -0.2, -0.2])
    with pytest.raises(NotPositiveError):
        validate_density(matrix, 2, 2, tol=1e-9)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        validate_density(matrix, 2, 2, tol=True)


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
    assert schmidt_decompose(psi).weights.size == 2
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


def test_gate_refuses_entries_that_overflow():
    # Finite entries whose Hermitian part overflows: eigvalsh would return
    # NaNs (stored as the spectrum) or fail to converge.
    for pair in ((2, 3), (0, 3)):
        matrix = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        matrix[pair] = matrix[pair[::-1]] = 1.5e308
        with np.errstate(over="ignore", invalid="ignore"):
            for build in (
                lambda: DensityOperator(d1=2, d2=2, matrix=matrix),
                lambda: validate_density(matrix, 2, 2),
            ):
                with pytest.raises(InvalidStateError, match="overflow"):
                    build()
    # Finite entries that would overflow if divided by their trace of 0.1:
    # the gate divides no unrepaired matrix, and the -8e307 eigenvalue of the
    # Hermitian part is refused.
    matrix = np.diag([0.1, 0.0, 0.0, 0.0]).astype(complex)
    matrix[2, 3] = matrix[3, 2] = 8e307
    with pytest.raises(NotPositiveError, match="below -0.95"):
        validate_density(matrix, 2, 2, tol=0.95)


def test_gate_keeps_its_error_order_with_one_finiteness_pass():
    # The gate reads the input's entries only when its Hermitian part holds
    # a non-finite one.  A non-finite entry still raises its own error first,
    # even where the matrix is also far from Hermitian or its trace is not
    # finite, at any tolerance.
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)):
        for cell in ((0, 1), (2, 2)):
            matrix = np.eye(4, dtype=complex) / 4.0 + 0.3 * np.eye(4, k=1)
            matrix[cell] = bad
            for build in (
                lambda: DensityOperator(d1=2, d2=2, matrix=matrix),
                lambda: validate_density(matrix, 2, 2),
                lambda: validate_density(matrix, 2, 2, tol=0.95),
            ):
                with pytest.raises(InvalidStateError, match="matrix entries must be finite"):
                    build()
    # Finite entries whose Hermitian part overflows still raise the overflow
    # error, and only after the Hermiticity and trace checks.
    matrix = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    matrix[0, 1] = matrix[1, 0] = 1.5e308
    with pytest.raises(InvalidStateError, match="overflow"):
        validate_density(matrix, 2, 2)
    matrix[1, 0] = 1e308
    with pytest.raises(NotHermitianError):
        validate_density(matrix, 2, 2)
    matrix[1, 0] = 1.5e308
    matrix[1, 1] = 0.0
    with pytest.raises(NotUnitTraceError):
        validate_density(matrix, 2, 2)


def test_constructor_and_validate_density_share_one_gate():
    # Inputs whose trace is within STATE_TOL of 1, every other one with a
    # round-off negative eigenvalue that the gate repairs.  Both entry points
    # store the same matrix, whose spectrum is never negative, and a stored
    # matrix, repaired or not, validates and parses back to itself.
    rng = np.random.default_rng(31)
    for trial in range(40):
        d1, d2 = (int(d) for d in rng.integers(2, 5, size=2))
        dim = d1 * d2
        spectrum = rng.uniform(0.0, 1.0, size=dim)
        if trial % 2:
            spectrum[0] = -rng.uniform(1e-12, 5e-10)
        spectrum /= spectrum.sum()
        unitary = haar_unitary(dim, rng)
        matrix = (unitary * spectrum) @ unitary.conj().T * (1.0 + rng.uniform(-5e-10, 5e-10))
        assert (np.linalg.eigvalsh(matrix)[0] < 0.0) == bool(trial % 2)
        rho = DensityOperator(d1, d2, matrix)
        validated = validate_density(matrix, d1, d2)
        assert np.array_equal(rho.matrix, validated.matrix)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0
        assert np.array_equal(validate_density(rho.matrix, d1, d2).matrix, rho.matrix)
        assert np.array_equal(parse_state_dict(state_to_dict(rho)).matrix, rho.matrix)


def test_constructor_repairs_a_round_off_negative_on_a_hardy_cell():
    # The README state (p1^2 = 0.2) and a -5e-10 eigenvalue along its
    # X1=+1, X2=+1 cell: kept by the constructor, it made that cell of the
    # behavior negative, and certify raised.
    psi = fixture_state()
    sf = schmidt_decompose(psi)
    alice, bob = build_bases(sf, find_hardy_pair(sf))
    x1_plus, x2_plus = alice[0, 0], bob[0, 0]
    cell = np.kron(np.outer(x1_plus, x1_plus.conj()), np.outer(x2_plus, x2_plus.conj()))
    sigma = DensityOperator(2, 2, (np.eye(4) - cell) / 3.0 * (1.0 + 5e-10) - 5e-10 * cell)
    assert np.linalg.eigvalsh(sigma.matrix)[0] >= 0.0
    report = certify(sigma, psi)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert lhv_feasible(report.behavior).feasible


@pytest.mark.parametrize("case", list(BAD_DENSITIES))
def test_gate_raises_alike_for_constructor_and_validate(case):
    matrix, d1, d2, expected = BAD_DENSITIES[case]
    with pytest.raises(expected) as direct:
        DensityOperator(d1=d1, d2=d2, matrix=matrix)
    with pytest.raises(expected) as validated:
        validate_density(matrix, d1, d2, tol=STATE_TOL)
    assert type(direct.value) is type(validated.value) is expected
    assert str(direct.value) == str(validated.value)


def spectrum_only_gate(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Reference for the gate's positivity step on an input that passes its
    entry checks, from one ``eigh`` and no Cholesky proof: the matrix
    stored, or the error raised.  A spectrum below ``-tol`` is refused, a
    negative one repaired from the same solve, and a nonnegative one keeps
    the Hermitian part."""
    sym = (matrix + matrix.conj().T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    if values[0] < -tol:
        raise NotPositiveError(f"eigenvalue {float(values[0])!r} below -{tol}")
    if values[0] >= 0.0:
        return sym
    floor = 4 * sym.shape[0] * np.finfo(float).eps
    clipped = (vectors * np.clip(values, floor, None)) @ vectors.conj().T
    clipped /= float(np.trace(clipped).real)
    return (clipped + clipped.conj().T) / 2.0


#: Where the smallest eigenvalue of a boundary input is placed, in multiples
#: of the shift ``4 (D + 1) eps`` that the gate's Cholesky proof subtracts at
#: unit trace.  The proof may hold from 1/2 up and must hold from 2 up.
SHIFT_MULTIPLES = (-0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0)


def boundary_inputs(dim: int, tol: float, rng: np.random.Generator):
    """(kind, Hermitian matrix) pairs whose trace is within ``tol`` of 1:
    the smallest eigenvalue at each of ``SHIFT_MULTIPLES`` of the shift, a
    pure projector, a -5e-10 round-off negative and one below ``-tol``.
    Each is redrawn until its trace passes, so at tol 0 it is exactly 1."""
    shift = 4 * (dim + 1) * np.finfo(float).eps
    smallest = {f"{k:+g}s": k * shift for k in SHIFT_MULTIPLES}
    smallest.update({"pure": None, "repair": -5e-10, "refusal": -2.0 * tol - 1e-9})
    for kind, low in smallest.items():
        while True:
            unitary = haar_unitary(dim, rng)
            if low is None:
                spectrum = np.eye(dim)[0]
            else:
                spectrum = rng.uniform(0.1, 1.0, size=dim)
                spectrum *= (1.0 - low) / spectrum[1:].sum()
                spectrum[0] = low
            matrix = (unitary * spectrum) @ unitary.conj().T * (1.0 + rng.uniform(-tol, tol))
            matrix = (matrix + matrix.conj().T) / 2.0
            if abs(np.trace(matrix).real - 1.0) <= tol:
                yield kind, matrix
                break


@pytest.mark.parametrize("tol", [0.0, STATE_TOL, 1e-6])
def test_gate_matches_the_spectrum_only_reference_at_the_cholesky_boundary(tol, monkeypatch):
    # Wherever the Cholesky proof holds, the spectrum-only gate would have
    # kept the matrix unrepaired; wherever it fails, the gate is that
    # reference.  Both store the same matrix bit for bit or raise the same
    # error, and the stored matrix's spectrum is nonnegative.  A build that
    # solves no spectrum is one the Cholesky proved; any other solves one
    # eigh and no eigvalsh.
    eigvalsh, eigh, solved = np.linalg.eigvalsh, np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append("eigvalsh") or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append("eigh") or eigh(a))
    rng = np.random.default_rng(41)
    for (d1, d2), _ in itertools.product(
        [(1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (4, 8), (8, 8)], range(3)
    ):
        for kind, matrix in boundary_inputs(d1 * d2, tol, rng):
            entry_points = [lambda m=matrix: validate_density(m, d1, d2, tol=tol)]
            if tol == STATE_TOL:
                entry_points.append(lambda m=matrix: DensityOperator(d1, d2, m))
            try:
                expected, refusal = spectrum_only_gate(matrix, tol), None
            except NotPositiveError as error:
                expected, refusal = None, str(error)
            for build in entry_points:
                if refusal is not None:
                    with pytest.raises(NotPositiveError) as raised:
                        build()
                    assert str(raised.value) == refusal
                    continue
                solved.clear()
                rho = build()
                assert np.array_equal(rho.matrix, expected), kind
                assert solved in ([], ["eigh"]), kind
                proved = not solved
                if kind in ("+2s", "+4s"):
                    assert proved, kind
                if kind in ("-0.5s", "+0s", "+0.25s", "pure", "repair"):
                    assert not proved, kind
                # Nonnegative as the gate's solver, eigh, reads it: eigvalsh
                # may read an exact zero eigenvalue a few ulps below zero.
                assert eigh(rho.matrix)[0][0] >= 0.0


# ---------------------------------------------------- schmidt decomposition


def test_schmidt_product_state():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0  # |0>|1>
    sf = schmidt_decompose(StateVector(d1=2, d2=2, amplitudes=amps))
    assert sf.weights.size == 1
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
            padded[: sf.weights.size] = sf.weights**2
            assert np.max(np.abs(np.sort(padded)[::-1] - np.clip(spectrum, 0.0, None))) < 1e-9


def test_schmidt_reconstruction_fidelity():
    rng = np.random.default_rng(22)
    for _ in range(30):
        d1 = int(rng.integers(2, 6))
        d2 = int(rng.integers(2, 6))
        psi = random_state_vector(d1, d2, rng)
        sf = schmidt_decompose(psi)
        coeff = (sf.left_basis * sf.weights) @ sf.right_basis.T
        overlap = abs(np.vdot(coeff.reshape(-1), psi.amplitudes)) ** 2
        assert overlap > 1.0 - 1e-9


def test_schmidt_bases_orthonormal():
    rng = np.random.default_rng(23)
    for _ in range(20):
        psi = random_state_vector(4, 3, rng)
        sf = schmidt_decompose(psi)
        for basis in (sf.left_basis, sf.right_basis):
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(sf.weights.size))) < 1e-10


def _eigen_reference_schmidt(psi: StateVector) -> SchmidtForm:
    """The Schmidt form by the eigen route, in the documented gauge.

    Eigendecomposes C C^dagger, rotates each eigenvector so that its
    largest-magnitude component is real and positive, and takes each partner
    as C^T conj(alpha) / weight.  Squared weights at or below 1e-11 are
    dropped, as this route cannot resolve them.
    """
    coeff = psi.amplitudes.reshape(psi.d1, psi.d2)
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
    assert sf.weights.size == ref.weights.size == rank
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
    tables = [behavior_from_state(sigma, hardy_observables(psi, form)).tables for form in (sf, ref)]
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
        assert sf.weights.size == 4
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


@pytest.mark.parametrize("d1, d2, seed", [(2, 2, 71), (3, 5, 72), (8, 8, 73)])
def test_schmidt_decompose_builds_a_form_that_passes_its_checks(d1, d2, seed, monkeypatch):
    # The SVD's kept weights are positive, descending and normalised, so
    # schmidt_decompose skips the checks; the checked constructor agrees bit
    # for bit.
    checks = 0
    post_init = SchmidtForm.__post_init__

    def counted(self):
        nonlocal checks
        checks += 1
        post_init(self)

    monkeypatch.setattr(SchmidtForm, "__post_init__", counted)
    sf = schmidt_decompose(random_state_vector(d1, d2, np.random.default_rng(seed)))
    assert checks == 0
    assert not sf.weights.flags.writeable
    checked = SchmidtForm(weights=sf.weights, left_basis=sf.left_basis, right_basis=sf.right_basis)
    assert checks == 1
    for name in ("weights", "left_basis", "right_basis"):
        assert np.array_equal(getattr(checked, name), getattr(sf, name))
        assert getattr(checked, name).dtype == getattr(sf, name).dtype


def test_schmidt_form_rejects_ascending_weights():
    with pytest.raises(InvalidStateError):
        SchmidtForm(
            weights=np.array([0.4472135954999579, 0.8944271909999159]),
            left_basis=np.eye(2),
            right_basis=np.eye(2),
        )


def test_schmidt_form_rejects_nan_weights():
    with pytest.raises(InvalidStateError, match="strictly positive"):
        SchmidtForm(weights=np.array([np.nan, 0.5]), left_basis=np.eye(2), right_basis=np.eye(2))


def test_schmidt_form_rejects_malformed_data():
    with pytest.raises(InvalidStateError, match="non-empty 1-D"):
        SchmidtForm(weights=np.full((1, 1), 1.0), left_basis=np.eye(1), right_basis=np.eye(1))
    with pytest.raises(InvalidStateError, match="non-empty 1-D"):
        SchmidtForm(weights=np.array([]), left_basis=np.eye(1), right_basis=np.eye(1))
    with pytest.raises(InvalidStateError, match="sum to 1"):
        SchmidtForm(weights=np.full(2, 0.5), left_basis=np.eye(2), right_basis=np.eye(2))
    with pytest.raises(InvalidStateError, match="strictly positive"):
        SchmidtForm(weights=[1.0, 0.0], left_basis=np.eye(2), right_basis=np.eye(2))
    with pytest.raises(DimensionMismatchError, match="column count"):
        SchmidtForm(weights=np.array([0.8, 0.6]), left_basis=np.eye(2), right_basis=np.eye(3))


def test_schmidt_form_converts_list_bases_and_refuses_1d_ones():
    form = SchmidtForm(
        weights=[0.8, 0.6],
        left_basis=[[1, 0], [0, 1]],
        right_basis=[[0, 1], [1, 0]],
    )
    for basis in (form.left_basis, form.right_basis):
        assert basis.dtype == complex and basis.shape == (2, 2)
    assert np.array_equal(form.right_basis, np.eye(2)[:, ::-1])
    for left, right in (([1, 0], np.eye(2)[:, :1]), (np.eye(2)[:, :1], np.array([1.0, 0.0]))):
        with pytest.raises(DimensionMismatchError, match="column count"):
            SchmidtForm(weights=[1.0], left_basis=left, right_basis=right)


def test_schmidt_form_refuses_bases_that_are_not_orthonormal():
    # Columns (1, 0) and (s, s) are unit vectors 45 degrees apart: the stacks
    # built from them would be no projectors, and the verdict on them would
    # speak about a measurement no one makes.
    s = np.sqrt(0.5)
    skewed = np.array([[1.0, s], [0.0, s]])
    for left, right in ((skewed, np.eye(2)), (np.eye(2), skewed), (2.0 * np.eye(2), np.eye(2))):
        with pytest.raises(InvalidStateError, match="orthonormal"):
            SchmidtForm(weights=np.array([0.8, 0.6]), left_basis=left, right_basis=right)
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidStateError, match="orthonormal"):
        SchmidtForm(weights=np.array([0.8, 0.6]), left_basis=nan, right_basis=np.eye(2))
    # A 3x2 isometry is a basis of its span; round-off within STATE_TOL is
    # accepted, and every Gram entry beyond it refused.
    isometry = np.eye(3)[:, :2]
    SchmidtForm(weights=np.array([0.8, 0.6]), left_basis=isometry, right_basis=np.eye(2))
    # A diagonal entry moved by t moves its Gram entry by about 2t, an
    # off-diagonal one by t.
    for entry in ((0, 0), (1, 0)):
        for step, accepted in ((0.25 * STATE_TOL, True), (2.0 * STATE_TOL, False)):
            basis = np.eye(2, dtype=complex)
            basis[entry] += step
            if accepted:
                SchmidtForm(weights=[0.8, 0.6], left_basis=basis, right_basis=np.eye(2))
                continue
            with pytest.raises(InvalidStateError, match="orthonormal"):
                SchmidtForm(weights=[0.8, 0.6], left_basis=basis, right_basis=np.eye(2))


def test_every_record_array_is_read_only():
    # A record holds its checked fields in read-only arrays, and nothing
    # else: an in-place write through any route that builds one fails, and
    # so no measurement or verdict can change after it is checked.
    psi = fixture_state()
    sf = schmidt_decompose(psi)
    obs = hardy_observables(psi)
    sigma = validate_density(0.9 * psi.projector() + 0.1 * np.eye(4) / 4.0, 2, 2)
    cells = behavior_from_state(sigma, obs).tables
    records = {
        "StateVector": psi,
        "DensityOperator": DensityOperator(d1=2, d2=2, matrix=sigma.matrix),
        "validate_density": sigma,
        "pure_density": pure_density(psi),
        "maximally_mixed": maximally_mixed(2, 2),
        "SchmidtForm": SchmidtForm(
            weights=sf.weights, left_basis=sf.left_basis, right_basis=sf.right_basis
        ),
        "schmidt_decompose": sf,
        "Behavior": Behavior(cells),
        "behavior_from_state": behavior_from_state(sigma, obs),
        "HardyObservables": obs,
        "facet_table": facet_table(),
    }
    arrays = {"strategy_constraint_matrix": strategy_constraint_matrix()}
    for route, record in records.items():
        if dataclasses.is_dataclass(record):
            fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
            members = {name for name in dir(record) if not name.startswith("_")}
            assert members - set(fields) <= {"projector"}, route
        else:
            fields = record._asdict()
        held = {name: value for name, value in fields.items() if name not in ("d1", "d2")}
        assert all(isinstance(value, np.ndarray) for value in held.values()), route
        arrays.update({f"{route}.{name}": value for name, value in held.items()})
    assert len(arrays) == 19
    for name, array in arrays.items():
        first = (0,) * array.ndim
        with pytest.raises(ValueError, match="read-only"):
            array[first] = array[first]


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


def test_find_hardy_pair_screens_tiny_weights():
    # A 1e-9 weight is kept by the Schmidt floor but refused by the pair floor.
    tiny = 1e-9
    big = np.sqrt(1.0 - tiny**2)
    sf = SchmidtForm(
        weights=np.array([big, tiny]),
        left_basis=np.eye(2),
        right_basis=np.eye(2),
    )
    assert tiny > WEIGHT_FLOOR
    assert find_hardy_pair(sf) is None


def reference_pair(weights: np.ndarray) -> HardyPair | None:
    """The pair search as a loop of checked ``hardy_parameter_a`` calls:
    the admissible pair of largest ``a``, the first of equal ones."""
    best = None
    for j in range(weights.size):
        for i in range(j + 1, weights.size):
            p2, p1 = float(weights[j]), float(weights[i])
            if p1 <= PAIR_FLOOR or p2 - p1 <= PAIR_FLOOR:
                continue
            value = hardy_parameter_a(p1, p2)
            if best is None or value > best.a:
                best = HardyPair(index_small=i, index_large=j, p1=p1, p2=p2, a=value)
    return best


def test_find_hardy_pair_is_the_checked_reference_loop():
    # Weights drawn from three levels tie exactly; some sit 1e-9 above a
    # level, inside the pair floor; the last is at, or an ulp above, the
    # pair floor itself.
    rng = np.random.default_rng(27)
    found = 0
    for trial in range(300):
        count = int(rng.integers(1, 8))
        raw = rng.choice(rng.uniform(0.05, 1.0, size=3), size=count)
        raw[rng.random(count) < 0.3] += 1e-9
        raw = np.sort(raw)[::-1]
        last = (PAIR_FLOOR, np.nextafter(PAIR_FLOOR, 1.0), 0.0)[trial % 3]
        weights = raw / np.linalg.norm(raw) * np.sqrt(1.0 - last**2)
        if last:
            weights = np.append(weights, last)
        sf = SchmidtForm(weights=weights, left_basis=np.eye(weights.size), right_basis=np.eye(weights.size))
        pair = find_hardy_pair(sf)
        assert pair == reference_pair(sf.weights)
        found += pair is not None
    assert 0 < found < 300
    # The unchecked formula behind the search leaves the public one checked.
    for weights in ((0.0, 0.5), (np.nan, 0.5), (np.inf, 0.5)):
        with pytest.raises(NonPositiveWeightError):
            hardy_parameter_a(*weights)


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


def test_pure_density_matches_projector(monkeypatch):
    # The projector is stored as it is, with no solver call: the gate would
    # repair it by a few ulps.
    psi = fixture_state()
    projector = psi.projector()

    def no_solve(*args, **kwargs):
        raise AssertionError("pure_density called a solver")

    for name in ("cholesky", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_solve)
    rho = pure_density(psi)
    assert np.array_equal(rho.matrix, projector)
    assert not rho.matrix.flags.writeable

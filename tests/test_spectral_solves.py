"""Solves per command: a positive-definite state is proved a state by one
Cholesky factorisation and no eigensolve, a state the Cholesky cannot prove
pays one ``eigh`` whose eigenvectors serve its repair, white noise and a
pure state's projector pay for none, outside the gate eigenvectors are
computed only where they are read, the distance to a candidate that is an
eigenvector of the state needs no spectrum, the distance to any other
candidate is one ``eigvalsh`` below D = 25 and one linear solve from there
on, and the candidate's Schmidt form is one SVD.  The top eigenvector is one
``eigh`` below D = 25; from there on, a top eigenvalue above half the trace
gives it from power steps, with no ``eigh``, and the gap ``certify`` reports
without a candidate is one ``eigvalsh``.  The 4x4 pins below hold the
``eigh`` path.

``numpy.linalg.cholesky``, ``eigh`` (eigenvalues and eigenvectors),
``eigvalsh`` (eigenvalues only), ``solve`` and ``svd`` are wrapped to record
the shape of every matrix they see.
"""

import json

import numpy as np
import pytest

from hardycert.certification import candidate_from_state, certify, top_eigenvector
from hardycert.cli import main
from hardycert.io import state_to_dict
from hardycert.states import DensityOperator, StateVector, maximally_mixed, validate_density
from support import certified_mixture, dominant_states

D1 = D2 = 4
DIM = D1 * D2


@pytest.fixture
def solves(monkeypatch):
    """Matrix shapes seen by each solver, keyed by its name."""
    seen = {"cholesky": [], "eigh": [], "eigvalsh": [], "solve": [], "svd": []}
    for name in seen:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _sizes=seen[name], **kwargs):
            _sizes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return seen


@pytest.fixture
def files(tmp_path):
    sigma, psi = certified_mixture(np.random.default_rng(5), d1=D1, d2=D2)
    product = StateVector(D1, D2, np.eye(DIM)[0])
    white = maximally_mixed(D1, D2)
    states = {"state": sigma, "candidate": psi, "product": product, "white": white}
    paths = {name: tmp_path / f"{name}.json" for name in states}
    for name, state in states.items():
        paths[name].write_text(json.dumps(state_to_dict(state)))
    return paths


def run(argv, capsys):
    assert main([str(arg) for arg in argv]) == 0
    capsys.readouterr()


def test_certify_top_eigenvector_solves_sigma_once(files, solves, capsys):
    run(["certify", "--state", files["state"]], capsys)
    # One eigh of sigma gives both the candidate and the degeneracy gap.
    assert solves["eigh"].count((DIM, DIM)) == 1
    assert solves["cholesky"] == [(DIM, DIM)]
    assert solves["svd"] == [(D1, D2)]


def test_explicit_candidate_needs_no_eigenvectors_of_sigma(files, solves, capsys):
    run(["certify", "--state", files["state"], "--candidate", files["candidate"]], capsys)
    run(["lhv-check", "--state", files["state"], "--candidate", files["candidate"]], capsys)
    assert solves["eigh"].count((DIM, DIM)) == 0


@pytest.mark.parametrize("d", [4, 8])
def test_file_candidate_distance_is_one_spectrum_or_one_solve(d, tmp_path, solves, capsys):
    # A file candidate that is no eigenvector of its state: at 4x4 its
    # distance is one eigvalsh; at 8x8 one linear solve brackets the one
    # negative eigenvalue of sigma - |psi><psi|, and no spectrum is taken.
    dim = d * d
    sigma, psi = certified_mixture(np.random.default_rng([5, d]), d1=d, d2=d)
    paths = [tmp_path / "state.json", tmp_path / "candidate.json"]
    for path, state in zip(paths, (sigma, psi)):
        path.write_text(json.dumps(state_to_dict(state)))
    for shapes in solves.values():
        shapes.clear()  # the files' own construction
    run(["certify", "--state", paths[0], "--candidate", paths[1]], capsys)
    assert solves["cholesky"] == [(dim, dim)]
    assert solves["eigh"] == []
    if d == 4:
        assert (solves["eigvalsh"], solves["solve"]) == ([(dim, dim)], [])
    else:
        assert (solves["eigvalsh"], solves["solve"]) == ([], [(dim, dim)])


@pytest.mark.parametrize(
    "argv, spectra, eigenvectors",
    [
        (["certify", "--state", "state"], 0, 1),
        (["certify", "--state", "state", "--candidate", "candidate"], 1, 0),
        (["lhv-check", "--state", "state", "--candidate", "candidate"], 1, 0),
        (["noise-threshold", "--state", "candidate", "--noise", "state"], 1, 0),
        (["noise-threshold", "--state", "candidate", "--noise", "white"], 0, 0),
    ],
    ids=["certify", "certify-candidate", "lhv-check", "noise-threshold", "noise-threshold-white"],
)
def test_spectra_each_command_solves(argv, spectra, eigenvectors, files, solves, capsys):
    """Every full-rank mixed file is proved a state by one Cholesky and no
    spectrum.  The trace distance to a candidate that is an eigenvector of
    the state, the top eigenvector or any vector against white noise, comes
    from one matrix-vector product; any other candidate pays one spectrum of
    sigma - |psi><psi|.  Only certify without a candidate solves sigma's
    eigenvectors, whose one eigh gives the top eigenvector and the
    degeneracy gap.  The candidate's projector is never validated as a state
    of its own."""
    run([files.get(arg, arg) for arg in argv], capsys)
    assert solves["cholesky"] == [(DIM, DIM)]
    assert solves["eigvalsh"].count((DIM, DIM)) == spectra
    assert solves["eigh"].count((DIM, DIM)) == eigenvectors


def test_pure_noise_file_runs_no_gate(files, solves, capsys):
    # A pure file loaded as a density is its projector, stored with no
    # gate: the only spectrum is the trace distance's.
    run(["noise-threshold", "--state", files["candidate"], "--noise", files["product"]], capsys)
    assert solves == {"cholesky": [], "eigh": [], "eigvalsh": [(DIM, DIM)], "solve": [], "svd": [(D1, D2)]}


@pytest.mark.parametrize("command", ["certify", "lhv-check"])
def test_explicit_candidate_schmidt_form_is_one_svd(command, files, solves, capsys):
    run([command, "--state", files["state"], "--candidate", files["candidate"]], capsys)
    assert solves["eigh"] == []
    assert solves["svd"] == [(D1, D2)]


@pytest.mark.parametrize("d1, d2", [(5, 5), (4, 8), (8, 8)])
def test_dominant_top_eigenvector_takes_no_eigh(d1, d2, solves):
    # A top eigenvalue above half the trace, from D = 25 on: power steps
    # give the vector, one eigvalsh gives top_eigenvector's gap, and the
    # candidate's epsilon is one matrix-vector product.
    dim = d1 * d2
    for sigma in dominant_states(np.random.default_rng([72, d1, d2]), d1, d2):
        for shapes in solves.values():
            shapes.clear()  # the state's own construction
        candidate = candidate_from_state(sigma)
        assert solves["eigh"] == solves["eigvalsh"] == []
        top_eigenvector(sigma)
        assert (solves["eigh"], solves["eigvalsh"]) == ([], [(dim, dim)])
        solves["eigvalsh"].clear()
        certify(sigma, candidate)
        assert solves["eigvalsh"] == solves["solve"] == []


def test_certify_dominant_5x5_file_takes_one_eigvalsh(tmp_path, solves, capsys):
    sigma, _ = certified_mixture(np.random.default_rng(73), d1=5, d2=5)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(sigma)))
    for shapes in solves.values():
        shapes.clear()
    run(["certify", "--state", path], capsys)
    assert solves == {"cholesky": [(25, 25)], "eigh": [], "eigvalsh": [(25, 25)], "solve": [], "svd": [(5, 5)]}


#: The two entry points of the density gate, on 2x2 inputs.
GATES = {
    "DensityOperator": lambda matrix: DensityOperator(d1=2, d2=2, matrix=matrix),
    "validate_density": lambda matrix: validate_density(matrix, 2, 2),
}


@pytest.mark.parametrize("gate", list(GATES.values()), ids=list(GATES))
def test_validate_density_computes_eigenvectors_only_to_repair(gate, solves):
    gate(np.diag([0.1, 0.2, 0.3, 0.4]))
    assert solves["eigh"] == solves["eigvalsh"] == []
    solves["cholesky"].clear()
    repaired = gate(np.diag([-5e-10, 0.3, 0.3, 0.4 + 5e-10]))
    # The Cholesky fails, and one eigh both finds the negative and repairs
    # it: no second spectrum.
    assert solves == {"cholesky": [(4, 4)], "eigh": [(4, 4)], "eigvalsh": [], "solve": [], "svd": []}
    assert np.linalg.eigvalsh(repaired.matrix)[0] >= 0.0


@pytest.mark.parametrize("entry", ["DensityOperator", "validate_density"])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_rank_deficient_state_costs_one_cholesky_and_one_eigh(d, rank, entry, solves):
    # A rank-1 or rank-2 state at d x d: the Cholesky cannot prove it, and
    # one eigh gives the spectrum that keeps or repairs it.
    dim = d * d
    rng = np.random.default_rng([29, d, rank])
    vectors, _ = np.linalg.qr(rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)))
    matrix = (vectors * [[1.0], [0.7, 0.3]][rank - 1]) @ vectors.conj().T
    if entry == "DensityOperator":
        rho = DensityOperator(d1=d, d2=d, matrix=matrix)
    else:
        rho = validate_density(matrix, d, d)
    assert solves == {"cholesky": [(dim, dim)], "eigh": [(dim, dim)], "eigvalsh": [], "solve": [], "svd": []}
    # Nonnegative as the gate's one solver reads it.
    assert np.linalg.eigh(rho.matrix)[0][0] >= 0.0


@pytest.mark.parametrize("gate", list(GATES.values()), ids=list(GATES))
def test_validate_density_solves_once_without_repair(gate, solves):
    rho = gate(np.diag([0.1, 0.2, 0.3, 0.4 + 2e-10]))
    # A positive-definite state: one Cholesky and no spectrum.
    assert solves == {"cholesky": [(4, 4)], "eigh": [], "eigvalsh": [], "solve": [], "svd": []}
    assert not rho.matrix.flags.writeable


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 5), (8, 8)])
def test_maximally_mixed_needs_no_eigensolve(d1, d2, solves):
    rho = maximally_mixed(d1, d2)
    assert solves == {"cholesky": [], "eigh": [], "eigvalsh": [], "solve": [], "svd": []}
    # The state the constructor would build, bit for bit.
    dim = d1 * d2
    built = DensityOperator(d1=d1, d2=d2, matrix=np.eye(dim) / dim)
    assert rho.matrix.dtype == built.matrix.dtype
    assert np.array_equal(rho.matrix, built.matrix)
    assert not rho.matrix.flags.writeable

"""Spectral solves per command: each matrix on the certify path pays for one
eigensolve, a validated state for exactly one, white noise for none,
eigenvectors are computed only where they are read, and the candidate's
Schmidt form is one SVD.

``numpy.linalg.eigh`` (eigenvalues and eigenvectors), ``eigvalsh``
(eigenvalues only) and ``svd`` are wrapped to record the shape of every
matrix they see.
"""

import json

import numpy as np
import pytest

from hardycert.cli import main
from hardycert.io import state_to_dict
from hardycert.states import DensityOperator, maximally_mixed, validate_density
from support import certified_mixture

D1 = D2 = 4
DIM = D1 * D2


@pytest.fixture
def solves(monkeypatch):
    """Matrix shapes seen by each solver, keyed by its name."""
    seen = {"eigh": [], "eigvalsh": [], "svd": []}
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
    paths = {"state": tmp_path / "state.json", "candidate": tmp_path / "candidate.json"}
    paths["state"].write_text(json.dumps(state_to_dict(sigma)))
    paths["candidate"].write_text(json.dumps(state_to_dict(psi)))
    return paths


def run(argv, capsys):
    assert main([str(arg) for arg in argv]) == 0
    capsys.readouterr()


def test_certify_top_eigenvector_solves_sigma_once(files, solves, capsys):
    run(["certify", "--state", files["state"]], capsys)
    # One eigh of sigma in candidate_from_state; the degeneracy gap reads the
    # spectrum kept by the positivity check.
    assert solves["eigh"].count((DIM, DIM)) == 1
    assert solves["svd"] == [(D1, D2)]


def test_explicit_candidate_needs_no_eigenvectors_of_sigma(files, solves, capsys):
    run(["certify", "--state", files["state"], "--candidate", files["candidate"]], capsys)
    run(["lhv-check", "--state", files["state"], "--candidate", files["candidate"]], capsys)
    assert solves["eigh"].count((DIM, DIM)) == 0


@pytest.mark.parametrize(
    "argv, eigenvectors",
    [
        (["certify", "--state", "state"], 1),
        (["certify", "--state", "state", "--candidate", "candidate"], 0),
        (["lhv-check", "--state", "state", "--candidate", "candidate"], 0),
        (["noise-threshold", "--state", "candidate", "--noise", "state"], 0),
    ],
    ids=["certify", "certify-candidate", "lhv-check", "noise-threshold"],
)
def test_each_command_pays_two_spectra(argv, eigenvectors, files, solves, capsys):
    # One spectrum of the mixed file, solved by validate_density on the
    # matrix it stores and kept, and one of sigma - |psi><psi| for the trace
    # distance; the candidate's projector is never validated as a state of
    # its own.
    run([files.get(arg, arg) for arg in argv], capsys)
    assert solves["eigvalsh"].count((DIM, DIM)) == 2
    assert solves["eigh"].count((DIM, DIM)) == eigenvectors


@pytest.mark.parametrize("command", ["certify", "lhv-check"])
def test_explicit_candidate_schmidt_form_is_one_svd(command, files, solves, capsys):
    run([command, "--state", files["state"], "--candidate", files["candidate"]], capsys)
    assert solves["eigh"] == []
    assert solves["svd"] == [(D1, D2)]


#: The two entry points of the density gate, on 2x2 inputs.
GATES = {
    "DensityOperator": lambda matrix: DensityOperator(d1=2, d2=2, matrix=matrix),
    "validate_density": lambda matrix: validate_density(matrix, 2, 2),
}


@pytest.mark.parametrize("gate", list(GATES.values()), ids=list(GATES))
def test_validate_density_computes_eigenvectors_only_to_repair(gate, solves):
    gate(np.diag([0.1, 0.2, 0.3, 0.4]))
    assert solves["eigh"] == []
    repaired = gate(np.diag([-5e-10, 0.3, 0.3, 0.4 + 5e-10]))
    # One eigh to repair, and a second eigvalsh for the repaired matrix.
    assert solves["eigh"] == [(4, 4)]
    assert solves["eigvalsh"] == [(4, 4)] * 3
    assert repaired.eigenvalues[0] >= 0.0


@pytest.mark.parametrize("gate", list(GATES.values()), ids=list(GATES))
def test_validate_density_solves_once_without_repair(gate, solves):
    rho = gate(np.diag([0.1, 0.2, 0.3, 0.4 + 2e-10]))
    assert solves == {"eigh": [], "eigvalsh": [(4, 4)], "svd": []}
    assert rho.eigenvalues[0] >= 0.0


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 5), (8, 8)])
def test_maximally_mixed_needs_no_eigensolve(d1, d2, solves):
    rho = maximally_mixed(d1, d2)
    assert solves == {"eigh": [], "eigvalsh": [], "svd": []}
    # The state the constructor would build, and the spectrum its
    # eigensolve would give, bit for bit.
    dim = d1 * d2
    built = DensityOperator(d1=d1, d2=d2, matrix=np.eye(dim) / dim)
    assert rho.matrix.dtype == built.matrix.dtype
    assert np.array_equal(rho.matrix, built.matrix)
    assert np.array_equal(rho.eigenvalues, built.eigenvalues)
    assert not rho.matrix.flags.writeable and not rho.eigenvalues.flags.writeable

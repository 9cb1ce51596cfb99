"""Solves per command: a positive-definite state is proved a state by one
Cholesky factorisation and no eigensolve, its spectrum is solved once and
only when read, a repair pays for the eigensolves it reads, white noise pays
for none, eigenvectors are computed only where they are read, and the
candidate's Schmidt form is one SVD.

``numpy.linalg.cholesky``, ``eigh`` (eigenvalues and eigenvectors),
``eigvalsh`` (eigenvalues only) and ``svd`` are wrapped to record the shape
of every matrix they see.
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
    seen = {"cholesky": [], "eigh": [], "eigvalsh": [], "svd": []}
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
    # spectrum, solved once when it is read.
    assert solves["eigh"].count((DIM, DIM)) == 1
    assert solves["cholesky"] == [(DIM, DIM)]
    assert solves["svd"] == [(D1, D2)]


def test_explicit_candidate_needs_no_eigenvectors_of_sigma(files, solves, capsys):
    run(["certify", "--state", files["state"], "--candidate", files["candidate"]], capsys)
    run(["lhv-check", "--state", files["state"], "--candidate", files["candidate"]], capsys)
    assert solves["eigh"].count((DIM, DIM)) == 0


@pytest.mark.parametrize(
    "argv, spectra, eigenvectors",
    [
        (["certify", "--state", "state"], 2, 1),
        (["certify", "--state", "state", "--candidate", "candidate"], 1, 0),
        (["lhv-check", "--state", "state", "--candidate", "candidate"], 1, 0),
        (["noise-threshold", "--state", "candidate", "--noise", "state"], 1, 0),
    ],
    ids=["certify", "certify-candidate", "lhv-check", "noise-threshold"],
)
def test_each_command_pays_two_spectra(argv, spectra, eigenvectors, files, solves, capsys):
    # The full-rank mixed file is proved a state by one Cholesky and no
    # spectrum.  Every command solves one spectrum, of sigma - |psi><psi|
    # for the trace distance; only certify without a candidate reads
    # sigma's own, for the degeneracy gap, and its top eigenvector.  The
    # candidate's projector is never validated as a state of its own.
    run([files.get(arg, arg) for arg in argv], capsys)
    assert solves["cholesky"] == [(DIM, DIM)]
    assert solves["eigvalsh"].count((DIM, DIM)) == spectra
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
    assert solves["eigh"] == solves["eigvalsh"] == []
    solves["cholesky"].clear()
    repaired = gate(np.diag([-5e-10, 0.3, 0.3, 0.4 + 5e-10]))
    # The Cholesky fails, one eigvalsh finds the negative, one eigh
    # repairs it, and a second eigvalsh solves the repaired matrix, whose
    # spectrum is kept: reading it solves nothing more.
    assert solves == {"cholesky": [(4, 4)], "eigh": [(4, 4)], "eigvalsh": [(4, 4)] * 2, "svd": []}
    assert repaired.eigenvalues[0] >= 0.0
    assert solves["eigvalsh"] == [(4, 4)] * 2


@pytest.mark.parametrize("gate", list(GATES.values()), ids=list(GATES))
def test_validate_density_solves_once_without_repair(gate, solves):
    rho = gate(np.diag([0.1, 0.2, 0.3, 0.4 + 2e-10]))
    # A positive-definite state: one Cholesky and no spectrum.
    assert solves == {"cholesky": [(4, 4)], "eigh": [], "eigvalsh": [], "svd": []}
    # The first read solves the spectrum of the stored matrix, and a second
    # read solves nothing.
    spectrum = rho.eigenvalues
    assert solves["eigvalsh"] == [(4, 4)]
    assert rho.eigenvalues is spectrum
    assert solves["eigvalsh"] == [(4, 4)]
    assert spectrum[0] >= 0.0
    assert not spectrum.flags.writeable


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 5), (8, 8)])
def test_maximally_mixed_needs_no_eigensolve(d1, d2, solves):
    rho = maximally_mixed(d1, d2)
    # Its spectrum is set at construction: reading it solves nothing.
    assert rho.eigenvalues[0] == 1.0 / (d1 * d2)
    assert solves == {"cholesky": [], "eigh": [], "eigvalsh": [], "svd": []}
    # The state the constructor would build, and the spectrum its
    # eigensolve would give, bit for bit.
    dim = d1 * d2
    built = DensityOperator(d1=d1, d2=d2, matrix=np.eye(dim) / dim)
    assert rho.matrix.dtype == built.matrix.dtype
    assert np.array_equal(rho.matrix, built.matrix)
    assert np.array_equal(rho.eigenvalues, built.eigenvalues)
    assert not rho.matrix.flags.writeable and not rho.eigenvalues.flags.writeable

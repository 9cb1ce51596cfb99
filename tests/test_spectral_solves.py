"""Spectral solves per command: each matrix on the certify path pays for one
eigensolve, eigenvectors are computed only where they are read, and the
candidate's Schmidt form is one SVD.

``numpy.linalg.eigh`` (eigenvalues and eigenvectors), ``eigvalsh``
(eigenvalues only) and ``svd`` are wrapped to record the shape of every
matrix they see.
"""

import json

import numpy as np
import pytest

from hardycert.cli import main
from hardycert.io import state_to_dict
from hardycert.states import validate_density
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
    # The trace distance still takes one spectrum of sigma - |psi><psi| per command.
    assert solves["eigvalsh"].count((DIM, DIM)) >= 2


@pytest.mark.parametrize("command", ["certify", "lhv-check"])
def test_explicit_candidate_schmidt_form_is_one_svd(command, files, solves, capsys):
    run([command, "--state", files["state"], "--candidate", files["candidate"]], capsys)
    assert solves["eigh"] == []
    assert solves["svd"] == [(D1, D2)]


def test_validate_density_computes_eigenvectors_only_to_repair(solves):
    validate_density(np.diag([0.1, 0.2, 0.3, 0.4]), 2, 2)
    assert solves["eigh"] == []
    repaired = validate_density(np.diag([-5e-10, 0.3, 0.3, 0.4 + 5e-10]), 2, 2)
    assert solves["eigh"] == [(4, 4)]
    assert repaired.eigenvalues[0] >= 0.0

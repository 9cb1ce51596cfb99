"""Seeded edge-case state files driven through every state-reading command.

Each file is fed to ``certify`` (with and without ``--candidate``),
``noise-threshold`` and ``lhv-check`` through ``cli.main``, both as the state
and as the candidate.  Every run must exit 0 with a JSON report or exit 2
with an error message; none may raise.
"""

import json

import numpy as np
import pytest

from hardycert.cli import main

SEED = 20061

HARDY_2X2 = {"kind": "pure", "dims": [2, 2], "amplitudes": [[0.2**0.5, 0], [0, 0], [0, 0], [0.8**0.5, 0]]}


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def _pure(dims, amplitudes):
    return {"kind": "pure", "dims": list(dims), "amplitudes": _pairs(amplitudes)}


def _mixed(dims, matrix):
    return {"kind": "mixed", "dims": list(dims), "matrix": [_pairs(row) for row in matrix]}


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _density(rng, dim):
    g = _complex(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unit(rng, dim):
    amps = _complex(rng, dim)
    return amps / np.linalg.norm(amps)


def edge_case_files(seed=SEED):
    """Name -> state-file payload, every number drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    cases = {}
    for dims in ((1, 1), (1, n), (n, 1)):
        tag = f"{dims[0]}x{dims[1]}"
        cases[f"pure-{tag}"] = _pure(dims, _unit(rng, dims[0] * dims[1]))
        cases[f"mixed-{tag}"] = _mixed(dims, _density(rng, dims[0] * dims[1]))
    # Dims that do not match the data.
    cases["pure-dims-too-large"] = _pure((n, n + 1), _unit(rng, n * n))
    cases["pure-dims-too-small"] = _pure((1, 1), _unit(rng, 2 * n))
    cases["mixed-dims-mismatch"] = _mixed((2, n), _density(rng, 2 * n + 1))
    cases["mixed-non-square"] = _mixed((2, 2), _density(rng, 4)[:3])
    cases["pure-zero-dims"] = _pure((0, n), [])
    # Zero or negative trace, and Hermitian matrices that are not PSD.
    u = np.linalg.qr(_complex(rng, 4, 4))[0]
    cases["mixed-zero-trace"] = _mixed((2, 2), np.zeros((4, 4)))
    cases["mixed-negative-trace"] = _mixed((2, 2), -_density(rng, 4))
    cases["mixed-traceless"] = _mixed((2, 2), (u * [0.5, 0.5, -0.5, -0.5]) @ u.conj().T)
    cases["mixed-non-psd"] = _mixed((2, 2), (u * [1.3, 0.2, -0.2, -0.3]) @ u.conj().T)
    cases["mixed-slightly-non-psd"] = _mixed((2, 2), (u * [0.7, 0.3, 1e-6, -1e-6]) @ u.conj().T)
    cases["mixed-non-psd-within-tol"] = _mixed((2, 2), (u * [0.7, 0.3, 1e-11, -1e-11]) @ u.conj().T)
    cases["pure-zero-vector"] = _pure((2, 2), np.zeros(4))
    # Empty amplitude lists and matrices.
    cases["pure-empty"] = _pure((2, 2), [])
    cases["pure-empty-1x1"] = _pure((1, 1), [])
    cases["mixed-empty"] = _mixed((2, 2), [])
    return cases


def _invocations(case, hardy):
    return (
        ["certify", "--state", case],
        # A tol of 2 admits the zero- and negative-trace files as "1 within tol".
        ["certify", "--state", case, "--tol", "2"],
        ["certify", "--state", case, "--candidate", case],
        ["certify", "--state", case, "--candidate", hardy],
        ["noise-threshold", "--state", case, "--noise", case],
        ["noise-threshold", "--state", hardy, "--noise", case],
        ["lhv-check", "--state", case, "--candidate", case],
        ["lhv-check", "--state", case, "--candidate", hardy],
    )


@pytest.mark.parametrize("name", sorted(edge_case_files()))
def test_edge_case_files_exit_0_or_2(name, tmp_path, capsys):
    case = tmp_path / f"{name}.json"
    case.write_text(json.dumps(edge_case_files()[name]))
    hardy = tmp_path / "hardy.json"
    hardy.write_text(json.dumps(HARDY_2X2))
    for argv in _invocations(str(case), str(hardy)):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2), argv
        if code == 0:
            assert err == "" and json.loads(out)["kind"] == argv[0], argv
        else:
            assert out == "" and err.startswith("error:"), argv

"""The verdict corpus: a fixed set of state files and command lines whose
reports are pinned in ``tests/data/corpus.json``, so that any change to a
report shows in that file's diff.

The state files are written here, under ``tmp_path``, from closed forms in
plain Python arithmetic (``math.sqrt``, complex products, integer matrices),
so their bytes, and the SHA-256 digests the expectations pin, do not depend
on the numpy version.  Every product and sum takes complex operands in a
fixed order, and no ``sum()`` runs: its float algorithm and the rules of
mixed real-complex arithmetic differ between Python versions.  The files
cover 2x2, 3x3 and 2x4 states: a Hardy pure state, its mixtures with white
noise and with a fixed full-rank noise state, and a product mixture; then a
1x1 state, a Bell state against itself, a ``gen-state white-noise-mix --p
1`` file (the density gate's repair path) and five malformed files.

Each command line runs through ``cli.main`` in this process, and its exit
status, its ``error:`` line and its report are compared with the
expectations, with the temporary directory masked as ``<tmp>``:

- exactly: exit statuses, error lines, strings, booleans, integers
  (verdicts, ``nonseparable``, ``feasible``, ``consistent``, the facet's
  class, coefficients and bound, the candidate source, input digests), and
  the key set of every object;
- within ``FLOAT_TOL``: every float (epsilon, ``a``, margin, ``p_star``,
  ``d_noise``, ``degeneracy_gap``, the table cells, ``max_violation``, the
  facet's violation);
- by their properties only: local-model weights, which are nonnegative,
  sum to 1 and reproduce the behavior's cells through
  ``strategy_constraint_matrix()`` within ``WEIGHT_TOL``.

A file written by a ``gen-state`` command line holds what the density
gate's eigensolver returns, whose last bits depend on the LAPACK build, so
its digest is not pinned: a report that reads it must carry the digest of
the bytes on disk.

To rewrite the expectations after an intended report change, run
``PYTHONPATH=src python tests/test_corpus.py --write`` from the repository
root, and explain the diff.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hardycert import certify, pure_density
from hardycert.cli import main
from hardycert.io import load_state_file
from hardycert.lhv import strategy_constraint_matrix
from hardycert.states import StateVector

EXPECTED = Path(__file__).resolve().parent / "data" / "corpus.json"
TMP = "<tmp>"
#: The digest recorded for a file that a ``gen-state`` command line wrote.
GENERATED = "<sha256 of the gen-state output on disk>"
#: The expectation recorded for a non-null weights list.
WEIGHTS = "<nonnegative, summing to 1, reproducing the cells>"
FLOAT_TOL = 1e-12
WEIGHT_TOL = 1e-9


# ------------------------------------------------------------ closed forms


def _total(values) -> complex:
    """Left-to-right sum."""
    return functools.reduce(operator.add, values)


def _scale(z: complex, divisor: float) -> complex:
    return complex(z.real / divisor, z.imag / divisor)


def _matmul(a: list, b: list) -> list:
    return [[_total(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _adjoint(a: list) -> list:
    return [[z.conjugate() for z in col] for col in zip(*a)]


def _unitary(dim: int, c: float, s: float) -> list:
    """The product of ``dim - 1`` complex Givens rotations ``[[c, -i s],
    [-i s, c]]`` on neighbouring basis vectors; unitary for c^2 + s^2 = 1."""
    u = [[complex(j == k) for k in range(dim)] for j in range(dim)]
    for j in range(dim - 1):
        g = [[complex(r == k) for k in range(dim)] for r in range(dim)]
        g[j][j] = g[j + 1][j + 1] = complex(c)
        g[j][j + 1] = g[j + 1][j] = complex(0.0, -s)
        u = _matmul(u, g)
    return u


def _hardy_amplitudes(squares: tuple, d1: int, d2: int) -> list:
    """sum_k sqrt(squares[k]) |u_k>|v_k>, with u_k, v_k the columns of two
    fixed unitaries."""
    u, v = _unitary(d1, 0.6, 0.8), _unitary(d2, 0.8, 0.6)
    weights = [complex(math.sqrt(q)) for q in squares]
    return [
        _total(w * u[i][k] * v[j][k] for k, w in enumerate(weights))
        for i in range(d1)
        for j in range(d2)
    ]


def _noise(dim: int, shift: int) -> list:
    """A fixed full-rank state (M M^H + I) / tr over a small integer matrix M."""
    m = [
        [complex((j + 2 * k + shift) % 3 - 1, (3 * j + k + shift) % 4 - 2) for k in range(dim)]
        for j in range(dim)
    ]
    gram = _matmul(m, _adjoint(m))
    for j in range(dim):
        gram[j][j] += complex(1.0)
    trace = _total(gram[j][j].real for j in range(dim))
    return [[_scale(z, trace) for z in row] for row in gram]


def _white(dim: int) -> list:
    return [[_scale(complex(j == k), dim) for k in range(dim)] for j in range(dim)]


def _mix(p: float, amps: list, noise: list) -> list:
    """p |psi><psi| + (1 - p) noise."""
    pure, rest = complex(p), complex(1.0 - p)
    return [
        [pure * (a * b.conjugate()) + rest * z for b, z in zip(amps, row)]
        for a, row in zip(amps, noise)
    ]


def _kron(a: list, b: list) -> list:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _product_mixture(d1: int, d2: int) -> list:
    """0.5 tau1 (x) tau2 + 0.3 tau1' (x) tau2' + 0.2 tau1'' (x) tau2''."""
    terms = [_kron(_noise(d1, shift), _noise(d2, shift + 1)) for shift in range(3)]
    shares = [complex(q) for q in (0.5, 0.3, 0.2)]
    return [
        [_total(q * term[j][k] for q, term in zip(shares, terms)) for k in range(d1 * d2)]
        for j in range(d1 * d2)
    ]


def _pure(dims: tuple, amps: list) -> dict:
    return {"kind": "pure", "dims": list(dims), "amplitudes": [[z.real, z.imag] for z in amps]}


def _mixed(dims: tuple, matrix: list) -> dict:
    rows = [[[z.real, z.imag] for z in row] for row in matrix]
    return {"kind": "mixed", "dims": list(dims), "matrix": rows}


#: Per dims: the squared Schmidt weights of the Hardy state, and the pure
#: weights of its three white-noise mixtures (certified; facet-violating but
#: not certified; local) and of its mixture with the full-rank noise.
FAMILIES = {
    "2x2": ((2, 2), (0.2, 0.8), (0.995, 0.9, 0.5), 0.995),
    "3x3": ((3, 3), (0.5, 0.3, 0.2), (0.997, 0.95, 0.5), 0.997),
    "2x4": ((2, 4), (0.8, 0.2), (0.995, 0.9, 0.5), 0.995),
}


def state_files() -> dict[str, bytes]:
    """Every state file the corpus writes itself, by name."""
    files = {}
    for tag, ((d1, d2), squares, (high, mid, low), tau_p) in FAMILIES.items():
        dims, dim = (d1, d2), d1 * d2
        amps = _hardy_amplitudes(squares, d1, d2)
        tau = _noise(dim, 0)
        files[f"hardy-{tag}.json"] = _pure(dims, amps)
        files[f"white-{tag}.json"] = _mixed(dims, _white(dim))
        files[f"tau-{tag}.json"] = _mixed(dims, tau)
        for name, p in (("high", high), ("mid", mid), ("low", low)):
            files[f"white-{name}-{tag}.json"] = _mixed(dims, _mix(p, amps, _white(dim)))
        files[f"tau-mix-{tag}.json"] = _mixed(dims, _mix(tau_p, amps, tau))
        files[f"product-{tag}.json"] = _mixed(dims, _product_mixture(d1, d2))
    files["one-1x1.json"] = _pure((1, 1), [complex(1.0)])
    texts = {name: json.dumps(payload) for name, payload in files.items()}
    # Malformed: a non-Hermitian matrix, a 4x4 matrix under dims 2x3, a
    # repeated key and a bool dimension; then bytes that are not UTF-8.
    skewed = _white(4)
    skewed[0][1] = complex(0.1)
    texts["non-hermitian.json"] = json.dumps(_mixed((2, 2), skewed))
    texts["wrong-shape.json"] = json.dumps(_mixed((2, 3), _white(4)))
    texts["repeated-key.json"] = texts["hardy-2x2.json"].replace("{", '{"kind": "mixed", ', 1)
    texts["bool-dims.json"] = json.dumps({**files["hardy-2x2.json"], "dims": [True, 2]})
    encoded = {name: text.encode() for name, text in texts.items()}
    encoded["latin-1.json"] = json.dumps(files["one-1x1.json"]).replace("pure", "pur\xe9").encode(
        "latin-1"
    )
    return encoded


def command_lines() -> list[list[str]]:
    """The corpus's command lines, in run order, over ``<tmp>`` paths."""
    def f(name: str) -> str:
        return f"{TMP}/{name}"

    argvs = []
    for tag in FAMILIES:
        hardy = f(f"hardy-{tag}.json")
        argvs += [
            ["certify", "--state", f(f"white-high-{tag}.json")],
            ["certify", "--state", f(f"white-high-{tag}.json"), "--candidate", hardy],
            ["certify", "--state", f(f"tau-mix-{tag}.json"), "--candidate", hardy],
            ["certify", "--state", f(f"product-{tag}.json"), "--candidate", hardy],
            ["certify", "--state", hardy],
            ["noise-threshold", "--state", hardy, "--noise", f(f"white-{tag}.json")],
            ["noise-threshold", "--state", hardy, "--noise", f(f"tau-{tag}.json")],
        ]
        argvs += [
            ["lhv-check", "--state", f(f"{name}-{tag}.json"), "--candidate", hardy]
            for name in ("white-high", "white-mid", "white-low", "tau-mix", "product")
        ]
    argvs += [
        ["gen-state", "bell", "--output", f("bell.json")],
        ["certify", "--state", f("bell.json"), "--candidate", f("bell.json")],
        ["gen-state", "white-noise-mix", "--p", "1"],
        ["gen-state", "white-noise-mix", "--p", "1", "--output", f("rank-one.json")],
        ["certify", "--state", f("rank-one.json")],
        ["lhv-check", "--state", f("rank-one.json"), "--candidate", f("hardy-2x2.json")],
        ["certify", "--state", f("one-1x1.json")],
        ["noise-threshold", "--state", f("one-1x1.json"), "--noise", f("one-1x1.json")],
    ]
    argvs += [
        ["certify", "--state", f(name)]
        for name in (
            "non-hermitian.json", "wrong-shape.json", "repeated-key.json", "bool-dims.json",
            "latin-1.json",
        )
    ]
    return argvs


# ------------------------------------------------------------------ running


def write_inputs(root: Path) -> dict[str, str]:
    """Write the corpus's own state files under ``root``: their digests."""
    digests = {}
    for name, data in state_files().items():
        (root / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def run(argv: list[str], root: Path) -> dict:
    """One command line through ``main``, with ``<tmp>`` standing for
    ``root``: its status, standard error and report, paths masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([arg.replace(TMP, str(root)) for arg in argv])
    stdout = out.getvalue().replace(str(root), TMP)
    return {
        "argv": argv,
        "status": status,
        "stderr": err.getvalue().replace(str(root), TMP),
        "report": json.loads(stdout) if stdout else None,
    }


def run_corpus(root: Path) -> tuple[dict[str, str], list[dict]]:
    digests = write_inputs(root)
    return digests, [run(argv, root) for argv in command_lines()]


def expectation(result: dict, digests: dict[str, str]) -> dict:
    """A run's result as the expectations file records it: weights by their
    placeholder, and the digest of a generated file by its placeholder."""
    def record(value, key=None):
        if isinstance(value, dict):
            if set(value) == {"path", "sha256"} and Path(value["path"]).name not in digests:
                return {"path": value["path"], "sha256": GENERATED}
            return {k: record(v, k) for k, v in value.items()}
        if key == "weights" and value is not None:
            return WEIGHTS
        return value

    return record(result)


def write_expectations() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests, results = run_corpus(Path(tmp))
        runs = [expectation(result, digests) for result in results]
    EXPECTED.parent.mkdir(exist_ok=True)
    text = json.dumps({"inputs": digests, "runs": runs}, indent=1, sort_keys=True)
    EXPECTED.write_text(text + "\n")


# --------------------------------------------------------------- comparing


def cells_of(report: dict, root: Path) -> np.ndarray:
    """The 37 right-hand sides that an lhv-check report's weights must
    reproduce: the behavior's cells, each table divided by its sum, then 1."""
    inputs = report["inputs"]
    paths = {name: Path(entry["path"].replace(TMP, str(root))) for name, entry in inputs.items()}
    state = load_state_file(paths["state"])[0]
    sigma = pure_density(state) if isinstance(state, StateVector) else state
    tables = certify(sigma, load_state_file(paths["candidate"])[0]).behavior.tables
    cells = tables / tables.sum(axis=(2, 3), keepdims=True)
    return np.append(cells.reshape(-1), 1.0)


def check_weights(weights: list, report: dict, root: Path) -> None:
    w = np.array(weights)
    assert w.shape == (81,) and (w >= 0.0).all()
    assert abs(w.sum() - 1.0) <= WEIGHT_TOL
    residual = strategy_constraint_matrix() @ w - cells_of(report, root)
    assert np.abs(residual).max() <= WEIGHT_TOL


def compare(got, want, where: str, context: dict) -> None:
    """Assert ``got`` matches ``want`` by the rules of the module docstring."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        if want.get("sha256") == GENERATED:
            on_disk = Path(got["path"].replace(TMP, str(context["root"]))).read_bytes()
            assert got["sha256"] == hashlib.sha256(on_disk).hexdigest(), where
            want = {**want, "sha256": got["sha256"]}
        for key in want:
            compare(got[key], want[key], f"{where}.{key}", context)
    elif want == WEIGHTS:
        check_weights(got, context["report"], context["root"])
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{where}[{k}]", context)
    elif type(want) is float:
        assert type(got) is float and abs(got - want) <= FLOAT_TOL, (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    digests, results = run_corpus(root)
    return root, digests, results


@functools.cache
def _expected() -> dict:
    return json.loads(EXPECTED.read_text())


def test_corpus_inputs_and_command_lines_are_pinned(corpus):
    _, digests, results = corpus
    expected = _expected()
    assert digests == expected["inputs"]
    assert [result["argv"] for result in results] == [case["argv"] for case in expected["runs"]]


def _case_id(argv: list[str]) -> str:
    files = [Path(arg).stem for arg in argv if arg.startswith(TMP)]
    return "-".join([argv[0], *files]) if files else " ".join(argv)


@pytest.mark.parametrize(
    "index", range(len(command_lines())), ids=[_case_id(argv) for argv in command_lines()]
)
def test_corpus_report_matches_its_expectation(corpus, index):
    root, _, results = corpus
    got, want = results[index], _expected()["runs"][index]
    context = {"root": root, "report": got["report"]}
    compare(got, want, " ".join(want["argv"]), context)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {EXPECTED})")
    write_expectations()

"""JSON state files and report payloads for the command-line tools.

A state file is a single JSON object:

    {"kind": "pure",  "dims": [d1, d2], "amplitudes": [[re, im], ...]}
    {"kind": "mixed", "dims": [d1, d2], "matrix": [[[re, im], ...], ...]}

Amplitudes are indexed row-major over |i>|j| and matrix rows run over the
same product basis.  Serialization goes through Python's shortest-repr float
formatting, so parse(serialize(x)) reproduces every number bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .certification import CertificationReport, NoiseThresholdReport, Verdict
from .errors import StateFileError
from .lhv import LhvResult
from .states import STATE_TOL, DensityOperator, StateVector, validate_density

TOOL_NAME = "hardycert"


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_complex(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        # JSON true/false parse to bool, which Python counts as an int.
        or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in value)
    ):
        raise StateFileError(f"{where}: expected a [re, im] pair, got {value!r}")
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError:
        raise StateFileError(f"{where}: integer too large for a float") from None


def state_to_dict(state: StateVector | DensityOperator) -> dict:
    """Serialize a state to the JSON object layout."""
    if isinstance(state, StateVector):
        return {
            "kind": "pure",
            "dims": [state.d1, state.d2],
            "amplitudes": [_complex_pair(z) for z in state.amplitudes],
        }
    if isinstance(state, DensityOperator):
        return {
            "kind": "mixed",
            "dims": [state.d1, state.d2],
            "matrix": [[_complex_pair(z) for z in row] for row in state.matrix],
        }
    raise TypeError(f"cannot serialize {type(state).__name__} as a state")


def parse_state_dict(data, tol: float = STATE_TOL) -> StateVector | DensityOperator:
    """Parse a state-file JSON object back into a validated state.

    Structural problems raise StateFileError; physical-invariant violations
    (norm, hermiticity, trace, positivity) surface as the state modules'
    own errors.
    """
    if not isinstance(data, dict):
        raise StateFileError(f"state file must hold a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("pure", "mixed"):
        raise StateFileError(f'"kind" must be "pure" or "mixed", got {kind!r}')
    dims = data.get("dims")
    if (
        not isinstance(dims, (list, tuple))
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise StateFileError(f'"dims" must be two positive integers, got {dims!r}')
    d1, d2 = int(dims[0]), int(dims[1])
    if kind == "pure":
        raw = data.get("amplitudes")
        if not isinstance(raw, list):
            raise StateFileError('"amplitudes" must be a list of [re, im] pairs')
        amps = np.array(
            [_parse_complex(entry, f"amplitudes[{k}]") for k, entry in enumerate(raw)]
        )
        return StateVector(d1=d1, d2=d2, amplitudes=amps)
    raw = data.get("matrix")
    dim = d1 * d2
    if not isinstance(raw, list) or len(raw) != dim or not all(
        isinstance(row, list) and len(row) == dim for row in raw
    ):
        raise StateFileError(f'"matrix" must be {dim} rows of {dim} [re, im] pairs')
    matrix = np.array(
        [
            [_parse_complex(entry, f"matrix[{i}][{j}]") for j, entry in enumerate(row)]
            for i, row in enumerate(raw)
        ]
    )
    return validate_density(matrix, d1, d2, tol=tol)


def load_state_file(path: Path | str, tol: float = STATE_TOL) -> StateVector | DensityOperator:
    """Read and parse one state file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise StateFileError(f"{path}: JSON nested too deeply") from None
    return parse_state_dict(data, tol=tol)


def dump_json(data: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def file_digest(path: Path | str) -> str:
    """Hex SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def certification_to_dict(report: CertificationReport) -> dict:
    body: dict = {
        "epsilon": report.epsilon,
        "a": report.a,
        "margin": report.margin,
        "verdict": report.verdict.value,
        "nonseparable": report.verdict is Verdict.NONLOCAL_CERTIFIED,
        "pair": None,
        "table": None,
    }
    if report.pair is not None:
        body["pair"] = {
            "index_small": report.pair.index_small,
            "index_large": report.pair.index_large,
            "p1": report.pair.p1,
            "p2": report.pair.p2,
            "a": report.pair.a,
        }
    if report.table is not None:
        body["table"] = dict(report.table._asdict())
    return body


def noise_threshold_to_dict(report: NoiseThresholdReport) -> dict:
    return {"p_star": report.p_star, "d_noise": report.d_noise, "a": report.a}


def lhv_result_to_dict(result: LhvResult) -> dict:
    return {
        "feasible": result.feasible,
        "max_violation": result.max_violation,
        "weights": None if result.weights is None else [float(w) for w in result.weights],
    }


def report_payload(kind: str, body: dict, inputs: dict[str, Path | str]) -> dict:
    """Wrap a report body with tool identity and input digests."""
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "kind": kind,
        "inputs": {
            name: {"path": str(path), "sha256": file_digest(path)}
            for name, path in inputs.items()
        },
        "report": body,
    }


__all__ = [
    "TOOL_NAME",
    "certification_to_dict",
    "dump_json",
    "file_digest",
    "lhv_result_to_dict",
    "load_state_file",
    "noise_threshold_to_dict",
    "parse_state_dict",
    "report_payload",
    "state_to_dict",
]

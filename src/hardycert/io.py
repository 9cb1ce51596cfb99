"""The JSON state-file format that the command-line tools read and write.
The reports built from these files are laid out in ``cli``.

A state file is a single JSON object:

    {"kind": "pure",  "dims": [d1, d2], "amplitudes": [[re, im], ...]}
    {"kind": "mixed", "dims": [d1, d2], "matrix": [[[re, im], ...], ...]}

Amplitudes are indexed row-major over |i>|j| and matrix rows run over the
same product basis.  Serialization goes through Python's shortest-repr float
formatting, so every number in a file parses back bit for bit, and so does a
pure state.  A mixed state is parsed through ``validate_density``, which
keeps a matrix with a nonnegative spectrum as it is, so a validated state
written by ``state_to_dict`` parses back bit for bit too.

Each direction is one array conversion per file, not one Python call per
entry: the pairs are read in one flat pass in file order, checked by type
and converted by one float array, and written from one stacked ``(..., 2)``
float array.  A malformed file still fails with an error naming its first
bad entry, found by walking the same flat pairs in file order.
A state file is read once, and ``load_state_file`` returns the digest of the
bytes it parsed.  A file whose objects repeat a key is refused: ``json``
keeps the last of them, and a reader that kept the first would parse a
different state.  ``dump_json`` writes state files and reports alike.
"""

from __future__ import annotations

import hashlib
import json
from io import BytesIO, TextIOWrapper
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import HardycertError, StateFileError
from .states import STATE_TOL, DensityOperator, StateVector, validate_density


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` of the state-file parser: an object's pairs as
    a dict, refusing a repeated key."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise StateFileError(f"duplicate key {key!r}")
        data[key] = value
    return data


def _is_number_type(kind: type) -> bool:
    # JSON true/false parse to bool, which Python counts as an int.
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _complex_array(raw: list, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``raw``, a list of ``[re, im]`` pairs (a list of rows of them when
    ``shape`` has two axes), as a complex array of ``shape``.

    The pair rule: a pair is a list or tuple of two ints or floats, never
    bools, and each part must fit a float.  The pairs are flattened once, in
    file order, and so are their parts.  Set checks on the pairs' types and
    lengths and on the parts' types apply the rule's type half to all of
    them at once.  One float array of the parts is then viewed as complex,
    which holds exactly the values ``complex(float(re), float(im))`` would,
    ``-0.0`` included, with no arithmetic; only an int too large for a float
    makes it fail.  When anything fails, the same flat pairs are walked in
    file order against the rule, so the error names the first bad one, as
    ``name[i][j]`` or ``name[k]``.
    """
    pairs = list(chain.from_iterable(raw)) if len(shape) == 2 else raw
    pair_kinds = set(map(type, pairs))
    if all(issubclass(kind, (list, tuple)) for kind in pair_kinds) and set(map(len, pairs)) <= {2}:
        parts = list(chain.from_iterable(pairs))
        try:
            if all(map(_is_number_type, set(map(type, parts)))):
                return np.array(parts, dtype=float).view(complex).reshape(shape)
        except OverflowError:
            pass
    for k, pair in enumerate(pairs):
        where = name + (f"[{k // shape[-1]}][{k % shape[-1]}]" if len(shape) == 2 else f"[{k}]")
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(_is_number_type(type(part)) for part in pair)
        ):
            raise StateFileError(f"{where}: expected a [re, im] pair, got {pair!r}")
        try:
            complex(float(pair[0]), float(pair[1]))
        except OverflowError:
            raise StateFileError(f"{where}: integer too large for a float") from None
    raise StateFileError(f'"{name}" must be nested [re, im] pairs of shape {shape}')


def state_to_dict(state: StateVector | DensityOperator) -> dict:
    """Serialize a state to the JSON object layout: its dims as Python ints,
    whatever integer type the state holds, and its amplitudes or matrix as
    nested ``[re, im]`` lists of Python floats, stacked into one ``(..., 2)``
    float array and converted by one ``tolist``."""
    if isinstance(state, StateVector):
        kind, key, values = "pure", "amplitudes", state.amplitudes
    elif isinstance(state, DensityOperator):
        kind, key, values = "mixed", "matrix", state.matrix
    else:
        raise TypeError(f"cannot serialize {type(state).__name__} as a state")
    pairs = np.stack((values.real, values.imag), axis=-1).tolist()
    return {"kind": kind, "dims": [int(state.d1), int(state.d2)], key: pairs}


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
        amps = _complex_array(raw, (len(raw),), "amplitudes")
        return StateVector(d1=d1, d2=d2, amplitudes=amps)
    raw = data.get("matrix")
    dim = d1 * d2
    if not isinstance(raw, list) or len(raw) != dim or not all(
        isinstance(row, list) and len(row) == dim for row in raw
    ):
        raise StateFileError(f'"matrix" must be {dim} rows of {dim} [re, im] pairs')
    matrix = _complex_array(raw, (dim, dim), "matrix")
    return validate_density(matrix, d1, d2, tol=tol)


def load_state_file(
    path: Path | str, tol: float = STATE_TOL
) -> tuple[StateVector | DensityOperator, str]:
    """Read one state file once: its parsed state and the hex SHA-256 of the
    bytes parsed, so a report's digest describes the state it certified.
    Every package error the file causes keeps its type and starts with
    ``path``, so a caller that reads two files can tell which is bad."""
    raw = Path(path).read_bytes()
    try:
        # UTF-8 with universal newlines, as text-mode reading gives, so JSON
        # error positions count a CRLF file's line ends as one character.
        text = TextIOWrapper(BytesIO(raw), encoding="utf-8").read()
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            # Malformed JSON, or an integer literal longer than Python's
            # int-string limit, which json reports as a plain ValueError.
            # Caught here only: a bad ``tol`` raises its own ValueError below.
            raise StateFileError(f"not valid JSON ({exc})") from exc
        state = parse_state_dict(data, tol=tol)
    except HardycertError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError:
        raise StateFileError(f"{path}: JSON nested too deeply") from None
    return state, hashlib.sha256(raw).hexdigest()


def dump_json(data: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


__all__ = ["dump_json", "load_state_file", "parse_state_dict", "state_to_dict"]

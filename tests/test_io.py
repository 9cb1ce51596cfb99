import hashlib
import json
import re
import sys

import numpy as np
import pytest

from hardycert import DensityOperator, StateVector, maximally_mixed
from hardycert.cli import main
from hardycert.errors import NotUnitTraceError, StateFileError
from hardycert.io import (
    _complex_array,
    dump_json,
    load_state_file,
    parse_state_dict,
    state_to_dict,
)
from hardycert.states import STATE_TOL, validate_density
from support import fixture_state, random_density, random_state_vector


# ------------------------------------------- per-entry reference (the old io)


def _reference_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def reference_state_to_dict(state) -> dict:
    """The writer as it was: one Python call per entry."""
    if isinstance(state, StateVector):
        return {
            "kind": "pure",
            "dims": [state.d1, state.d2],
            "amplitudes": [_reference_pair(z) for z in state.amplitudes],
        }
    return {
        "kind": "mixed",
        "dims": [state.d1, state.d2],
        "matrix": [[_reference_pair(z) for z in row] for row in state.matrix],
    }


def _reference_parse_complex(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in value)
    ):
        raise StateFileError(f"{where}: expected a [re, im] pair, got {value!r}")
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError:
        raise StateFileError(f"{where}: integer too large for a float") from None


def reference_entries(raw: list, nested: bool) -> np.ndarray:
    """The per-entry conversion as it was, in file order."""
    if nested:
        return np.array(
            [
                [_reference_parse_complex(entry, f"matrix[{i}][{j}]") for j, entry in enumerate(row)]
                for i, row in enumerate(raw)
            ]
        )
    return np.array(
        [_reference_parse_complex(entry, f"amplitudes[{k}]") for k, entry in enumerate(raw)]
    )


def reference_parse_state_dict(data, tol: float = STATE_TOL):
    """``parse_state_dict`` as it was, per-entry conversion included."""
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
        return StateVector(d1=d1, d2=d2, amplitudes=reference_entries(raw, nested=False))
    raw = data.get("matrix")
    dim = d1 * d2
    if not isinstance(raw, list) or len(raw) != dim or not all(
        isinstance(row, list) and len(row) == dim for row in raw
    ):
        raise StateFileError(f'"matrix" must be {dim} rows of {dim} [re, im] pairs')
    return validate_density(reference_entries(raw, nested=True), d1, d2, tol=tol)


def _outcome(parse, data):
    """What ``parse(data)`` gives: the state's array, or the exception raised."""
    try:
        state = parse(data)
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return state.amplitudes if isinstance(state, StateVector) else state.matrix


def assert_same_outcome(data):
    want = _outcome(reference_parse_state_dict, data)
    got = _outcome(parse_state_dict, data)
    if isinstance(want, tuple):
        assert got == want, data
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


# Leaves that JSON can carry and that are numbers: ints, signed zeros, the
# smallest subnormals, an int exact as a float but past 2**53, and ints that
# a float must round.
SPECIAL_PARTS = (0, 1, -1, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-310, 2**70, 2**53 + 1, -(3**40))


def _sprinkled(raw: list, rng: np.random.Generator, nested: bool) -> list:
    """``raw`` with a seeded quarter of its numbers swapped for special leaves."""
    pairs = [pair for row in raw for pair in row] if nested else raw
    for pair in pairs:
        for part in range(2):
            if rng.random() < 0.25:
                pair[part] = SPECIAL_PARTS[rng.integers(len(SPECIAL_PARTS))]
    return raw


def _zeros_respelled(raw: list, rng: np.random.Generator, nested: bool) -> list:
    """``raw`` with every exact zero written as ``0``, ``-0.0`` or a subnormal."""
    pairs = [pair for row in raw for pair in row] if nested else raw
    for pair in pairs:
        for part in range(2):
            if pair[part] == 0.0:
                pair[part] = (0, -0.0, 0.0, 5e-324, -5e-324)[rng.integers(5)]
    return raw


# --------------------------------------------------------------- round trips


def test_pure_round_trip_is_bit_exact():
    rng = np.random.default_rng(71)
    for dims in ((2, 3), (8, 8)):
        for _ in range(10):
            parts = rng.normal(size=(2, dims[0] * dims[1]))
            parts[1, 0] = parts[0, -1] = -0.0
            parts /= np.linalg.norm(parts)
            amps = np.empty(parts.shape[1], dtype=complex)
            amps.real, amps.imag = parts
            psi = StateVector(d1=dims[0], d2=dims[1], amplitudes=amps)
            text = dump_json(state_to_dict(psi))
            assert text == dump_json(reference_state_to_dict(psi))
            assert [line.strip(" ,") for line in text.splitlines()].count("-0.0") == 2
            back = parse_state_dict(json.loads(text))
            assert isinstance(back, StateVector)
            assert (back.d1, back.d2) == dims
            assert np.array_equal(back.amplitudes, psi.amplitudes)
            assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()


def test_mixed_round_trip():
    rng = np.random.default_rng(72)
    for dims in ((2, 2), (8, 8)):
        for _ in range(10):
            matrix = random_density(*dims, rng).matrix.copy()
            # Cut the first basis state off (still a density matrix), with
            # signed zeros that the Hermitian part taken at validation keeps
            # in part.
            matrix[0, 1:] = matrix[1:, 0] = 0.0
            matrix[0, 1] = complex(-0.0, 0.0)
            matrix[1, 0] = complex(-0.0, -0.0)
            sigma = DensityOperator(d1=dims[0], d2=dims[1], matrix=matrix)
            text = dump_json(state_to_dict(sigma))
            assert text == dump_json(reference_state_to_dict(sigma))
            assert "-0.0" in [line.strip(" ,") for line in text.splitlines()]
            back = parse_state_dict(json.loads(text))
            assert isinstance(back, DensityOperator)
            # validate_density may renormalize by a hair; the matrices agree to
            # far below the validation tolerance.
            assert np.max(np.abs(back.matrix - sigma.matrix)) < 1e-15


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "state.json"
    psi = fixture_state()
    path.write_text(dump_json(state_to_dict(psi)))
    back, _ = load_state_file(path)
    assert isinstance(back, StateVector)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_parse_matches_per_entry_reference():
    rng = np.random.default_rng(73)
    for dims in ((1, 1), (2, 3), (8, 8)):
        dim = dims[0] * dims[1]
        for _ in range(4):
            pure = reference_state_to_dict(random_state_vector(*dims, rng))
            mixed = reference_state_to_dict(random_density(*dims, rng))
            # Valid as written, then with special leaves (mostly invalid
            # states after that, so both parsers must raise alike).
            assert_same_outcome(pure)
            assert_same_outcome(mixed)
            assert_same_outcome({**pure, "amplitudes": _sprinkled(pure["amplitudes"], rng, False)})
            assert_same_outcome({**mixed, "matrix": _sprinkled(mixed["matrix"], rng, True)})
            # Still valid states: zero out a random part of the vector, and
            # the blocks of the matrix between a random split of the basis,
            # then respell the zeros.
            amps = random_state_vector(*dims, rng).amplitudes * (rng.random(dim) < 0.5)
            amps[0] = 1.0 if not amps.any() else amps[0]
            pure = reference_state_to_dict(StateVector(*dims, amps / np.linalg.norm(amps)))
            side = rng.random(dim) < 0.5
            matrix = random_density(*dims, rng).matrix * np.equal.outer(side, side)
            mixed = reference_state_to_dict(DensityOperator(*dims, matrix))
            for data in (
                {**pure, "amplitudes": _zeros_respelled(pure["amplitudes"], rng, False)},
                {**mixed, "matrix": _zeros_respelled(mixed["matrix"], rng, True)},
            ):
                assert isinstance(_outcome(reference_parse_state_dict, data), np.ndarray)
                assert_same_outcome(data)
            # The raw conversion alone, before any physical validation.
            raw = _sprinkled([_reference_pair(z) for z in rng.normal(size=dim)], rng, False)
            got = _complex_array(raw, (dim,), "amplitudes")
            want = reference_entries(raw, nested=False)
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
            raw = _sprinkled([[_reference_pair(z) for z in row] for row in rng.normal(size=(dim, dim))], rng, True)
            got = _complex_array(raw, (dim, dim), "matrix")
            want = reference_entries(raw, nested=True)
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype


def test_parse_errors_match_per_entry_reference():
    bad_entries = (
        [True, 0.0],
        [0.0, False],
        ["0.5", 0.0],
        [None, 0.0],
        [0.5],
        [0.5, 0.0, 0.0],
        [[0.5], 0.0],
        [[0.5, 0.0]],
        [],
        "0.5",
        None,
        0.5,
        {"re": 0.5, "im": 0.0},
        [10**400, 0.0],
        [0.0, -(10**400)],
        [2**70, 0.0],
        [float("nan"), 0.0],
        [-0.0, -0.0],
    )
    pure = reference_state_to_dict(fixture_state())
    mixed = reference_state_to_dict(maximally_mixed(2, 2))
    for entry in bad_entries:
        for k in (0, 2, 3):                       # first, mid, last
            amps = [list(pair) for pair in pure["amplitudes"]]
            amps[k] = entry
            assert_same_outcome({**pure, "amplitudes": amps})
        for i, j in ((0, 0), (1, 2), (3, 3)):     # first, mid-matrix, last
            matrix = [[list(pair) for pair in row] for row in mixed["matrix"]]
            matrix[i][j] = entry
            assert_same_outcome({**mixed, "matrix": matrix})
        # Two bad entries: the first in file order is the one named.
        matrix = [[list(pair) for pair in row] for row in mixed["matrix"]]
        matrix[1][3], matrix[2][0] = entry, ["x", 0]
        assert_same_outcome({**mixed, "matrix": matrix})
    # Ragged or missing rows, and amplitude lists of the wrong length.
    for rows in (mixed["matrix"][:3], [*mixed["matrix"][:3], mixed["matrix"][3][:3]], [[]] * 4):
        assert_same_outcome({**mixed, "matrix": rows})
    for amps in ([], pure["amplitudes"][:3], [*pure["amplitudes"], [0, 0]]):
        assert_same_outcome({**pure, "amplitudes": amps})


def test_tuple_pairs_parse_like_list_pairs():
    pure = reference_state_to_dict(fixture_state())
    mixed = reference_state_to_dict(maximally_mixed(2, 2))
    tupled_pure = {**pure, "amplitudes": [tuple(pair) for pair in pure["amplitudes"]]}
    tupled_mixed = {**mixed, "matrix": [[tuple(pair) for pair in row] for row in mixed["matrix"]]}
    # Every other pair a tuple, the rest lists.
    alternating = [tuple(pair) if k % 2 else pair for k, pair in enumerate(pure["amplitudes"])]
    mixed_kinds = {**pure, "amplitudes": alternating}
    for data, listed in ((tupled_pure, pure), (tupled_mixed, mixed), (mixed_kinds, pure)):
        assert_same_outcome(data)
        got, want = _outcome(parse_state_dict, data), _outcome(parse_state_dict, listed)
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()


def test_bytes_and_array_pairs_are_refused_like_the_reference():
    pure = reference_state_to_dict(fixture_state())
    mixed = reference_state_to_dict(maximally_mixed(2, 2))
    # Bytes have a length and iterate as ints: read as a pair, b"\x01\x00"
    # would be 1+0j, a different state.
    for entry in (b"\x01\x00", bytearray(b"\x01\x00"), np.array([0.5, 0.0])):
        amps = [list(pair) for pair in pure["amplitudes"]]
        amps[1] = entry
        assert _outcome(reference_parse_state_dict, {**pure, "amplitudes": amps})[0] is StateFileError
        assert_same_outcome({**pure, "amplitudes": amps})
        matrix = [[list(pair) for pair in row] for row in mixed["matrix"]]
        matrix[2][1] = entry
        assert_same_outcome({**mixed, "matrix": matrix})
    # Every pair a numpy array, as a Python caller might build them.
    amps = [np.array(pair) for pair in pure["amplitudes"]]
    with pytest.raises(StateFileError, match=r"^amplitudes\[0\]: expected a \[re, im\] pair, got array"):
        parse_state_dict({**pure, "amplitudes": amps})
    assert_same_outcome({**pure, "amplitudes": amps})
    matrix = [[np.array(pair) for pair in row] for row in mixed["matrix"]]
    with pytest.raises(StateFileError, match=r"^matrix\[0\]\[0\]: expected a \[re, im\] pair, got array"):
        parse_state_dict({**mixed, "matrix": matrix})
    assert_same_outcome({**mixed, "matrix": matrix})


@pytest.mark.parametrize("column", [0, 4, 8])
def test_the_one_bad_pair_in_the_last_row_of_a_3x3_file_is_named(tmp_path, column):
    data = state_to_dict(maximally_mixed(3, 3))
    data["matrix"][8][column] = [0.0, "0"]
    assert_same_outcome(data)
    path = tmp_path / "mixed-3x3.json"
    path.write_text(dump_json(data))
    bad = rf"matrix\[8\]\[{column}\]: expected a \[re, im\] pair, got \[0\.0, '0'\]"
    with pytest.raises(StateFileError, match=rf"^{re.escape(str(path))}: {bad}$"):
        load_state_file(path)


# ---------------------------------------------------------------- bad input


def test_state_to_dict_refuses_other_objects():
    with pytest.raises(TypeError, match="cannot serialize object as a state"):
        state_to_dict(object())


def test_parse_rejects_non_object():
    with pytest.raises(StateFileError):
        parse_state_dict([1, 2, 3])


def test_parse_rejects_unknown_kind():
    with pytest.raises(StateFileError):
        parse_state_dict({"kind": "thermal", "dims": [2, 2], "matrix": []})


def test_parse_refuses_keys_outside_the_kinds_layout():
    # Each kind holds "kind", "dims" and its own payload key, and nothing
    # else; the first other key in sorted order is named.
    pure = state_to_dict(fixture_state())
    mixed = state_to_dict(maximally_mixed(2, 2))
    for good, extra, named in (
        (pure, {"matrix": mixed["matrix"]}, "matrix"),
        (pure, {"zeta": 1, "Dims": [3, 3], "comment": ""}, "Dims"),
        (mixed, {"amplitudes": pure["amplitudes"]}, "amplitudes"),
        (mixed, {"kinds": "pure"}, "kinds"),
    ):
        message = f"unexpected key {named!r} in a {good['kind']} state file"
        with pytest.raises(StateFileError, match=f"^{re.escape(message)}$"):
            parse_state_dict({**good, **extra})
        parse_state_dict(good)


def test_parse_rejects_bad_dims():
    good = state_to_dict(fixture_state())
    for dims in ([2], [2, 0], [2.0, 2.0], "2x2", None, [True, 2]):
        data = dict(good)
        data["dims"] = dims
        with pytest.raises(StateFileError):
            parse_state_dict(data)


def test_parse_rejects_malformed_amplitudes():
    data = state_to_dict(fixture_state())
    data["amplitudes"][1] = [0.1]            # not a pair
    with pytest.raises(StateFileError):
        parse_state_dict(data)
    data["amplitudes"][1] = [True, False]    # JSON booleans are not numbers
    with pytest.raises(StateFileError):
        parse_state_dict(data)
    data["amplitudes"] = "not a list"
    with pytest.raises(StateFileError):
        parse_state_dict(data)


def test_parse_rejects_malformed_matrix():
    data = state_to_dict(maximally_mixed(2, 2))
    data["matrix"] = data["matrix"][:3]       # wrong row count
    with pytest.raises(StateFileError):
        parse_state_dict(data)


def test_parse_surfaces_physical_violations():
    data = state_to_dict(maximally_mixed(2, 2))
    data["matrix"][0][0] = [0.5, 0.0]         # trace now 1.25
    with pytest.raises(NotUnitTraceError):
        parse_state_dict(data)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(StateFileError):
        load_state_file(path)
    # The message is the one a text-mode read gives: a CRLF line end counts
    # as one character, and a byte-order mark is rejected.
    for raw in (b'{"kind": "pure",\r\n "dims": [2, 2],\r\n oops}', b'\xef\xbb\xbf{"kind": "pure"}'):
        path.write_bytes(raw)
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(path.read_text(encoding="utf-8"))
        with pytest.raises(StateFileError) as got:
            load_state_file(path)
        assert str(got.value) == f"{path}: not valid JSON ({want.value})"


def test_load_catches_only_the_json_step_value_errors(tmp_path):
    # An integer literal past Python's int-string limit makes json raise a
    # plain ValueError, which used to escape without the file's path.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-string limit")
    huge = tmp_path / "huge.json"
    literal = "1" * (limit + 1)
    huge.write_text('{"kind": "pure", "dims": [1, 2], "amplitudes": [[' + literal + ", 0], [0, 0]]}")
    with pytest.raises(ValueError) as want:
        json.loads(huge.read_text())
    with pytest.raises(StateFileError) as got:
        load_state_file(huge)
    assert str(got.value) == f"{huge}: not valid JSON ({want.value})"
    # A tolerance that is no finite number >= 0 is the caller's error, not
    # the file's: it keeps its own ValueError.
    mixed = tmp_path / "mixed.json"
    mixed.write_text(dump_json(state_to_dict(maximally_mixed(2, 2))))
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0"):
        load_state_file(mixed, tol=float("nan"))


def test_load_refuses_a_repeated_key(tmp_path, capsys):
    # json keeps the last of two equal keys: here 0.6|00> + 0.8|11>, which
    # certifies, after |00>, a product state.  A reader that kept the first
    # key would see the product, so the file is read as neither.
    path = tmp_path / "twice.json"
    path.write_text(
        '{"kind": "pure", "dims": [2, 2],'
        ' "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]],'
        ' "amplitudes": [[0.6, 0], [0, 0], [0, 0], [0.8, 0]]}'
    )
    with pytest.raises(StateFileError) as refused:
        load_state_file(path)
    assert str(refused.value) == f"{path}: duplicate key 'amplitudes'"
    assert main(["certify", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: duplicate key 'amplitudes'\n"
    # Each key once, the second amplitudes alone: that state certifies.
    path.write_text(
        '{"kind": "pure", "dims": [2, 2],'
        ' "amplitudes": [[0.6, 0], [0, 0], [0, 0], [0.8, 0]]}'
    )
    assert main(["certify", "--state", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "NonlocalCertified"


# ------------------------------------------------------- writer and digest


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
def test_numpy_integer_dims_are_written_as_python_ints(pure):
    # The states admit numpy integer dims; the writer used to copy them into
    # the dict as they were, and json cannot serialize a numpy integer.
    def make(d1, d2):
        if pure:
            return StateVector(d1=d1, d2=d2, amplitudes=[1, 0, 0, 0])
        return maximally_mixed(d1, d2)

    want = dump_json(state_to_dict(make(2, 2)))
    for kind in (np.int64, np.int32, np.uint8):
        assert dump_json(state_to_dict(make(kind(2), kind(2)))) == want


def test_dump_json_is_deterministic():
    payload = {"b": 1, "a": [1.5, 2.0], "c": {"y": None, "x": True}}
    text = dump_json(payload)
    assert text == dump_json(dict(reversed(list(payload.items()))))
    assert text.endswith("\n")
    assert list(json.loads(text)) == ["a", "b", "c"]


def test_file_digest_matches_hashlib(tmp_path):
    # The digest load_state_file returns is of the file's bytes as written.
    path = tmp_path / "blob.json"
    raw = b'{"kind": "pure", "dims": [1, 1], "amplitudes": [[1, 0]]}\r\n'
    path.write_bytes(raw)
    _, digest = load_state_file(path)
    assert digest == hashlib.sha256(raw).hexdigest()



# ------------------------------------------- reports around a state file


def _certify_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(dump_json(state_to_dict(fixture_state())))
    assert main(["certify", "--state", str(path), "--candidate", str(path)]) == 0
    return path, json.loads(capsys.readouterr().out)


def test_certification_dict_fields(tmp_path, capsys):
    # The certify report (laid out by the CLI) of the paper's fixture state.
    _, payload = _certify_file(tmp_path, capsys)
    body = payload["report"]
    assert body["verdict"] == "NonlocalCertified"
    assert body["nonseparable"] is True
    assert body["margin"] == pytest.approx(body["a"] - 6 * body["epsilon"], abs=1e-15)
    assert body["pair"]["p1"] == pytest.approx(np.sqrt(0.2), abs=1e-12)
    assert set(body["table"]) == {
        "x1_plus_x2_plus",
        "y1_plus_x2_minus",
        "x1_minus_y2_plus",
        "y1_plus_x2_zero",
        "x1_zero_y2_plus",
        "y1_plus_y2_plus",
    }


def test_report_payload_structure(tmp_path, capsys):
    # The envelope names the tool and each input file with its digest.
    path, payload = _certify_file(tmp_path, capsys)
    _, digest = load_state_file(path)
    assert payload["tool"]["name"] == "hardycert"
    assert payload["kind"] == "certify"
    assert payload["report"]["verdict"] == "NonlocalCertified"
    for name in ("state", "candidate"):
        entry = payload["inputs"][name]
        assert entry["path"] == str(path)
        assert entry["sha256"] == digest == hashlib.sha256(path.read_bytes()).hexdigest()
    # The whole payload must serialize deterministically.
    assert dump_json(payload) == dump_json(json.loads(dump_json(payload)))

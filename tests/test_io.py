import hashlib
import json

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    certify,
    maximally_mixed,
    pure_density,
)
from hardycert.errors import NotUnitTraceError, StateFileError
from hardycert.io import (
    certification_to_dict,
    dump_json,
    file_digest,
    load_state_file,
    parse_state_dict,
    report_payload,
    state_to_dict,
)
from support import random_density, random_state_vector


def fixture_state() -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.2)
    amps[3] = np.sqrt(0.8)
    return StateVector(d1=2, d2=2, amplitudes=amps)


# --------------------------------------------------------------- round trips


def test_pure_round_trip_is_bit_exact():
    rng = np.random.default_rng(71)
    for _ in range(10):
        psi = random_state_vector(2, 3, rng)
        back = parse_state_dict(json.loads(dump_json(state_to_dict(psi))))
        assert isinstance(back, StateVector)
        assert (back.d1, back.d2) == (2, 3)
        assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_mixed_round_trip():
    rng = np.random.default_rng(72)
    for _ in range(10):
        sigma = random_density(2, 2, rng)
        back = parse_state_dict(json.loads(dump_json(state_to_dict(sigma))))
        assert isinstance(back, DensityOperator)
        # validate_density may renormalize by a hair; the matrices agree to
        # far below the validation tolerance.
        assert np.max(np.abs(back.matrix - sigma.matrix)) < 1e-15


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "state.json"
    psi = fixture_state()
    path.write_text(dump_json(state_to_dict(psi)))
    back = load_state_file(path)
    assert isinstance(back, StateVector)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


# ---------------------------------------------------------------- bad input


def test_parse_rejects_non_object():
    with pytest.raises(StateFileError):
        parse_state_dict([1, 2, 3])


def test_parse_rejects_unknown_kind():
    with pytest.raises(StateFileError):
        parse_state_dict({"kind": "thermal", "dims": [2, 2], "matrix": []})


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


# ------------------------------------------------------------- report shape


def test_dump_json_is_deterministic():
    payload = {"b": 1, "a": [1.5, 2.0], "c": {"y": None, "x": True}}
    text = dump_json(payload)
    assert text == dump_json(dict(reversed(list(payload.items()))))
    assert text.endswith("\n")
    assert list(json.loads(text)) == ["a", "b", "c"]


def test_file_digest_matches_hashlib(tmp_path):
    path = tmp_path / "blob.json"
    path.write_bytes(b'{"kind": "pure"}')
    assert file_digest(path) == hashlib.sha256(b'{"kind": "pure"}').hexdigest()


def test_certification_dict_fields():
    psi = fixture_state()
    body = certification_to_dict(certify(pure_density(psi), psi))
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


def test_certification_dict_not_hardy():
    bell = StateVector(
        d1=2, d2=2, amplitudes=np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    )
    body = certification_to_dict(certify(pure_density(bell), bell))
    assert body["verdict"] == "NotHardy"
    assert body["nonseparable"] is False
    assert body["pair"] is None and body["table"] is None


def test_report_payload_structure(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(dump_json(state_to_dict(fixture_state())))
    payload = report_payload("certify", {"margin": 0.05}, {"state": path})
    assert payload["tool"]["name"] == "hardycert"
    assert payload["kind"] == "certify"
    assert payload["report"] == {"margin": 0.05}
    entry = payload["inputs"]["state"]
    assert entry["path"] == str(path)
    assert entry["sha256"] == file_digest(path)
    # The whole payload must serialize deterministically.
    assert dump_json(payload) == dump_json(json.loads(dump_json(payload)))

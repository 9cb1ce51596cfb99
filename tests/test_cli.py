import builtins
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hardycert
from hardycert import cli
from hardycert.cli import build_parser, main
from hardycert.io import dump_json, state_to_dict
from hardycert.lhv import strategy_constraint_matrix
from hardycert.states import STATE_TOL
from support import fixture_state


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(tmp_path, name, *argv):
    path = tmp_path / name
    code = main(["gen-state", *argv, "--output", str(path)])
    assert code == 0
    return path


# ----------------------------------------------------------------- gen-state


def test_gen_hardy_default(capsys):
    code, out, err = run_cli(["gen-state", "hardy"], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["kind"] == "pure"
    assert data["dims"] == [2, 2]
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    assert amps[0] == pytest.approx(np.sqrt(0.2))
    assert amps[3] == pytest.approx(np.sqrt(0.8))
    assert amps[1] == amps[2] == 0


def test_gen_hardy_rectangular(capsys):
    code, out, _ = run_cli(["gen-state", "hardy", "--d1", "2", "--d2", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [2, 3]
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    assert amps[0] != 0 and amps[4] != 0        # |00> and |11> in row-major order
    assert np.count_nonzero(amps) == 2


def test_gen_bell_and_product(capsys):
    code, out, _ = run_cli(["gen-state", "bell"], capsys)
    assert code == 0
    amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    assert amps[0] == pytest.approx(amps[3])

    code, out, _ = run_cli(["gen-state", "product"], capsys)
    assert code == 0
    amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    assert amps[0] == 1 and np.count_nonzero(amps) == 1


def test_gen_white_noise_mix(capsys):
    code, out, _ = run_cli(["gen-state", "white-noise-mix", "--p", "0.9"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "mixed"
    matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    assert matrix[0, 0] == pytest.approx(0.9 * 0.2 + 0.025)
    assert matrix[1, 1] == pytest.approx(0.025)
    assert matrix[0, 3] == pytest.approx(0.9 * np.sqrt(0.2 * 0.8))
    assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-12)


def test_gen_rejects_bad_parameters(capsys):
    for argv in (
        ["gen-state", "hardy", "--p1-sq", "0.0"],
        ["gen-state", "hardy", "--p1-sq", "1.0"],
        ["gen-state", "hardy", "--d1", "1"],
        ["gen-state", "white-noise-mix", "--p", "1.5"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_gen_rejects_unknown_kind():
    with pytest.raises(SystemExit):
        main(["gen-state", "ghz"])


# ------------------------------------------------------------------- certify


def test_certify_pure_hardy(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    code, out, err = run_cli(["certify", "--state", str(state)], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "certify"
    assert payload["tool"]["name"] == "hardycert"
    assert set(payload["inputs"]) == {"state"}
    report = payload["report"]
    assert report["verdict"] == "NonlocalCertified"
    assert report["nonseparable"] is True
    assert report["a"] == pytest.approx(4.0 / 45.0, abs=1e-12)
    assert report["epsilon"] <= 1e-12
    assert report["margin"] == pytest.approx(report["a"] - 6 * report["epsilon"])
    assert report["table"]["y1_plus_y2_plus"] == pytest.approx(4.0 / 45.0, abs=1e-10)


def test_certify_mixture_with_explicit_candidate(tmp_path, capsys):
    state = gen(tmp_path, "mix.json", "white-noise-mix", "--p", "0.99")
    candidate = gen(tmp_path, "cand.json", "hardy")
    code, out, _ = run_cli(
        ["certify", "--state", str(state), "--candidate", str(candidate)], capsys
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["candidate"] == {"source": "file"}
    assert report["epsilon"] == pytest.approx(0.0075, abs=1e-9)
    assert report["verdict"] == "NonlocalCertified"


def test_certify_auto_candidate_reports_gap(tmp_path, capsys):
    state = gen(tmp_path, "mix.json", "white-noise-mix", "--p", "0.99")
    code, out, _ = run_cli(["certify", "--state", str(state)], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["candidate"]["source"] == "top-eigenvector"
    # Spectrum of the mixture is {p + (1-p)/4, (1-p)/4 x3}: gap = p.
    assert report["candidate"]["degeneracy_gap"] == pytest.approx(0.99, abs=1e-9)
    assert report["epsilon"] == pytest.approx(0.0075, abs=1e-9)


def test_certify_auto_candidate_on_1x1_state(tmp_path, capsys):
    # The one-entry spectrum has no gap; this used to raise IndexError.
    path = tmp_path / "one.json"
    path.write_text('{"kind": "pure", "dims": [1, 1], "amplitudes": [[1, 0]]}')
    code, out, err = run_cli(["certify", "--state", str(path)], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)["report"]
    assert report["candidate"] == {"source": "top-eigenvector", "degeneracy_gap": None}
    assert report["verdict"] == "NotHardy"


def _mixed_file(path, matrix):
    path.write_text(json.dumps(
        {"kind": "mixed", "dims": [2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in matrix]}
    ))
    return path


def test_certify_auto_candidate_refuses_degenerate_top_eigenvalue(tmp_path, capsys):
    # An equal mixture of the orthogonal Hardy states sqrt(.2)|00> + sqrt(.8)|11>
    # and sqrt(.2)|01> + sqrt(.8)|10> (gap 1.7e-16), and white noise I/4.
    psi = np.array([np.sqrt(0.2), 0, 0, np.sqrt(0.8)])
    phi = np.array([0, np.sqrt(0.2), np.sqrt(0.8), 0])
    cases = {
        "equal-mixture.json": (np.outer(psi, psi) + np.outer(phi, phi)) / 2.0,
        "white.json": np.eye(4) / 4.0,
    }
    candidate = gen(tmp_path, "hardy.json", "hardy")
    for name, matrix in cases.items():
        state = _mixed_file(tmp_path / name, matrix)
        code, out, err = run_cli(["certify", "--state", str(state)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "degenerate" in err and "--candidate" in err
        # With a candidate named, the same state certifies as before.
        code, out, _ = run_cli(["certify", "--state", str(state), "--candidate", str(candidate)], capsys)
        assert code == 0
        assert json.loads(out)["report"]["candidate"] == {"source": "file"}


def test_certify_bell_is_not_hardy(tmp_path, capsys):
    state = gen(tmp_path, "bell.json", "bell")
    code, out, _ = run_cli(["certify", "--state", str(state)], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "NotHardy"
    assert report["nonseparable"] is False
    assert report["pair"] is None


def test_certify_writes_output_file_deterministically(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["certify", "--state", str(state), "--output", str(out_a)]) == 0
    assert main(["certify", "--state", str(state), "--output", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert json.loads(out_a.read_text())["report"]["verdict"] == "NonlocalCertified"


def test_certify_missing_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["certify", "--state", str(tmp_path / "absent.json")], capsys
    )
    assert code == 2
    assert "error:" in err


def test_certify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for text in (
        "{this is not json",
        # An integer literal too large for a float used to raise OverflowError.
        '{"kind": "pure", "dims": [2, 2], "amplitudes": [[1' + "0" * 400 + ", 0], [0, 0]]}",
        # Nesting this deep used to raise RecursionError inside the JSON parser.
        "[" * 100000,
    ):
        path.write_text(text)
        code, out, err = run_cli(["certify", "--state", str(path)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error:")


def test_certify_rejects_json_booleans(tmp_path, capsys):
    # Booleans used to parse as the numbers 1 and 0, giving a 1x2 state.
    path = tmp_path / "bool.json"
    path.write_text('{"kind": "pure", "dims": [true, 2], "amplitudes": [[true, false], [0, 0]]}')
    code, out, err = run_cli(["certify", "--state", str(path)], capsys)
    assert code == 2
    assert out == "" and "error:" in err


def test_certify_requires_state_flag():
    with pytest.raises(SystemExit):
        main(["certify"])


def test_tolerance_flags_must_be_finite_and_nonnegative(tmp_path, capsys):
    # A 4x4 matrix with hermiticity defect 0.45: NaN used to switch the
    # hermiticity check off, so "--tol nan" certified it with exit 0.
    skewed = np.eye(4, dtype=complex) / 4.0
    skewed[0, 1] = 0.45
    bad = tmp_path / "skewed.json"
    bad.write_text(json.dumps(
        {"kind": "mixed", "dims": [2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in skewed]}
    ))
    assert run_cli(["certify", "--state", str(bad)], capsys)[0] == 2
    state = gen(tmp_path, "hardy.json", "hardy")
    commands = (
        ["certify", "--state", str(bad)],
        ["noise-threshold", "--state", str(state), "--noise", str(bad)],
        ["lhv-check", "--state", str(bad), "--candidate", str(state)],
    )
    for argv in commands:
        for value in ("nan", "inf", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--tol", value])
            assert exc.value.code == 2
            assert "must be a finite number >= 0" in capsys.readouterr().err
    code, out, _ = run_cli(["certify", "--state", str(state), "--tol", "0"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "NonlocalCertified"


def write_pure(path, amplitudes):
    path.write_text(json.dumps(
        {"kind": "pure", "dims": [2, 2], "amplitudes": [[z.real, z.imag] for z in amplitudes]}
    ))
    return path


@pytest.mark.parametrize("norm, code", [(1.0 + 4.5e-10, 0), (1.0 + 9e-10, 2)])
def test_norm_edge_is_decided_up_front(tmp_path, capsys, norm, code):
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.2)
    amps[3] = np.sqrt(0.8)
    edge = write_pure(tmp_path / "edge.json", amps * norm)
    mix = gen(tmp_path, "mix.json", "white-noise-mix")
    commands = (
        ["certify", "--state", str(edge)],
        ["certify", "--state", str(mix), "--candidate", str(edge)],
        ["lhv-check", "--state", str(mix), "--candidate", str(edge)],
        ["noise-threshold", "--state", str(edge), "--noise", str(mix)],
    )
    for argv in commands:
        got, _, err = run_cli(argv, capsys)
        assert got == code, err
        if code:
            assert "squared norm" in err


def test_certify_reads_a_short_candidate_as_its_unit_vector(tmp_path, capsys):
    # 1e-10 below the white-noise threshold the margin is -4.5e-10; a
    # candidate file with squared norm 1 - 0.999e-9 must not certify it.
    psi = fixture_state()
    p = hardycert.noise_threshold(psi, hardycert.maximally_mixed(2, 2)).p_star - 1e-10
    mix = _mixed_file(tmp_path / "mix.json", p * psi.projector() + (1 - p) * np.eye(4) / 4.0)
    short = write_pure(tmp_path / "short.json", psi.amplitudes * np.sqrt(1.0 - 0.999e-9))
    code, out, err = run_cli(["certify", "--state", str(mix), "--candidate", str(short)], capsys)
    assert code == 0, err
    report = json.loads(out)["report"]
    assert report["verdict"] == "Inconclusive"
    assert report["margin"] == pytest.approx(-4.5e-10, abs=1e-12)


# ----------------------------------------------------------- noise-threshold


def test_noise_threshold_white_noise_fixture(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    noise_path = tmp_path / "noise.json"
    noise_path.write_text(
        json.dumps(
            {
                "kind": "mixed",
                "dims": [2, 2],
                "matrix": [
                    [[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
                ],
            }
        )
    )
    code, out, _ = run_cli(
        ["noise-threshold", "--state", str(state), "--noise", str(noise_path)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "noise-threshold"
    report = payload["report"]
    assert report["a"] == pytest.approx(4.0 / 45.0, abs=1e-12)
    assert report["d_noise"] == pytest.approx(0.75, abs=1e-12)
    assert report["p_star"] == pytest.approx(1.0 - (4.0 / 45.0) / 4.5, abs=1e-9)


def test_noise_threshold_rejects_mixed_state_arg(tmp_path, capsys):
    mix = gen(tmp_path, "mix.json", "white-noise-mix")
    code, _, err = run_cli(
        ["noise-threshold", "--state", str(mix), "--noise", str(mix)], capsys
    )
    assert code == 2
    assert "pure state" in err


def test_noise_threshold_bell_fails(tmp_path, capsys):
    bell = gen(tmp_path, "bell.json", "bell")
    mix = gen(tmp_path, "mix.json", "white-noise-mix")
    code, _, err = run_cli(
        ["noise-threshold", "--state", str(bell), "--noise", str(mix)], capsys
    )
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------- lhv-check


def test_lhv_check_pure_hardy_infeasible(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    code, out, _ = run_cli(
        ["lhv-check", "--state", str(state), "--candidate", str(state)], capsys
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["feasible"] is False
    assert report["weights"] is None
    assert report["criterion"]["verdict"] == "NonlocalCertified"
    assert report["consistent"] is True
    assert report["facet"]["violation"] == report["max_violation"] > 0


def test_lhv_check_tol_is_not_the_lp_tolerance(tmp_path, capsys):
    # A loose validation tolerance must not loosen the local-model search.
    state = gen(tmp_path, "hardy.json", "hardy")
    code, out, _ = run_cli(
        ["lhv-check", "--state", str(state), "--candidate", str(state), "--tol", "0.9"], capsys
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["feasible"] is False
    assert report["weights"] is None
    assert report["criterion"]["verdict"] == "NonlocalCertified"
    assert report["consistent"] is True
    facet = report["facet"]
    assert set(facet) == {"class", "coefficients", "bound", "violation"}
    assert facet["class"] in ("positivity", "chsh", "cglmp")
    assert facet["violation"] == report["max_violation"] > 1e-9
    # The witness checks with integers alone: no strategy exceeds the bound.
    coefficients = np.array(facet["coefficients"])
    assert coefficients.shape == (2, 2, 3, 3) and coefficients.dtype.kind == "i"
    assert isinstance(facet["bound"], int)
    strategies = coefficients.reshape(-1) @ strategy_constraint_matrix()[:36]
    assert strategies.max() == facet["bound"]


def test_lhv_check_product_state_feasible(tmp_path, capsys):
    product = gen(tmp_path, "product.json", "product")
    candidate = gen(tmp_path, "cand.json", "hardy")
    code, out, _ = run_cli(
        ["lhv-check", "--state", str(product), "--candidate", str(candidate)], capsys
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["feasible"] is True
    assert len(report["weights"]) == 81
    assert sum(report["weights"]) == pytest.approx(1.0, abs=1e-9)
    assert report["criterion"]["verdict"] == "Inconclusive"
    assert report["consistent"] is True
    assert report["facet"] is None


@pytest.mark.parametrize("d, index", [(2, 0), (3, 8)])
def test_product_state_off_unit_norm_is_local(tmp_path, capsys, d, index):
    # |00> (2x2) and |22> (3x3), stored with squared norm 1 + 5e-10, inside
    # STATE_TOL.  Cells read without dividing by the trace summed to
    # 1 + 5e-10: the 2x2 behavior violated a CHSH facet, and the 3x3 one had
    # a cell above 1 + PROBABILITY_CLIP and exited 2.
    amps = np.zeros(d * d)
    amps[index] = np.sqrt(1.0 + 5e-10)
    product = tmp_path / "product.json"
    product.write_text(json.dumps(
        {"kind": "pure", "dims": [d, d], "amplitudes": [[z, 0.0] for z in amps]}
    ))
    candidate = gen(tmp_path, "cand.json", "hardy", "--d1", str(d), "--d2", str(d))
    argv = ["--state", str(product), "--candidate", str(candidate)]
    code, out, err = run_cli(["lhv-check", *argv], capsys)
    assert code == 0, err
    report = json.loads(out)["report"]
    assert report["feasible"] is True and report["facet"] is None
    assert report["consistent"] is True
    code, out, err = run_cli(["certify", *argv], capsys)
    assert code == 0, err
    assert json.loads(out)["report"]["verdict"] == "Inconclusive"


def test_lhv_check_bell_candidate_fails(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    bell = gen(tmp_path, "bell.json", "bell")
    code, _, err = run_cli(
        ["lhv-check", "--state", str(state), "--candidate", str(bell)], capsys
    )
    assert code == 2
    assert "error:" in err


def test_lhv_check_inputs_carry_digests(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    code, out, _ = run_cli(
        ["lhv-check", "--state", str(state), "--candidate", str(state)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["inputs"]) == {"state", "candidate"}
    for entry in payload["inputs"].values():
        assert len(entry["sha256"]) == 64


# ----------------------------------------------------------- report layouts
#
# A layout names the exact key set of every object and the JSON type of
# every value: a type, a nested dict, ``(item layout, length)`` for a list,
# or a set of alternatives.

NULL = type(None)
TOOL = {"name": str, "version": str}
INPUT = {"path": str, "sha256": str}
CRITERION = {"epsilon": float, "a": float, "margin": float, "verdict": str}
PAIR = {"index_small": int, "index_large": int, "p1": float, "p2": float, "a": float}
TABLE = dict.fromkeys(
    (
        "x1_plus_x2_plus",
        "y1_plus_x2_minus",
        "x1_minus_y2_plus",
        "y1_plus_x2_zero",
        "x1_zero_y2_plus",
        "y1_plus_y2_plus",
    ),
    float,
)
FACET = {"class": str, "coefficients": ((((int, 3), 3), 2), 2), "bound": int, "violation": float}


def envelope(inputs, report) -> dict:
    return {"tool": TOOL, "kind": str, "inputs": dict.fromkeys(inputs, INPUT), "report": report}


def certify_layout(candidate, hardy=True) -> dict:
    return {
        **CRITERION,
        "nonseparable": bool,
        "pair": PAIR if hardy else NULL,
        "table": TABLE if hardy else NULL,
        "candidate": candidate,
    }


def lhv_layout(feasible) -> dict:
    return {
        "facet": NULL if feasible else FACET,
        "feasible": bool,
        "max_violation": float,
        "weights": (float, 81) if feasible else NULL,
        "criterion": CRITERION,
        "consistent": bool,
    }


def assert_layout(value, layout, where="payload"):
    if isinstance(layout, dict):
        assert type(value) is dict, where
        assert set(value) == set(layout), where
        for key, item in layout.items():
            assert_layout(value[key], item, f"{where}.{key}")
    elif isinstance(layout, tuple):
        item, length = layout
        assert type(value) is list and len(value) == length, where
        for i, entry in enumerate(value):
            assert_layout(entry, item, f"{where}[{i}]")
    else:
        # type(), not isinstance: JSON true is no number here.
        assert type(value) is layout, f"{where}: {type(value).__name__}"


def run_report(argv, inputs, layout, kind, capsys) -> dict:
    """The report of ``main(argv)``, checked against ``layout`` and its
    envelope: tool identity, kind, and each input's path and file digest."""
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert_layout(payload, envelope(inputs, layout))
    # The whole payload serializes deterministically.
    assert out == dump_json(payload)
    assert payload["tool"] == {"name": "hardycert", "version": hardycert.__version__}
    assert payload["kind"] == kind
    for name, path in inputs.items():
        assert payload["inputs"][name]["path"] == str(path)
        assert payload["inputs"][name]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    return payload["report"]


def test_certify_report_layout_with_file_candidate(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(dump_json(state_to_dict(fixture_state())))
    argv = ["certify", "--state", str(path), "--candidate", str(path)]
    layout = certify_layout({"source": str})
    report = run_report(argv, {"state": path, "candidate": path}, layout, "certify", capsys)
    assert report["candidate"] == {"source": "file"}
    assert report["verdict"] == "NonlocalCertified"
    assert report["nonseparable"] is True
    assert report["margin"] == pytest.approx(report["a"] - 6 * report["epsilon"], abs=1e-15)
    assert report["pair"]["p1"] == pytest.approx(np.sqrt(0.2), abs=1e-12)


def test_certify_report_layout_with_top_eigenvector(tmp_path, capsys):
    mix = gen(tmp_path, "mix.json", "white-noise-mix")
    layout = certify_layout({"source": str, "degeneracy_gap": float})
    report = run_report(["certify", "--state", str(mix)], {"state": mix}, layout, "certify", capsys)
    assert report["candidate"]["source"] == "top-eigenvector"
    assert report["verdict"] == "NonlocalCertified"


def test_certify_report_layout_not_hardy(tmp_path, capsys):
    bell = gen(tmp_path, "bell.json", "bell")
    argv = ["certify", "--state", str(bell), "--candidate", str(bell)]
    layout = certify_layout({"source": str}, hardy=False)
    report = run_report(argv, {"state": bell, "candidate": bell}, layout, "certify", capsys)
    assert report["verdict"] == "NotHardy"
    assert report["nonseparable"] is False
    assert report["pair"] is None and report["table"] is None


def test_noise_threshold_report_layout(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    noise = gen(tmp_path, "product.json", "product")
    argv = ["noise-threshold", "--state", str(state), "--noise", str(noise)]
    layout = {"p_star": float, "d_noise": float, "a": float}
    report = run_report(argv, {"state": state, "noise": noise}, layout, "noise-threshold", capsys)
    assert 0.0 < report["p_star"] < 1.0


def test_lhv_check_report_layout_decided_by_a_facet(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    argv = ["lhv-check", "--state", str(state), "--candidate", str(state)]
    inputs = {"state": state, "candidate": state}
    report = run_report(argv, inputs, lhv_layout(feasible=False), "lhv-check", capsys)
    assert report["feasible"] is False and report["consistent"] is True
    assert report["criterion"]["verdict"] == "NonlocalCertified"


def test_lhv_check_report_layout_decided_by_the_lp(tmp_path, capsys):
    product = gen(tmp_path, "product.json", "product")
    candidate = gen(tmp_path, "hardy.json", "hardy")
    argv = ["lhv-check", "--state", str(product), "--candidate", str(candidate)]
    inputs = {"state": product, "candidate": candidate}
    report = run_report(argv, inputs, lhv_layout(feasible=True), "lhv-check", capsys)
    assert report["feasible"] is True and report["consistent"] is True
    assert report["criterion"]["verdict"] == "Inconclusive"


# ------------------------------------------------------------------- inputs


def test_each_input_file_is_read_once(tmp_path, capsys, monkeypatch):
    # Every open of a file for reading, by path, through pathlib or open().
    reads = Counter()
    path_open, plain_open = Path.open, builtins.open

    def counting_path_open(self, mode="r", *args, **kwargs):
        if "r" in mode:
            reads[str(self)] += 1
        return path_open(self, mode, *args, **kwargs)

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and isinstance(file, (str, Path)):
            reads[str(file)] += 1
        return plain_open(file, mode, *args, **kwargs)

    state = gen(tmp_path, "hardy.json", "hardy")
    mix = gen(tmp_path, "mix.json", "white-noise-mix")
    monkeypatch.setattr(Path, "open", counting_path_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    commands = (
        (["certify", "--state", str(mix)], {"state": mix}),
        (["certify", "--state", str(mix), "--candidate", str(state)], {"state": mix, "candidate": state}),
        (["noise-threshold", "--state", str(state), "--noise", str(mix)], {"state": state, "noise": mix}),
        (["lhv-check", "--state", str(mix), "--candidate", str(state)], {"state": mix, "candidate": state}),
    )
    for argv, inputs in commands:
        reads.clear()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert reads == Counter(str(path) for path in inputs.values()), argv
        reported = json.loads(out)["inputs"]
        for name, path in inputs.items():
            with plain_open(path, "rb") as f:
                assert reported[name]["sha256"] == hashlib.sha256(f.read()).hexdigest()


# ------------------------------------------------------------------- parser


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    state = gen(tmp_path, "hardy.json", "hardy")
    mix = gen(tmp_path, "mix.json", "white-noise-mix")
    written = tmp_path / "written.json"
    # Each option is given, then left to its default, so a value that stuck
    # to the parser from one call to the next would show.
    sequence = [
        ["certify", "--state", str(mix), "--candidate", str(state)],
        ["certify", "--state", str(mix)],
        ["gen-state", "hardy", "--output", str(written)],
        ["gen-state", "hardy"],
        ["lhv-check", "--state", str(mix), "--candidate", str(state), "--tol", "0.5"],
        ["lhv-check", "--state", str(mix), "--candidate", str(state)],
        ["certify", "--state", str(tmp_path / "missing.json")],
    ]

    def run(argv):
        code, out, err = run_cli(argv, capsys)
        text = written.read_bytes() if written.exists() else None
        written.unlink(missing_ok=True)
        return code, out, err, text

    reused = [run(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert cli._parser() is cli._parser()


def test_handler_is_looked_up_when_the_command_runs(monkeypatch, capsys):
    # The first call builds and caches the parser.
    assert main(["gen-state", "bell"]) == 0
    capsys.readouterr()
    calls = []

    def stub(args):
        calls.append(args.kind)
        return {"stub": True}

    monkeypatch.setattr(cli, "cmd_gen_state", stub)
    code, out, _ = run_cli(["gen-state", "bell"], capsys)
    assert code == 0
    assert calls == ["bell"]
    assert json.loads(out) == {"stub": True}


def test_help_prints_the_parser_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["certify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {STATE_TOL:g})" in text
    with pytest.raises(SystemExit):
        main(["gen-state", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "(default 0.2)" in text and "(default 0.99)" in text


@pytest.mark.parametrize("command", [[], ["gen-state"], ["certify"], ["noise-threshold"], ["lhv-check"]])
def test_help_is_unchanged_by_reuse(command, capsys):
    main(["gen-state", "bell"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    reused = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--help"])
    assert reused == capsys.readouterr().out

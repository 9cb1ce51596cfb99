"""Command-line interface.

Four subcommands cover the full pipeline: ``gen-state`` writes state files
for a few built-in families, ``certify`` runs the trace-distance criterion,
``noise-threshold`` computes the tolerable-noise boundary for mixtures, and
``lhv-check`` cross-examines a state with the local-model feasibility LP.
Every command emits a JSON document (to --output or standard output) and
exits 0 on completion, 2 on any input or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certification import (
    Verdict,
    candidate_from_state,
    certify,
    noise_threshold,
)
from .errors import HardycertError, NotHardyError, StateFileError
from .io import (
    certification_to_dict,
    dump_json,
    lhv_result_to_dict,
    load_state_file,
    noise_threshold_to_dict,
    report_payload,
    state_to_dict,
)
from .lhv import lhv_feasible
from .states import DEFAULT_DELTA, STATE_TOL, DensityOperator, StateVector, pure_density

GEN_KINDS = ("hardy", "bell", "product", "white-noise-mix")


def _tolerance(text: str) -> float:
    """argparse type of --tol and --delta: a finite number >= 0.

    NaN would make every ``x > tol`` check false and switch validation off.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_run_options(
    parser: argparse.ArgumentParser, tol_help: str = "density-matrix validation tolerance"
) -> None:
    """--delta, --tol and --output, shared by the three report commands."""
    parser.add_argument(
        "--delta",
        type=_tolerance,
        default=DEFAULT_DELTA,
        help="minimum admissible Schmidt-weight gap (default 1e-8)",
    )
    parser.add_argument(
        "--tol", type=_tolerance, default=STATE_TOL, help=f"{tol_help} (default 1e-9)"
    )
    parser.add_argument("--output", type=Path, default=None, help="report path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardycert",
        description="Certify nonlocality of bipartite mixed states near "
        "two-distinct-weight pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-state", help="write a state file for a built-in family")
    gen.add_argument("kind", choices=GEN_KINDS)
    gen.add_argument(
        "--p1-sq",
        type=float,
        default=0.2,
        help="squared smaller Schmidt weight for hardy / white-noise-mix (default 0.2)",
    )
    gen.add_argument("--d1", type=int, default=2, help="first subsystem dimension (hardy only)")
    gen.add_argument("--d2", type=int, default=2, help="second subsystem dimension (hardy only)")
    gen.add_argument(
        "--p",
        type=float,
        default=0.99,
        help="pure-state weight of the white-noise mixture (default 0.99)",
    )
    gen.add_argument("--output", type=Path, default=None, help="state file path (default stdout)")
    gen.set_defaults(handler=cmd_gen_state)

    cert = sub.add_parser("certify", help="run the 6*epsilon < a criterion")
    cert.add_argument("--state", type=Path, required=True, help="state file to certify")
    cert.add_argument(
        "--candidate",
        type=Path,
        default=None,
        help="pure candidate state file (default: top eigenvector of the state)",
    )
    _add_run_options(cert)
    cert.set_defaults(handler=cmd_certify)

    noise = sub.add_parser(
        "noise-threshold", help="critical mixing weight for pure-state + noise mixtures"
    )
    noise.add_argument("--state", type=Path, required=True, help="pure candidate state file")
    noise.add_argument("--noise", type=Path, required=True, help="noise state file")
    _add_run_options(noise)
    noise.set_defaults(handler=cmd_noise_threshold)

    lhv = sub.add_parser("lhv-check", help="search for a local model of the state's behavior")
    lhv.add_argument("--state", type=Path, required=True, help="state file to examine")
    lhv.add_argument(
        "--candidate", type=Path, required=True, help="pure candidate file defining the observables"
    )
    _add_run_options(lhv, tol_help="feasibility and validation tolerance")
    lhv.set_defaults(handler=cmd_lhv_check)

    return parser


def _hardy_amplitudes(p1_sq: float, d1: int, d2: int) -> np.ndarray:
    amps = np.zeros(d1 * d2, dtype=complex)
    amps[0] = math.sqrt(p1_sq)
    amps[d2 + 1] = math.sqrt(1.0 - p1_sq)
    return amps


def cmd_gen_state(args: argparse.Namespace) -> dict:
    if args.kind in ("hardy", "white-noise-mix") and not 0.0 < args.p1_sq < 1.0:
        raise ValueError(f"--p1-sq must lie strictly between 0 and 1, got {args.p1_sq}")
    if args.kind == "hardy":
        if args.d1 < 2 or args.d2 < 2:
            raise ValueError(f"hardy states need d1, d2 >= 2, got ({args.d1}, {args.d2})")
        state: StateVector | DensityOperator = StateVector(
            d1=args.d1, d2=args.d2, amplitudes=_hardy_amplitudes(args.p1_sq, args.d1, args.d2)
        )
    elif args.kind == "bell":
        state = StateVector(d1=2, d2=2, amplitudes=_hardy_amplitudes(0.5, 2, 2))
    elif args.kind == "product":
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        state = StateVector(d1=2, d2=2, amplitudes=amps)
    else:  # white-noise-mix
        if not 0.0 <= args.p <= 1.0:
            raise ValueError(f"--p must lie in [0, 1], got {args.p}")
        psi = StateVector(d1=2, d2=2, amplitudes=_hardy_amplitudes(args.p1_sq, 2, 2))
        matrix = args.p * psi.projector() + (1.0 - args.p) * np.eye(4) / 4.0
        state = DensityOperator(d1=2, d2=2, matrix=matrix)
    return state_to_dict(state)


def _load_density(path: Path, tol: float) -> tuple[DensityOperator, str]:
    """The state in ``path`` as a density operator, and the file's digest."""
    state, digest = load_state_file(path, tol=tol)
    if isinstance(state, StateVector):
        return pure_density(state), digest
    return state, digest


def _load_pure(path: Path, role: str, tol: float) -> tuple[StateVector, str]:
    """The pure state in ``path``, and the file's digest."""
    state, digest = load_state_file(path, tol=tol)
    if not isinstance(state, StateVector):
        raise StateFileError(f"{role} file {path} must hold a pure state")
    return state, digest


def cmd_certify(args: argparse.Namespace) -> dict:
    sigma, sigma_digest = _load_density(args.state, args.tol)
    inputs = {"state": (args.state, sigma_digest)}
    if args.candidate is not None:
        candidate, candidate_digest = _load_pure(args.candidate, "candidate", args.tol)
        candidate_info: dict = {"source": "file"}
        inputs["candidate"] = (args.candidate, candidate_digest)
    else:
        spectrum = sigma.eigenvalues
        # A 1x1 state has one eigenvalue and no gap.
        gap = float(spectrum[-1] - spectrum[-2]) if spectrum.size > 1 else None
        if gap is not None and gap <= args.tol:
            # Any vector of a degenerate top eigenspace would do, so the
            # verdict would speak about an arbitrary candidate.
            raise NotHardyError(
                f"top eigenvalue of {args.state} is degenerate (gap {gap:.3e} <= tol "
                f"{args.tol:g}), so it defines no candidate; pass --candidate"
            )
        candidate = candidate_from_state(sigma)
        candidate_info = {"source": "top-eigenvector", "degeneracy_gap": gap}
    report = certify(sigma, candidate, delta=args.delta)
    body = certification_to_dict(report)
    body["candidate"] = candidate_info
    return report_payload("certify", body, inputs)


def cmd_noise_threshold(args: argparse.Namespace) -> dict:
    psi, psi_digest = _load_pure(args.state, "state", args.tol)
    noise, noise_digest = _load_density(args.noise, args.tol)
    report = noise_threshold(psi, noise, delta=args.delta)
    body = noise_threshold_to_dict(report)
    return report_payload(
        "noise-threshold",
        body,
        {"state": (args.state, psi_digest), "noise": (args.noise, noise_digest)},
    )


def cmd_lhv_check(args: argparse.Namespace) -> dict:
    sigma, sigma_digest = _load_density(args.state, args.tol)
    candidate, candidate_digest = _load_pure(args.candidate, "candidate", args.tol)
    criterion = certify(sigma, candidate, delta=args.delta)
    if criterion.behavior is None:
        raise NotHardyError(
            f"candidate file {args.candidate} has no admissible pair of distinct Schmidt weights"
        )
    result = lhv_feasible(criterion.behavior, tol=args.tol)
    body = lhv_result_to_dict(result)
    rendered = certification_to_dict(criterion)
    body["criterion"] = {key: rendered[key] for key in ("epsilon", "a", "margin", "verdict")}
    # The criterion is one-sided: a certification must coincide with LP
    # infeasibility, while an inconclusive margin constrains nothing.
    certified = criterion.verdict is Verdict.NONLOCAL_CERTIFIED
    body["consistent"] = not (certified and result.feasible)
    return report_payload(
        "lhv-check",
        body,
        {"state": (args.state, sigma_digest), "candidate": (args.candidate, candidate_digest)},
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
        text = dump_json(payload)
        if args.output is None:
            sys.stdout.write(text)
        else:
            args.output.write_text(text)
    except (HardycertError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

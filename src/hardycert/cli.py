"""Command-line interface.

Four subcommands cover the full pipeline: ``gen-state`` writes state files
for a few built-in families, ``certify`` runs the trace-distance criterion,
``noise-threshold`` computes the tolerable-noise boundary for mixtures, and
``lhv-check`` cross-examines a state with the local-model feasibility LP.
Every command emits a JSON document (to --output or standard output) and
exits 0 on completion, 2 on any input, validation or output error.

``main`` is the in-process API: it returns the exit status and never ends
the process itself (argparse raises ``SystemExit`` for ``--help`` and usage
errors); a report that stdout could not take leaves fd 1 on ``os.devnull``.
``entry`` is the process entry point of the ``hardycert`` script and of
``python -m hardycert``: it runs ``main``, flushes the standard streams and
ends the process without interpreter teardown.

The reports are laid out here, and only here: each ``cmd_*`` builds its body
once and wraps it in the envelope of ``_payload``, with one ``{"path",
"sha256"}`` entry per input file, recorded by the loader that read it.
``hardycert.io`` keeps only the state-file format.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .certification import (
    CertificationReport,
    Verdict,
    certify,
    noise_threshold,
    top_eigenvector,
)
from .errors import HardycertError, NotHardyError, StateFileError
from .io import dump_json, load_state_file, state_to_dict
from .lhv import facet_table, lhv_feasible
from .states import STATE_TOL, DensityOperator, StateVector, _check_tolerance, pure_density

GEN_KINDS = ("hardy", "bell", "product", "white-noise-mix")


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0, by the rule
    ``validate_density`` applies to its own.  Text that is no number breaks
    that one rule too, and gets its one message."""
    try:
        value = float(text)
        _check_tolerance("tolerance", value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None
    return value


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """--tol and --output, shared by the three report commands."""
    parser.add_argument(
        "--tol",
        type=_tolerance,
        default=STATE_TOL,
        help="density-matrix validation tolerance, and nothing else (default %(default)g)",
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
    # No defaults here: cmd_gen_state tells a given option from an absent one.
    gen.add_argument(
        "--p1-sq",
        type=float,
        help="squared smaller Schmidt weight for hardy / white-noise-mix (default 0.2)",
    )
    gen.add_argument("--d1", type=int, help="first subsystem dimension (hardy only)")
    gen.add_argument("--d2", type=int, help="second subsystem dimension (hardy only)")
    gen.add_argument(
        "--p", type=float, help="pure-state weight of the white-noise mixture (default 0.99)"
    )
    gen.add_argument("--output", type=Path, default=None, help="state file path (default stdout)")

    cert = sub.add_parser("certify", help="run the 6*epsilon < a criterion")
    cert.add_argument("--state", type=Path, required=True, help="state file to certify")
    cert.add_argument(
        "--candidate",
        type=Path,
        default=None,
        help="pure candidate state file (default: top eigenvector of the state)",
    )
    _add_run_options(cert)

    noise = sub.add_parser(
        "noise-threshold", help="critical mixing weight for pure-state + noise mixtures"
    )
    noise.add_argument("--state", type=Path, required=True, help="pure candidate state file")
    noise.add_argument("--noise", type=Path, required=True, help="noise state file")
    _add_run_options(noise)

    lhv = sub.add_parser("lhv-check", help="search for a local model of the state's behavior")
    lhv.add_argument("--state", type=Path, required=True, help="state file to examine")
    lhv.add_argument(
        "--candidate", type=Path, required=True, help="pure candidate file defining the observables"
    )
    _add_run_options(lhv)

    return parser


def _hardy_amplitudes(p1_sq: float, d1: int, d2: int) -> np.ndarray:
    amps = np.zeros(d1 * d2, dtype=complex)
    amps[0] = math.sqrt(p1_sq)
    amps[d2 + 1] = math.sqrt(1.0 - p1_sq)
    return amps


def cmd_gen_state(args: argparse.Namespace) -> dict:
    # Each option's default and the families that read it.  An option given
    # to another family is refused: it would change nothing in the state.
    options = {
        "p1_sq": (0.2, ("hardy", "white-noise-mix")),
        "d1": (2, ("hardy",)),
        "d2": (2, ("hardy",)),
        "p": (0.99, ("white-noise-mix",)),
    }
    values = []
    for name, (default, readers) in options.items():
        given = getattr(args, name)
        if given is not None and args.kind not in readers:
            option, families = "--" + name.replace("_", "-"), " and ".join(readers)
            raise ValueError(f"{option} is read only by {families}, not by {args.kind}")
        values.append(default if given is None else given)
    # Only a family that reads an option can hold a value other than its
    # default, and every default passes, so the checks need no family.
    p1_sq, d1, d2, p = values
    if not 0.0 < p1_sq < 1.0:
        raise ValueError(f"--p1-sq must lie strictly between 0 and 1, got {p1_sq}")
    if d1 < 2 or d2 < 2:
        raise ValueError(f"hardy states need d1, d2 >= 2, got ({d1}, {d2})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"--p must lie in [0, 1], got {p}")
    # Every family is the Hardy closed form; bell and product fix p1^2.
    p1_sq = {"bell": 0.5, "product": 1.0}.get(args.kind, p1_sq)
    psi = StateVector(d1=d1, d2=d2, amplitudes=_hardy_amplitudes(p1_sq, d1, d2))
    if args.kind != "white-noise-mix":
        return state_to_dict(psi)
    matrix = p * psi.projector() + (1.0 - p) * np.eye(4) / 4.0
    return state_to_dict(DensityOperator(d1=2, d2=2, matrix=matrix))


def _load_density(args: argparse.Namespace, name: str, inputs: dict) -> DensityOperator:
    """The state in the file of option ``name``, as a density operator; the
    file's ``{"path", "sha256"}`` entry goes into ``inputs`` under ``name``."""
    path = getattr(args, name)
    state, digest = load_state_file(path, tol=args.tol)
    inputs[name] = {"path": str(path), "sha256": digest}
    return pure_density(state) if isinstance(state, StateVector) else state


def _load_pure(args: argparse.Namespace, name: str, inputs: dict) -> StateVector:
    """The pure state in the file of option ``name``; the file's entry goes
    into ``inputs`` as ``_load_density`` puts it."""
    path = getattr(args, name)
    state, digest = load_state_file(path, tol=args.tol)
    if not isinstance(state, StateVector):
        raise StateFileError(f"{name} file {path} must hold a pure state")
    inputs[name] = {"path": str(path), "sha256": digest}
    return state


def _payload(kind: str, inputs: dict, report: dict) -> dict:
    """A report body in its envelope: tool identity, kind and input entries."""
    tool = {"name": "hardycert", "version": __version__}
    return {"tool": tool, "kind": kind, "inputs": inputs, "report": report}


def _criterion(report: CertificationReport) -> dict:
    """The criterion's numbers, as ``certify`` and ``lhv-check`` report them."""
    verdict = report.verdict.value
    return {"epsilon": report.epsilon, "a": report.a, "margin": report.margin, "verdict": verdict}


def _facet(row: int, violation: float) -> dict:
    """Row ``row`` of ``facet_table()`` as a checkable witness: integer
    coefficients on the ``[alice setting][bob setting][alice outcome][bob
    outcome]`` cells and an integer bound that no mixture of deterministic
    strategies exceeds."""
    table = facet_table()
    return {
        "class": str(table.classes[row]),
        "coefficients": table.coefficients[row].astype(int).reshape(2, 2, 3, 3).tolist(),
        "bound": int(table.bounds[row]),
        "violation": violation,
    }


def cmd_certify(args: argparse.Namespace) -> dict:
    inputs: dict = {}
    sigma = _load_density(args, "state", inputs)
    if args.candidate is not None:
        candidate = _load_pure(args, "candidate", inputs)
        source: dict = {"source": "file"}
    else:
        candidate, gap = top_eigenvector(sigma)  # a 1x1 state has no gap
        if gap is not None and gap <= STATE_TOL:
            # Any vector of a degenerate top eigenspace would do, so the
            # verdict would speak about an arbitrary candidate.  The gap is
            # held to STATE_TOL, not --tol, which only validates.
            raise NotHardyError(
                f"top eigenvalue of {args.state} is degenerate (gap {gap:.3e} <= tol "
                f"{STATE_TOL:g}), so it defines no candidate; pass --candidate"
            )
        source = {"source": "top-eigenvector", "degeneracy_gap": gap}
    report = certify(sigma, candidate)
    pair, table = report.pair, report.table  # both None for a NotHardy candidate
    return _payload("certify", inputs, {
        **_criterion(report),
        "nonseparable": report.verdict is Verdict.NONLOCAL_CERTIFIED,
        "pair": None if pair is None else pair._asdict(),
        "table": None if table is None else table._asdict(),
        "candidate": source,
    })


def cmd_noise_threshold(args: argparse.Namespace) -> dict:
    inputs: dict = {}
    psi = _load_pure(args, "state", inputs)
    noise = _load_density(args, "noise", inputs)
    try:
        report = noise_threshold(psi, noise)
    except NotHardyError:
        raise NotHardyError(
            f"state file {args.state} has no admissible pair of distinct Schmidt weights"
        ) from None
    return _payload("noise-threshold", inputs, report._asdict())


def cmd_lhv_check(args: argparse.Namespace) -> dict:
    inputs: dict = {}
    sigma = _load_density(args, "state", inputs)
    candidate = _load_pure(args, "candidate", inputs)
    criterion = certify(sigma, candidate)
    behavior = criterion.behavior
    if behavior is None:
        raise NotHardyError(
            f"candidate file {args.candidate} has no admissible pair of distinct Schmidt weights"
        )
    # --tol is the validation tolerance; the local-model search keeps its own.
    result = lhv_feasible(behavior)
    # The criterion is one-sided: a certification must coincide with LP
    # infeasibility, while an inconclusive margin constrains nothing.
    certified = criterion.verdict is Verdict.NONLOCAL_CERTIFIED
    return _payload("lhv-check", inputs, {
        "facet": None if result.facet is None else _facet(result.facet, result.max_violation),
        "feasible": result.feasible,
        "max_violation": result.max_violation,
        "weights": None if result.weights is None else result.weights.tolist(),
        "criterion": _criterion(criterion),
        "consistent": not (certified and result.feasible),
    })


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at ``os.devnull``, so
    teardown drops the report left in its buffer instead of failing to flush
    it again ("Exception ignored", status 120; the Python docs' SIGPIPE note)."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # io.UnsupportedOperation, as from a StringIO
        return
    with open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), fd)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a handler replaced after the parser was cached runs.
    handler = {
        "gen-state": cmd_gen_state,
        "certify": cmd_certify,
        "noise-threshold": cmd_noise_threshold,
        "lhv-check": cmd_lhv_check,
    }[args.command]
    try:
        payload = handler(args)
        text = dump_json(payload)
        if args.output is None:
            try:
                sys.stdout.write(text)
                # Flushed here, so a report that cannot be written is an
                # error of the command rather than of interpreter teardown.
                sys.stdout.flush()
            except OSError:
                _discard_stdout()
                raise
        else:
            args.output.write_text(text)
    except (HardycertError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


def entry() -> NoReturn:
    """Run ``main`` on ``sys.argv``, flush standard output and standard
    error, and end the process with ``main``'s status through ``os._exit``.

    Interpreter and numpy finalization, tens of milliseconds of CPU in a
    run that takes a few hundred, never runs.  That is safe because every
    file ``main`` writes is closed before it returns and nothing registers
    ``atexit`` work, so the two standard streams hold all that is left to
    write.  A stream that cannot be flushed turns status 0 into 2; ``main``
    has already reported a standard output that failed.  An exception
    escaping ``main``, argparse's ``SystemExit`` (``--help``, a usage error)
    among them, takes the normal exit path.
    """
    status = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            status = status or 2
    os._exit(status)


if __name__ == "__main__":
    entry()

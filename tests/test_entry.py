"""The process entry point, ``hardycert.cli.entry``, behind the console
script and ``python -m hardycert``: it ends the process with ``os._exit``
once the report is flushed, and a fresh process gives what ``cli.main``
gives in this one, byte for byte.  Every child runs under the suite's
warning policy and every pipe is closed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hardycert.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra) -> dict:
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    env.update(extra)
    return env


def run_module(argv, **kwargs) -> subprocess.CompletedProcess:
    """A fresh ``python -m hardycert`` process on ``argv``, run to completion."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": child_env(), **kwargs}
    return subprocess.run([sys.executable, "-m", "hardycert", *argv], timeout=120, **kwargs)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """State files for every command, written in this process; ``bad`` is
    malformed."""
    root = tmp_path_factory.mktemp("entry")
    paths = {}
    for name, kind in (("hardy", "hardy"), ("mix", "white-noise-mix"), ("prod", "product")):
        paths[name] = root / f"{name}.json"
        assert main(["gen-state", kind, "--output", str(paths[name])]) == 0
    paths["bad"] = root / "bad.json"
    paths["bad"].write_text("{this is not json")
    return paths


#: One argument list per command kind, with ``{name}`` for a file of
#: ``files`` and ``{out}`` for the ``--output`` path.
COMMANDS = {
    "gen-state-output": ["gen-state", "hardy", "--p1-sq", "0.3", "--output", "{out}"],
    "certify-candidate": ["certify", "--state", "{mix}", "--candidate", "{hardy}"],
    "certify-top-eigenvector": ["certify", "--state", "{mix}"],
    "noise-threshold": ["noise-threshold", "--state", "{hardy}", "--noise", "{prod}"],
    "lhv-check-feasible": ["lhv-check", "--state", "{prod}", "--candidate", "{hardy}"],
    "lhv-check-infeasible": ["lhv-check", "--state", "{hardy}", "--candidate", "{hardy}"],
    "malformed": ["certify", "--state", "{bad}"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_entry_point_gives_what_main_gives(command, files, tmp_path, capsysbinary):
    # Skipping teardown must lose no byte of a report, on stdout or on disk.
    def argv(out):
        return [arg.format(out=out, **files) for arg in COMMANDS[command]]

    code = main(argv(tmp_path / "main.json"))
    captured = capsysbinary.readouterr()
    child = run_module(argv(tmp_path / "child.json"))
    assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)
    assert code == (2 if command == "malformed" else 0)
    if "{out}" in COMMANDS[command]:
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()
    else:
        assert not list(tmp_path.iterdir())


#: A program that runs ``cli.main`` in process and exits with its status,
#: so interpreter teardown runs after it.
IN_PROCESS = "import sys; from hardycert.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_unwritable_report_exits_2(unbuffered, files):
    # With stdout buffered, a report written to a closed pipe used to fail
    # only in interpreter teardown: "Exception ignored" and exit status 120,
    # from the entry point and, after main had returned 2, from a program
    # that calls main in process.
    env = child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    argv = ["certify", "--state", str(files["mix"])]
    for command in (["-m", "hardycert"], ["-c", IN_PROCESS]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, *command, *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        err = child.stderr.decode()
        assert child.returncode == 2, (command, err)
        assert err.count("error:") == 1 and err.startswith("error: ") and "Broken pipe" in err
        assert "Exception ignored" not in err


@pytest.mark.parametrize(
    ("argv", "code", "stream"),
    [(["--help"], 0, "stdout"), (["certify"], 2, "stderr")],
    ids=["help", "usage-error"],
)
def test_argparse_exits_keep_their_status(argv, code, stream):
    # argparse's SystemExit leaves main and the entry point by the normal
    # exit path, which flushes what argparse printed.
    child = run_module(argv)
    assert child.returncode == code
    assert getattr(child, stream).startswith(b"usage: hardycert")


def test_entry_point_skips_interpreter_teardown():
    # An atexit hook stands in for teardown: it must not run, while the
    # report is flushed and the status kept.
    code = (
        "import atexit, sys; atexit.register(print, 'teardown ran'); "
        "from hardycert.cli import entry; sys.argv = ['hardycert', 'gen-state', 'bell']; entry()"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=child_env(), timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith(b"{") and child.stdout.endswith(b"}\n")
    assert b"teardown ran" not in child.stdout

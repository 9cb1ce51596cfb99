"""Show which of the package's tolerances the test suite holds in place.

    python tools/tolerance_probe.py

copies the repository to a temporary directory, scales each named tolerance
by 1e3 and then by 1e-3 in that copy, one at a time, runs the tier-1 suite
(``python -m pytest -q`` with ``src`` on the path) after each edit, and
prints a table of the failing tests per scaling.  A scaling under which
every test passes is a threshold the suite does not pin.  The working tree
is never edited.  The tolerances are the module constants in ``TARGETS``
and the factor ``4.0`` of ``linalg._roundoff``, the package's one round-off
bound.

The unedited copy is run first and must pass, so that a failure counted
below belongs to its scaling.  Each run takes as long as the suite, about
10 s on a 2-vCPU host, so the probe is run by hand, not by pytest or CI.
Only the standard library is used.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (module under ``src/hardycert``, the module-level constant, or the
#: function whose one float literal is scaled).
TARGETS = [
    ("states", "STATE_TOL"),
    ("linalg", "_roundoff"),
    ("observables", "PAIR_FLOOR"),
    ("simplex", "PIVOT_EPS"),
    ("states", "WEIGHT_FLOOR"),
    ("certification", "CERTIFICATION_TOL"),
    ("simplex", "FEASIBILITY_TOL"),
    ("lhv", "NORMALIZATION_TOL"),
    ("lhv", "PROBABILITY_CLIP"),
]
SCALES = ("1e3", "1e-3")


def _literal(source: str, name: str) -> ast.Constant:
    """The float literal ``name`` stands for in ``source``: the value of a
    module-level assignment to ``name``, or the one float literal in the
    body of the function ``name``."""
    for node in ast.parse(source).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == [name]:
            found = [node.value]
        elif isinstance(node, ast.FunctionDef) and node.name == name:
            found = [
                leaf
                for statement in node.body[1:]  # past the docstring
                for leaf in ast.walk(statement)
                if isinstance(leaf, ast.Constant) and type(leaf.value) is float
            ]
        else:
            continue
        if len(found) == 1 and isinstance(found[0], ast.Constant):
            return found[0]
    raise LookupError(f"no single float literal for {name}")


def _scaled(source: str, name: str, scale: str) -> tuple[str, str]:
    """``source`` with the literal of ``name`` multiplied by ``scale`` in
    decimal, and the literal's text before the edit."""
    node = _literal(source, name)
    lines = source.splitlines(keepends=True)
    line = lines[node.lineno - 1]
    old = line[node.col_offset : node.end_col_offset]
    new = repr(float(Decimal(old) * Decimal(scale)))
    lines[node.lineno - 1] = line[: node.col_offset] + new + line[node.end_col_offset :]
    return "".join(lines), old


def _failures(tree: Path) -> list[str]:
    """The ids of the tests that fail or error in ``tree``'s tier-1 run."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors",
    ]
    run = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if run.returncode not in (0, 1) or (run.returncode == 1 and not failed):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tolerance-probe-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(
            ROOT, tree, ignore=shutil.ignore_patterns(".git", ".bench*", "__pycache__", ".*_cache")
        )
        baseline = _failures(tree)
        if baseline:
            print("the unedited tree fails; no scaling can be read:", *baseline, sep="\n  ")
            return 1
        rows = []
        for module, name in TARGETS:
            path = tree / "src" / "hardycert" / f"{module}.py"
            original = path.read_text()
            counts = []
            for scale in SCALES:
                edited, old = _scaled(original, name, scale)
                path.write_text(edited)
                try:
                    failed = _failures(tree)
                finally:
                    path.write_text(original)
                counts.append(f"{len(failed)} failed" if failed else "all pass")
                print(f"{module}.{name} ({old}) x{scale}: {counts[-1]}", *failed, sep="\n  ")
            rows.append((f"{module}.{name} ({old})", *counts))
        print(f"\n| tolerance | x{SCALES[0]} | x{SCALES[1]} |\n|---|---|---|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

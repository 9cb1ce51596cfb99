"""Self-test of the output checks.

Feeds the checks one correct certify report, the same report with its
verdict corrupted, one malformed-file invocation that exits 2 and the same
invocation exiting 0.  Each fault must be judged failed, so the failed share
rises from 0 once the faults are added.  ``bench/run.py`` runs this before
every measurement; it also runs on its own:

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

from workloads import CertifySweep, CliOneshot


def selftest(hc, workdir: Path) -> list[str]:
    """Problems found in the checks; empty when they catch both faults."""
    sweep = CertifySweep(hc, 0, workdir, indices=[0])
    item = sweep.items[0]
    report = sweep.op(item)
    corrupted = dataclasses.replace(
        report,
        verdict=next(v for v in hc.Verdict if v is not report.verdict),
    )
    cli = CliOneshot(hc, 0, workdir)
    try:
        bad = next(i for i in cli.items if i.call == "malformed")
        cases = [
            ("correct verdict", sweep, item, report, True),
            ("corrupted verdict", sweep, item, corrupted, False),
            ("exit 2 on a malformed file", cli, bad, (2, b""), True),
            ("exit 0 on a malformed file", cli, bad, (0, b""), False),
        ]
        problems = []
        failed_clean = failed_all = 0
        for label, workload, case_item, out, want in cases:
            ok = workload.check(case_item, out, None)
            # A failing correct case is the program's fault, which the
            # timed run reports; only a fault judged correct is the checker's.
            if ok and not want:
                problems.append(f"check judged the {label} case correct")
            failed_all += not ok
            failed_clean += want and not ok
        clean = sum(want for *_, want in cases)
        if not failed_all / len(cases) > failed_clean / clean:
            problems.append("failed share did not rise when faults were added")
        return problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import hardycert

    found = selftest(hardycert, root / ".bench_work" / "selftest")
    print("checker self-test:", "; ".join(found) if found else "ok")
    sys.exit(1 if found else 0)

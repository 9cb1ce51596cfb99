"""Set-up probe for the in-process workloads.

A fresh interpreter imports numpy and the package, builds one input (combo 0
of the workload, the same for every seed) and completes one checked
operation, then exits 0, or 1 when the check fails.  ``bench/run.py`` times
the whole process from outside to get ``setup_s``.

    python3 bench/probe.py --workload certify-sweep --seed 1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hardycert  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["certify-sweep", "lhv-crosscheck"])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](hardycert, args.seed, None, indices=[0])
    item = workload.items[0]
    try:
        out, err = workload.op(item), None
    except Exception as exc:  # judged by the check, like every timed op
        out, err = None, exc
    return 0 if workload.check(item, out, err) else 1


if __name__ == "__main__":
    sys.exit(main())

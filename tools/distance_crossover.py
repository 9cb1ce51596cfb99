"""Time the two ways ``certification._candidate_distance`` can take the trace
distance to a candidate that is no eigenvector of its state, and print the
dimension from which the refinement is the cheaper one.

    python tools/distance_crossover.py [--repeats N]

For each D = d1 d2 in 9, 16, 25, 32, 36 and 64 it builds seeded mixtures
``(1 - w) |psi><psi| + w tau`` (psi a random unit vector, tau a random
full-rank state, w uniform in [0.05, 0.5]), forms ``X = unit - v v^H`` for
the candidate psi, and times, on the same X:

- ``_trace_distance(X)``, one ``eigvalsh`` of X;
- ``_refined_distance``, one Ritz pair and up to two Rayleigh-quotient
  steps, each one linear solve and one matrix-vector product.

A cost is the best of N single calls (default 200) timed with
``time.process_time_ns``, with BLAS pinned to one thread, as the benchmark
pins it; the table gives the median over the mixtures of each best.  The
printed crossover is the smallest D from which the refinement is cheaper at
every larger D in the table; ``certification._REFINE_MIN_DIM`` should sit
there.  Timings move with the host and the BLAS, so the figures are read
by hand: pytest does not run the probe, and CI runs it only for its exit
status.  Only numpy and the standard library are used.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402  (after the BLAS pin)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hardycert import certification  # noqa: E402
from hardycert.linalg import _roundoff  # noqa: E402

#: (d1, d2) for D = 9, 16, 25, 32, 36 and 64.
DIMS = [(3, 3), (4, 4), (5, 5), (4, 8), (6, 6), (8, 8)]
MIXTURES = 5


def _mixture(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A unit-trace mixture of a random pure state and a random full-rank
    state, and the pure state's unit vector."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    tau = g @ g.conj().T
    w = float(rng.uniform(0.05, 0.5))
    unit = (1.0 - w) * np.outer(psi, psi.conj()) + w * tau / np.trace(tau).real
    return (unit + unit.conj().T) / 2.0, psi


def _best_ns(call, repeats: int) -> int:
    best = math.inf
    for _ in range(repeats):
        start = time.process_time_ns()
        call()
        best = min(best, time.process_time_ns() - start)
    return best


def measure(d1: int, d2: int, repeats: int) -> tuple[float, float, int]:
    """Median best costs in microseconds of ``eigvalsh`` and of the
    refinement at d1 x d2, and how many mixtures the refinement certified."""
    dim = d1 * d2
    rng = np.random.default_rng([35, d1, d2])
    delta = _roundoff(dim, 1.0)
    spectra, refined, accepted = [], [], 0
    for _ in range(MIXTURES):
        unit, v = _mixture(dim, rng)
        w = unit @ v
        f = float(np.vdot(v, w).real)
        r = w - f * v
        r_norm = math.sqrt(np.vdot(r, r).real)
        difference = unit - v[:, None] * v.conj()
        args = (difference, v, f, r / r_norm, r_norm, delta)
        accepted += certification._refined_distance(*args) is not None
        spectra.append(_best_ns(lambda: certification._trace_distance(difference), repeats))
        refined.append(_best_ns(lambda: certification._refined_distance(*args), repeats))
    return float(np.median(spectra)) / 1e3, float(np.median(refined)) / 1e3, accepted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200, help="timed calls per cost (default 200)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"numpy {np.__version__}, best of {args.repeats} calls, median of {MIXTURES} mixtures")
    print(f"{'D':>4} {'eigvalsh us':>12} {'refine us':>10} {'certified':>10}")
    rows = []
    for d1, d2 in DIMS:
        spectrum, refine, accepted = measure(d1, d2, args.repeats)
        rows.append((d1 * d2, spectrum, refine))
        print(f"{d1 * d2:>4} {spectrum:>12.1f} {refine:>10.1f} {accepted:>6}/{MIXTURES}")
    crossover = None
    for dim, spectrum, refine in reversed(rows):
        if refine >= spectrum:
            break
        crossover = dim
    print(f"crossover: D = {crossover}" if crossover else "crossover: none in the table")
    print(f"certification._REFINE_MIN_DIM = {certification._REFINE_MIN_DIM}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the two ways ``certification._candidate_distance`` can take the trace
distance to a candidate that is no eigenvector of its state, and the two
ways the top eigenvector can be found, and print the dimension from which
the refinement, and from which the power steps, are the cheaper ones.  Also
count the power steps a top eigenvalue just below half the trace takes
before the steps hand over to ``eigh``.

    python tools/distance_crossover.py [--repeats N]

For each D = d1 d2 in 9, 16, 25, 32, 36 and 64 it builds seeded mixtures
``(1 - w) |psi><psi| + w tau`` (psi a random unit vector, tau a random
full-rank state, w uniform in [0.05, 0.5]), forms ``X = unit - v v^H`` for
the candidate psi, and times, on the same X:

- ``_trace_distance(X)``, one ``eigvalsh`` of X;
- ``_refined_distance``, one Ritz pair and up to two Rayleigh-quotient
  steps, each one linear solve and one matrix-vector product;

and, on the same unit-trace mixture, whose top eigenvalue exceeds half its
trace:

- ``eigh``, the top eigenvector's solve below the constant;
- ``_top_eigenpair``, power steps until the residual proves the vector,
  timed with the constant lowered to 1 so that it runs at every D; a
  mixture whose vector the steps do not prove is timed with the ``eigh``
  they hand it to.

The last column counts the matrix-vector products ``_top_eigenpair``, with
the constant lowered to 1, takes on a seeded state with eigenvalues 0.49
and 0.06 and 0.45 spread evenly over the rest, in a Haar-random basis,
before it calls ``eigh``: none where ``tr sigma^2 <= t^2 / 4`` declines it
at once, and otherwise the steps until ``mu + |r|`` settles at or below
half the trace.

A cost is the best of N single calls (default 200) timed with
``time.process_time_ns``, with BLAS pinned to one thread, as the benchmark
pins it; the table gives the median over the mixtures of each best.  Each
printed crossover is the smallest D from which the faster method is the
cheaper one at every larger D in the table.  Both crossovers are read
against the one constant ``certification._REFINE_MIN_DIM``, which should
sit at or above each.  Timings move with the host and the BLAS, so the
figures are read by hand: pytest does not run the probe, and CI runs it
only for its exit status.  Only numpy and the standard library are used.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from unittest import mock

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


def _below_half(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A unit-trace state whose top eigenvalue, 0.49, sits just below half
    its trace, with 0.06 next and 0.45 spread evenly over the rest, in a
    Haar-random basis."""
    values = np.full(dim, 0.45 / (dim - 2))
    values[:2] = 0.49, 0.06
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    basis = q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()
    return (basis * values) @ basis.conj().T


class _CountedProducts(np.ndarray):
    """A matrix view that counts the matrix-vector products taken on it."""

    def __matmul__(self, other):
        self.products += 1
        return np.ndarray.__matmul__(np.asarray(self), other)


def below_half_products(dim: int) -> int:
    """The power steps ``_top_eigenpair`` takes on ``_below_half`` before
    it calls ``eigh``, with the constant lowered to 1."""
    counted = _below_half(dim, np.random.default_rng([41, dim])).view(_CountedProducts)
    counted.products = 0
    with mock.patch.object(certification, "_REFINE_MIN_DIM", 1):
        assert certification._top_eigenpair(counted)[1] is not None
    return counted.products


def _best_ns(call, repeats: int) -> int:
    best = math.inf
    for _ in range(repeats):
        start = time.process_time_ns()
        call()
        best = min(best, time.process_time_ns() - start)
    return best


def measure(d1: int, d2: int, repeats: int) -> tuple[list[float], list[int]]:
    """Median best costs in microseconds of ``eigvalsh``, the refinement,
    ``eigh`` and the power steps at d1 x d2, and how many mixtures the
    refinement certified and the power steps proved."""
    dim = d1 * d2
    rng = np.random.default_rng([35, d1, d2])
    delta = _roundoff(dim, 1.0)
    costs: list[list[int]] = [[], [], [], []]
    accepted = [0, 0]
    for _ in range(MIXTURES):
        unit, v = _mixture(dim, rng)
        w = unit @ v
        f = float(np.vdot(v, w).real)
        r = w - f * v
        r_norm = math.sqrt(np.vdot(r, r).real)
        difference = unit - v[:, None] * v.conj()
        args = (difference, v, f, r / r_norm, r_norm, delta)
        accepted[0] += certification._refined_distance(*args) is not None
        costs[0].append(_best_ns(lambda: certification._trace_distance(difference), repeats))
        costs[1].append(_best_ns(lambda: certification._refined_distance(*args), repeats))
        costs[2].append(_best_ns(lambda: np.linalg.eigh(unit), repeats))
        with mock.patch.object(certification, "_REFINE_MIN_DIM", 1):
            accepted[1] += certification._top_eigenpair(unit)[1] is None
            costs[3].append(_best_ns(lambda: certification._top_eigenpair(unit), repeats))
    return [float(np.median(c)) / 1e3 for c in costs], accepted


def crossover(rows: list[tuple[int, float, float]]) -> str:
    """The smallest D of ``(D, slow, fast)`` rows from which ``fast`` is
    the cheaper at every larger D."""
    found = None
    for dim, slow, fast in reversed(rows):
        if fast >= slow:
            break
        found = dim
    return f"D = {found}" if found else "none in the table"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200, help="timed calls per cost (default 200)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"numpy {np.__version__}, best of {args.repeats} calls, median of {MIXTURES} mixtures")
    print(f"{'D':>4} {'eigvalsh us':>12} {'refine us':>10} {'certified':>10}"
          f" {'eigh us':>8} {'power us':>9} {'proved':>7} {'below-half steps':>17}")
    distances, vectors = [], []
    for d1, d2 in DIMS:
        (spectrum, refine, full, power), (certified, proved) = measure(d1, d2, args.repeats)
        distances.append((d1 * d2, spectrum, refine))
        vectors.append((d1 * d2, full, power))
        print(f"{d1 * d2:>4} {spectrum:>12.1f} {refine:>10.1f} {certified:>6}/{MIXTURES}"
              f" {full:>8.1f} {power:>9.1f} {proved:>3}/{MIXTURES}"
              f" {below_half_products(d1 * d2):>17}")
    print(f"epsilon crossover: {crossover(distances)}; "
          f"top-eigenvector crossover: {crossover(vectors)}")
    print(f"both read certification._REFINE_MIN_DIM = {certification._REFINE_MIN_DIM}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded random-object generators shared by the test modules.

Everything takes an explicit numpy Generator so that each test pins its own
seed and reruns reproduce failures exactly.
"""

from __future__ import annotations

import numpy as np

from hardycert import (
    DensityOperator,
    StateVector,
    build_bases,
    build_observables,
    find_hardy_pair,
    hardy_parameter_a,
    pure_density,
    schmidt_decompose,
    trace_distance,
    validate_density,
)
from hardycert.observables import HardyObservables
from hardycert.states import SchmidtForm

#: The certification parameter of ``fixture_state()``, in closed form at
#: weights sqrt(0.2), sqrt(0.8).
A_FIXTURE = 4.0 / 45.0


def fixture_state() -> StateVector:
    """The two-qubit fixture sqrt(0.2)|00> + sqrt(0.8)|11>."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.2)
    amps[3] = np.sqrt(0.8)
    return StateVector(d1=2, d2=2, amplitudes=amps)


def hardy_observables(psi: StateVector, sf: SchmidtForm | None = None) -> HardyObservables:
    """A candidate's four observables, by the chain ``certify`` runs:
    schmidt_decompose, find_hardy_pair, build_bases, build_observables.
    ``sf`` stands in for the candidate's own Schmidt form."""
    sf = schmidt_decompose(psi) if sf is None else sf
    pair = find_hardy_pair(sf)
    assert pair is not None
    return build_observables(build_bases(sf, pair), psi.d1, psi.d2)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def random_state_vector(d1: int, d2: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=d1 * d2) + 1j * rng.normal(size=d1 * d2)
    return StateVector(d1=d1, d2=d2, amplitudes=amps / np.linalg.norm(amps))


def random_single_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix on one subsystem (Ginibre construction)."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_density(d1: int, d2: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random bipartite density operator."""
    return validate_density(random_single_density(d1 * d2, rng, rank=rank), d1, d2)


def random_projector(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random orthogonal projector of the given (or random nonzero) rank."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    cols = haar_unitary(dim, rng)[:, :rank]
    return cols @ cols.conj().T


def random_weights(count: int, rng: np.random.Generator, min_gap: float = 0.05) -> np.ndarray:
    """Positive Schmidt weights, descending, squares summing to 1, with the
    extreme pair separated by at least ``min_gap``."""
    while True:
        raw = rng.uniform(0.2, 1.0, size=count)
        weights = np.sort(raw / np.linalg.norm(raw))[::-1]
        if count == 1 or weights[0] - weights[-1] > min_gap:
            return weights


def assemble_pure_state(
    weights: np.ndarray, u1: np.ndarray, u2: np.ndarray, d1: int, d2: int
) -> StateVector:
    """Build sum_k weights[k] u1[:, k] (x) u2[:, k] as a StateVector."""
    amps = np.zeros(d1 * d2, dtype=complex)
    for k, w in enumerate(weights):
        amps += w * np.kron(u1[:, k], u2[:, k])
    return StateVector(d1=d1, d2=d2, amplitudes=amps / np.linalg.norm(amps))


def random_hardy_state(
    rng: np.random.Generator,
    d1: int | None = None,
    d2: int | None = None,
    min_a: float = 0.0,
) -> StateVector:
    """Random pure state with at least one well-separated Schmidt weight pair.

    Dimensions default to uniform draws from {2..5}; the Schmidt rank is
    drawn from {2..min(d1, d2)} and the bases are Haar random.  With
    ``min_a`` set, weights are resampled until the best pair's certification
    parameter reaches it.
    """
    d1 = d1 or int(rng.integers(2, 6))
    d2 = d2 or int(rng.integers(2, 6))
    rank = int(rng.integers(2, min(d1, d2) + 1))
    while True:
        weights = random_weights(rank, rng)
        best = max(
            hardy_parameter_a(float(weights[i]), float(weights[j]))
            for j in range(rank)
            for i in range(j + 1, rank)
        )
        if best >= min_a:
            break
    return assemble_pure_state(weights, haar_unitary(d1, rng), haar_unitary(d2, rng), d1, d2)


def random_separable(
    d1: int, d2: int, rng: np.random.Generator, terms: int = 4
) -> DensityOperator:
    """Random convex mixture of product density operators."""
    mix = rng.dirichlet(np.ones(terms))
    matrix = sum(
        q * np.kron(random_single_density(d1, rng), random_single_density(d2, rng))
        for q in mix
    )
    return validate_density(matrix, d1, d2)


def certified_mixture(
    rng: np.random.Generator, d1: int | None = None, d2: int | None = None
) -> tuple[DensityOperator, StateVector]:
    """A (state, candidate) pair whose certification margin is comfortably
    positive: sigma = (1 - w) |psi><psi| + w tau with w capped so that
    6 * epsilon stays at most 80% of a."""
    psi = random_hardy_state(rng, d1=d1, d2=d2, min_a=5e-3)
    tau = random_density(psi.d1, psi.d2, rng)
    pair = find_hardy_pair(schmidt_decompose(psi))
    assert pair is not None
    distance = trace_distance(tau, pure_density(psi))
    w_max = min(1.0, 0.8 * pair.a / (6.0 * distance))
    w = float(rng.uniform(0.0, w_max))
    sigma = validate_density(
        (1.0 - w) * psi.projector() + w * tau.matrix, psi.d1, psi.d2
    )
    return sigma, psi

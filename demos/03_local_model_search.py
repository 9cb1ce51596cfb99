"""Search for local hidden variable models: facets, a projection, an LP.

A behavior (the four joint outcome tables, one per measurement-setting
pair) admits a local model exactly when it is a convex mixture of the 81
deterministic strategies -- assignments of a definite outcome to every
setting of each party.  The search takes three steps, cheapest proof first:

1. The hull of those strategies has 1,116 known facets (positivity,
   liftings of CHSH, relabelings of CGLMP).  A behavior that violates one
   has no local model, and the facet is the witness.
2. Any other behavior is offered one explicit model: the product of the
   parties' marginals, moved onto the cells by one diagonally scaled
   least-squares step.  Nonnegative weights that reproduce the cells
   within 1e-9 prove the behavior local.  They are an interior point, so
   many strategies carry a little weight.
3. Only when that fails does a linear feasibility problem, solved by a
   phase-1 simplex method, decide; its solution is a vertex model with at
   most 25 strategies.

The oracle is independent of the trace-distance criterion: where the
criterion certifies, it must find no model, and for manifestly classical
states it must exhibit an explicit one.
"""

import numpy as np

from hardycert import (
    StateVector,
    behavior_from_state,
    build_bases,
    build_observables,
    certify,
    enumerate_strategies,
    find_hardy_pair,
    lhv_feasible,
    maximally_mixed,
    pure_density,
    schmidt_decompose,
    validate_density,
)
from hardycert.lhv import facet_table

amps = np.zeros(4, dtype=complex)
amps[0] = np.sqrt(0.2)
amps[3] = np.sqrt(0.8)
psi = StateVector(d1=2, d2=2, amplitudes=amps)

sf = schmidt_decompose(psi)
pair = find_hardy_pair(sf)
obs = build_observables(build_bases(sf, pair), 2, 2)

strategies = enumerate_strategies()
print(f"deterministic strategies: {len(strategies)}")
print(f"first few: {strategies[:3]} ... last: {strategies[-1]}")
print()


def examine(label, sigma):
    behavior = behavior_from_state(sigma, obs)
    result = lhv_feasible(behavior)
    report = certify(sigma, psi)
    print(f"{label}:")
    print(f"  criterion: epsilon = {report.epsilon:.6f}, a = {report.a:.6f}, "
          f"margin = {report.margin:+.6f} -> {report.verdict.value}")
    if result.feasible:
        support = np.flatnonzero(result.weights > 1e-9)
        print(f"  local model FOUND ({support.size} strategies carry weight, "
              f"reconstruction error {result.max_violation:.2e})")
        heaviest = support[np.argsort(result.weights[support])[::-1][:3]]
        for idx in heaviest:
            print(f"      weight {result.weights[idx]:.4f} on strategy "
                  f"(x1,y1,x2,y2) = {tuple(strategies[idx])}")
    elif result.facet is not None:
        table = facet_table()
        print(f"  no local model: {table.classes[result.facet]} facet #{result.facet} "
              f"exceeds its bound {table.bounds[result.facet]:g} by {result.max_violation:.3e}")
    else:
        print(f"  LP: INFEASIBLE (best artificial residual {result.max_violation:.3e})")
    print()


# A product state is as classical as it gets: the LP must find a model.
product = np.zeros(4, dtype=complex)
product[0] = 1.0
examine("product state |00>", pure_density(StateVector(d1=2, d2=2, amplitudes=product)))

# White noise is separable, so again a model must exist.
examine("maximally mixed state", maximally_mixed(2, 2))

# The pure reference state: five zero conditions plus a positive sixth
# probability leave no room for any mixture of deterministic strategies.
examine("pure two-weight state", pure_density(psi))

# A certified noisy mixture: the margin is positive, so infeasibility is
# guaranteed, not merely expected.
sigma = validate_density(
    0.99 * psi.projector() + 0.01 * maximally_mixed(2, 2).matrix, 2, 2
)
examine("99% mixture with white noise", sigma)

# Past the threshold the criterion goes silent.  The LP keeps its own
# counsel: for this family a local model reappears only at much lower p,
# so both verdicts stay informative without contradicting each other.
sigma = validate_density(
    0.9 * psi.projector() + 0.1 * maximally_mixed(2, 2).matrix, 2, 2
)
examine("90% mixture (criterion inconclusive)", sigma)

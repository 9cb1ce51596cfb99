"""Walk through the Hardy construction for a two-qubit state.

Any bipartite pure state with two distinct Schmidt weights supports a set of
four local measurements whose statistics rule out local realism "without
inequalities": five designated joint probabilities vanish identically while
a sixth stays strictly positive.  A local hidden variable model that honors
the five zeros is forced to predict zero for the sixth as well, so the
positive value is the whole argument.

This script builds the standard fixture (p1^2 = 0.2, p2^2 = 0.8), prints the
measurement bases, and verifies the six probabilities against the closed
form.
"""

import numpy as np

from hardycert import (
    StateVector,
    build_bases,
    certify,
    find_hardy_pair,
    hardy_parameter_a,
    pure_density,
    schmidt_decompose,
)

np.set_printoptions(precision=6, suppress=True)

# The state sqrt(0.2)|00> + sqrt(0.8)|11>, written over the product basis.
amps = np.zeros(4, dtype=complex)
amps[0] = np.sqrt(0.2)
amps[3] = np.sqrt(0.8)
psi = StateVector(d1=2, d2=2, amplitudes=amps)

print("state amplitudes over |00>, |01>, |10>, |11>:")
print(psi.amplitudes)
print()

# Schmidt-decompose and pick the weight pair that maximizes the
# certification parameter.  For a two-term state there is only one pair.
sf = schmidt_decompose(psi)
print("Schmidt weights (descending):", sf.weights)

pair = find_hardy_pair(sf)
print(f"selected pair: p1 = {pair.p1:.6f}, p2 = {pair.p2:.6f}")
print(f"certification parameter a = {pair.a:.10f}")
print(f"closed form              a = {hardy_parameter_a(pair.p1, pair.p2):.10f}")
print()

# Each party measures one of two three-outcome observables.  On a qubit the
# null outcome never fires; in larger spaces it absorbs the complement of
# the two-dimensional Schmidt sector.
# build_bases returns one array per party, indexed [setting, sign, component]:
# setting 0 is x and 1 is y, sign 0 is the +1 vector and 1 the -1 vector.
alice, _ = build_bases(sf, pair)
print("first party's x-basis vectors (rows +1, -1):")
print(alice[0])
print("first party's y-basis vectors (rows +1, -1):")
print(alice[1])
print()

# certify builds the four observables from the same pair and reads the six
# designated cells off the state's 36-cell behavior on them.
table = certify(pure_density(psi), psi).table

print("the six designated probabilities:")
print(f"  P(X1=+1, X2=+1) = {table.x1_plus_x2_plus: .3e}   (must vanish)")
print(f"  P(Y1=+1, X2=-1) = {table.y1_plus_x2_minus: .3e}   (must vanish)")
print(f"  P(X1=-1, Y2=+1) = {table.x1_minus_y2_plus: .3e}   (must vanish)")
print(f"  P(Y1=+1, X2= 0) = {table.y1_plus_x2_zero: .3e}   (must vanish)")
print(f"  P(X1= 0, Y2=+1) = {table.x1_zero_y2_plus: .3e}   (must vanish)")
print(f"  P(Y1=+1, Y2=+1) = {table.y1_plus_y2_plus: .10f}  (this is a)")
print()

# The same construction goes through for any admissible weight pair.  Sweep
# the qubit family and locate the best achievable parameter.
print("sweeping p1^2 over the two-qubit family:")
best = (0.0, 0.0)
for s in np.linspace(0.005, 0.495, 99):
    value = hardy_parameter_a(np.sqrt(s), np.sqrt(1.0 - s))
    if value > best[0]:
        best = (value, s)
print(f"  best a on the sweep = {best[0]:.7f} at p1^2 = {best[1]:.3f}")
print(f"  analytic maximum      {(5.0 * np.sqrt(5.0) - 11.0) / 2.0:.7f} at p1*p2 = {(3.0 - np.sqrt(5.0)) / 2.0:.6f}")

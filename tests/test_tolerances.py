"""Tolerance pins: each test holds one of the package's thresholds at its
value with literal inputs that sit between the value and a thousandfold
change of it, either way.  A test that imports a constant by name moves with
it and pins only the rule; these do not import it.  Run
``python tools/tolerance_probe.py`` to see which scalings the suite catches.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hardycert import (
    DensityOperator,
    StateVector,
    Verdict,
    certify,
    lhv_feasible,
    maximally_mixed,
    noise_threshold,
    schmidt_decompose,
)
from hardycert.errors import InvalidStateError, MalformedBehaviorError
from hardycert.lhv import Behavior, facet_table
from support import fixture_state


def test_a_margin_of_1e_9_is_certified():
    # CERTIFICATION_TOL = 1e-10: the README state mixed with white noise just
    # above p_star, so that a - 6 epsilon = 6 (p - p_star) d_noise = 1e-9.
    psi = fixture_state()
    threshold = noise_threshold(psi, maximally_mixed(2, 2))
    p = threshold.p_star + 1e-9 / (6.0 * threshold.d_noise)
    projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
    sigma = DensityOperator(d1=2, d2=2, matrix=p * projector + (1.0 - p) * np.eye(4) / 4.0)
    report = certify(sigma, psi)
    assert report.margin == pytest.approx(1e-9, abs=1e-14)
    assert report.verdict is Verdict.NONLOCAL_CERTIFIED


def test_a_schmidt_weight_of_1e_13_is_dropped():
    # WEIGHT_FLOOR = 1e-12.
    amps = np.array([math.sqrt(1.0 - 1e-26), 0.0, 0.0, 1e-13], dtype=complex)
    weights = schmidt_decompose(StateVector(d1=2, d2=2, amplitudes=amps)).weights
    assert weights.tolist() == [1.0]


def _deterministic_plus_ones() -> np.ndarray:
    """The behavior of the strategy that answers +1 to every setting."""
    tables = np.zeros((2, 2, 3, 3))
    tables[:, :, 0, 0] = 1.0
    return tables


def _pr_box() -> np.ndarray:
    """The PR box on the +1 and -1 outcome slots: the outcomes agree except
    at the setting pair (1, 1), where they differ."""
    tables = np.zeros((2, 2, 3, 3))
    tables[:, :, 0, 0] = tables[:, :, 2, 2] = 0.5
    tables[1, 1] = 0.0
    tables[1, 1, 0, 2] = tables[1, 1, 2, 0] = 0.5
    return tables


def test_a_chsh_violation_of_1e_10_is_local():
    # FEASIBILITY_TOL = 1e-9: the deterministic behavior sits on a CHSH facet,
    # and the mixture with weight t of the PR box violates it by 2 t.
    t = 5e-11
    tables = (1.0 - t) * _deterministic_plus_ones() + t * _pr_box()
    facets = facet_table()
    violations = facets.coefficients @ tables.reshape(-1) - facets.bounds
    assert violations.max() == pytest.approx(1e-10, rel=1e-5)
    assert facets.classes[violations.argmax()] == "chsh"
    result = lhv_feasible(Behavior(tables))
    assert result.feasible is True and result.facet is None


def test_a_table_normalization_off_by_1e_5_is_malformed():
    # NORMALIZATION_TOL = 1e-6.
    tables = np.full((2, 2, 3, 3), 1.0 / 9.0)
    tables[0, 1, 2, 0] += 1e-5
    with pytest.raises(MalformedBehaviorError, match="table normalization off by 1.000e-05"):
        lhv_feasible(Behavior(tables))


@pytest.mark.parametrize("entry, accepted", [(-1e-11, False), (-1e-13, True)])
def test_behavior_entries_are_clipped_within_1e_12(entry, accepted):
    # PROBABILITY_CLIP = 1e-12.
    tables = np.full((2, 2, 3, 3), 1.0 / 9.0)
    tables[1, 0, 1, 2] = entry
    if accepted:
        assert Behavior(tables).tables[1, 0, 1, 2] == entry
    else:
        with pytest.raises(InvalidStateError, match=r"must lie in \[0, 1\]"):
            Behavior(tables)

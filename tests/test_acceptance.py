"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints one ``acceptance N: PASS/FAIL`` line (visible under
``pytest -s`` or in failure output) and then asserts, so the suite both
reports and enforces every criterion.
"""

import json
import math

import numpy as np

from hardycert import (
    Verdict,
    behavior_from_state,
    certify,
    hardy_parameter_a,
    lhv_feasible,
    maximally_mixed,
    noise_threshold,
    pure_density,
    trace_distance,
    validate_density,
)
from hardycert.cli import main as cli_main
from support import (
    certified_mixture,
    fixture_state,
    hardy_observables,
    random_density,
    random_hardy_state,
    random_projector,
    random_separable,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_acceptance_1_zero_conditions():
    """200 random states, d1, d2 in {2..5}: five vanishing probabilities and
    the sixth equal to its closed form, all within 1e-10."""
    rng = np.random.default_rng(901)
    worst_zero = 0.0
    worst_sixth = 0.0
    for _ in range(200):
        psi = random_hardy_state(rng)
        report = certify(pure_density(psi), psi)
        table, pair = report.table, report.pair
        worst_zero = max(worst_zero, max(abs(v) for v in table[:5]))
        worst_sixth = max(worst_sixth, abs(table.y1_plus_y2_plus - pair.a))
    ok = worst_zero <= 1e-10 and worst_sixth <= 1e-10
    _verdict(
        1,
        ok,
        f"200 random states: worst zero-condition {worst_zero:.2e}, "
        f"worst sixth-probability mismatch {worst_sixth:.2e} (tol 1e-10)",
    )


def test_acceptance_2_criterion_fixture():
    """p1^2 = 0.2 fixture: a = 0.0888889 via the closed form and via the
    spectral projectors, both within 1e-7."""
    psi = fixture_state()
    closed = hardy_parameter_a(math.sqrt(0.2), math.sqrt(0.8))
    obs = hardy_observables(psi)
    spectral = float(behavior_from_state(pure_density(psi), obs).tables[1, 1, 0, 0])
    ok = abs(closed - 0.0888889) <= 1e-7 and abs(spectral - 0.0888889) <= 1e-7
    _verdict(
        2,
        ok,
        f"closed form {closed:.10f}, spectral {spectral:.10f} "
        f"vs 0.0888889 (tol 1e-7)",
    )


def test_acceptance_3_maximum_hardy_parameter():
    """Grid search over qubit weight pairs: the maximal certification
    parameter and its location match the 1-D optimum."""
    step = 5e-5
    grid = np.arange(step, 0.5, step)          # s = p1^2
    best_a = -1.0
    best_product = 0.0
    for s in grid:
        p1 = math.sqrt(s)
        p2 = math.sqrt(1.0 - s)
        value = hardy_parameter_a(p1, p2)
        if value > best_a:
            best_a = value
            best_product = p1 * p2
    ok = abs(best_a - 0.0901699) <= 1e-5 and abs(best_product - 0.381966) <= 1e-4
    _verdict(
        3,
        ok,
        f"grid max a = {best_a:.7f} (expect 0.0901699 +- 1e-5) at "
        f"p1*p2 = {best_product:.6f} (expect 0.381966 +- 1e-4)",
    )


def test_acceptance_4_noise_threshold():
    """White-noise threshold for the fixture state: closed form matches the
    pinned value and a bisection on the numerical trace distance."""
    psi = fixture_state()
    noise = maximally_mixed(2, 2)
    report = noise_threshold(psi, noise)
    psi_proj = pure_density(psi)

    def margin(p: float) -> float:
        mixed = validate_density(
            p * psi.projector() + (1.0 - p) * noise.matrix, 2, 2
        )
        return report.a - 6.0 * trace_distance(mixed, psi_proj)

    lo, hi = 0.0, 1.0          # margin(0) < 0 < margin(1)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if margin(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    bisected = (lo + hi) / 2.0
    ok = abs(report.p_star - 0.9802469) <= 1e-6 and abs(bisected - report.p_star) <= 1e-9
    _verdict(
        4,
        ok,
        f"p_star = {report.p_star:.9f} (expect 0.9802469 +- 1e-6), "
        f"bisection gap {abs(bisected - report.p_star):.2e} (tol 1e-9)",
    )


def test_acceptance_5_soundness():
    """Positive margin forces LP infeasibility (100/100); separable states
    always admit a local model (100/100)."""
    rng = np.random.default_rng(905)
    infeasible = 0
    for _ in range(100):
        sigma, psi = certified_mixture(rng, d1=2, d2=2)
        report = certify(sigma, psi)
        assert report.margin > 0.0
        obs = hardy_observables(psi)
        if not lhv_feasible(behavior_from_state(sigma, obs)).feasible:
            infeasible += 1
    feasible = 0
    for _ in range(100):
        d1 = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 4))
        psi = random_hardy_state(rng, d1=d1, d2=d2)
        obs = hardy_observables(psi)
        sigma = random_separable(d1, d2, rng)
        if lhv_feasible(behavior_from_state(sigma, obs)).feasible:
            feasible += 1
    ok = infeasible == 100 and feasible == 100
    _verdict(
        5,
        ok,
        f"{infeasible}/100 certified states LP-infeasible, "
        f"{feasible}/100 separable states LP-feasible",
    )


def test_acceptance_6_trace_distance_bound():
    """1000 random (projector, state, state) triples: probability gaps never
    exceed the trace distance by more than 1e-10."""
    rng = np.random.default_rng(906)
    worst = -np.inf
    for _ in range(1000):
        d1 = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 4))
        proj = random_projector(d1 * d2, rng)
        s1 = random_density(d1, d2, rng)
        s2 = random_density(d1, d2, rng)
        gap = abs(np.trace(proj @ s1.matrix).real - np.trace(proj @ s2.matrix).real)
        worst = max(worst, gap - trace_distance(s1, s2))
    ok = worst <= 1e-10
    _verdict(6, ok, f"1000 triples: worst excess of gap over distance {worst:.2e} (tol 1e-10)")


def test_acceptance_7_table_bound():
    """100 perturbed states: every designated probability sits within epsilon
    of its pure-state value (five zeros and a), up to 1e-10."""
    rng = np.random.default_rng(907)
    worst = -np.inf
    for _ in range(100):
        psi = random_hardy_state(rng, d1=2, d2=2)
        tau = random_density(2, 2, rng)
        w = float(rng.uniform(0.0, 0.3))
        sigma = validate_density((1.0 - w) * psi.projector() + w * tau.matrix, 2, 2)
        epsilon = trace_distance(sigma, pure_density(psi))
        report = certify(sigma, psi)
        table = report.table
        target = (0.0, 0.0, 0.0, 0.0, 0.0, report.a)
        deviation = max(abs(v - t) for v, t in zip(table, target))
        worst = max(worst, deviation - epsilon)
    ok = worst <= 1e-10
    _verdict(7, ok, f"100 perturbed states: worst deviation minus epsilon {worst:.2e} (tol 1e-10)")


def test_acceptance_8_mixture_linearity():
    """D(p psi + (1-p) tau, psi) = (1-p) D(tau, psi) across states and a
    p grid, within 1e-10."""
    rng = np.random.default_rng(908)
    worst = 0.0
    for _ in range(10):
        psi = random_hardy_state(rng, d1=2, d2=2)
        psi_proj = pure_density(psi)
        tau = random_density(2, 2, rng)
        base = trace_distance(tau, psi_proj)
        for p in np.linspace(0.0, 1.0, 21):
            mixed = validate_density(
                p * psi.projector() + (1.0 - p) * tau.matrix, 2, 2
            )
            worst = max(
                worst, abs(trace_distance(mixed, psi_proj) - (1.0 - p) * base)
            )
    ok = worst <= 1e-10
    _verdict(8, ok, f"210 mixtures: worst linearity defect {worst:.2e} (tol 1e-10)")


def test_acceptance_9_cli_round_trip(tmp_path, capsys):
    """gen-state -> certify -> lhv-check completes with exit 0 and
    internally consistent reports for each built-in family."""
    candidate_path = tmp_path / "candidate.json"
    assert cli_main(["gen-state", "hardy", "--output", str(candidate_path)]) == 0

    problems = []
    for kind in ("hardy", "white-noise-mix", "product"):
        state_path = tmp_path / f"{kind}.json"
        cert_path = tmp_path / f"{kind}-cert.json"
        lhv_path = tmp_path / f"{kind}-lhv.json"
        if cli_main(["gen-state", kind, "--output", str(state_path)]) != 0:
            problems.append(f"{kind}: gen-state exit != 0")
            continue
        if cli_main(
            [
                "certify",
                "--state", str(state_path),
                "--candidate", str(candidate_path),
                "--output", str(cert_path),
            ]
        ) != 0:
            problems.append(f"{kind}: certify exit != 0")
            continue
        if cli_main(
            [
                "lhv-check",
                "--state", str(state_path),
                "--candidate", str(candidate_path),
                "--output", str(lhv_path),
            ]
        ) != 0:
            problems.append(f"{kind}: lhv-check exit != 0")
            continue
        cert = json.loads(cert_path.read_text())["report"]
        lhv = json.loads(lhv_path.read_text())["report"]
        if abs(cert["margin"] - (cert["a"] - 6.0 * cert["epsilon"])) > 1e-12:
            problems.append(f"{kind}: margin does not equal a - 6 epsilon")
        expected = (
            Verdict.NONLOCAL_CERTIFIED.value
            if cert["margin"] > 0
            else Verdict.INCONCLUSIVE.value
        )
        if cert["verdict"] != expected:
            problems.append(f"{kind}: verdict {cert['verdict']} vs margin {cert['margin']}")
        for field in ("epsilon", "a", "margin", "verdict"):
            if lhv["criterion"][field] != cert[field]:
                problems.append(f"{kind}: certify and lhv-check disagree on {field}")
        if not lhv["consistent"]:
            problems.append(f"{kind}: certification contradicts a feasible local model")
        if kind == "product" and not lhv["feasible"]:
            problems.append("product: expected a local model")
        if kind in ("hardy", "white-noise-mix") and lhv["feasible"]:
            problems.append(f"{kind}: expected LP infeasibility")

    # The equal-weight family cannot define the observables, but certify
    # must still succeed and report the degenerate verdict.
    bell_path = tmp_path / "bell.json"
    bell_cert = tmp_path / "bell-cert.json"
    if cli_main(["gen-state", "bell", "--output", str(bell_path)]) != 0:
        problems.append("bell: gen-state exit != 0")
    elif cli_main(
        ["certify", "--state", str(bell_path), "--output", str(bell_cert)]
    ) != 0:
        problems.append("bell: certify exit != 0")
    elif json.loads(bell_cert.read_text())["report"]["verdict"] != Verdict.NOT_HARDY.value:
        problems.append("bell: expected the NotHardy verdict")

    capsys.readouterr()       # drop accumulated CLI stdout before reporting
    with capsys.disabled():
        _verdict(
            9,
            not problems,
            "pipeline exit codes 0 and reports consistent for "
            "hardy / white-noise-mix / product (+ bell certify-only)"
            if not problems
            else "; ".join(problems),
        )

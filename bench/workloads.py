"""The benchmark's workloads: seeded inputs, the operation each input drives,
and the check of every output.

Inputs are generated with numpy only, from a per-item generator seeded by
``(seed, index)``, so one item can be rebuilt on its own (the set-up probe
does this) and the same seed always gives the same inputs.  The package
receives only raw arrays or state files.  Expected outputs come from the
way each input was built plus a small reference computation written here
(``eigvalsh`` for trace distances, an SVD for Schmidt weights, the paper's
closed form for ``a``), never from the package itself.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Behaviour constants the checks rely on: the CLI default minimum weight gap,
# the margin a certification must clear, and the squared-weight floor below
# which a Schmidt weight counts as zero.
DELTA = 1e-8
CERTIFY_TOL = 1e-10
WEIGHT_FLOOR_SQ = 1e-11

#: Agreement required between a package output and its reference value.
CHECK_TOL = 1e-9
#: Inputs whose reference margin or top-eigenvalue gap falls this close to a
#: decision boundary are redrawn, so every expected verdict is unambiguous.
BOUNDARY_GAP = 1e-6
#: Smallest certification parameter of a generated Hardy candidate.
MIN_A = 2e-3

OUTCOMES = (1, 0, -1)


# ------------------------------------------------------------------ inputs


def item_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def ginibre_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def projector(amps: np.ndarray) -> np.ndarray:
    return np.outer(amps, amps.conj())


def schmidt_amplitudes(weights: np.ndarray, d1: int, d2: int, rng) -> np.ndarray:
    """sum_k weights[k] |u_k>|v_k> with Haar-random local bases."""
    rank = weights.size
    coeff = (haar_unitary(d1, rng)[:, :rank] * weights) @ haar_unitary(d2, rng)[:, :rank].T
    amps = coeff.reshape(-1)
    return amps / np.linalg.norm(amps)


def hardy_weights(rank: int, rng) -> np.ndarray:
    """Descending weights, squares summing to 1, best pair's a >= MIN_A."""
    while True:
        weights = np.sort(rng.uniform(0.1, 1.0, size=rank))[::-1]
        weights = weights / np.linalg.norm(weights)
        if (ref_a(weights) or 0.0) >= MIN_A:
            return weights


def noisy_mixture(amps: np.ndarray, a: float, rng, f_low: float, f_high: float) -> np.ndarray:
    """(1 - w) |psi><psi| + w tau, with w set so that 6 * epsilon = f * a."""
    pure = projector(amps)
    tau = ginibre_density(amps.size, rng)
    w = float(rng.uniform(f_low, f_high)) * a / (6.0 * ref_trace_distance(tau, pure))
    return (1.0 - w) * pure + w * tau


def product_mixture(d1: int, d2: int, rng, terms: int = 4) -> np.ndarray:
    """Random convex mixture of product states: separable by construction."""
    mix = rng.dirichlet(np.ones(terms))
    return sum(
        q * np.kron(ginibre_density(d1, rng), ginibre_density(d2, rng)) for q in mix
    )


def white_noise_mixture(amps: np.ndarray, rng) -> np.ndarray:
    """(1 - w) |psi><psi| + w I / D: white noise keeps psi the top eigenvector."""
    w = float(rng.uniform(0.05, 0.5))
    return (1.0 - w) * projector(amps) + w * np.eye(amps.size) / amps.size


def raise_if(condition: bool, message: str) -> None:
    if condition:
        raise RuntimeError(message)


# --------------------------------------------------------------- reference


def ref_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def ref_weights(amps: np.ndarray, d1: int, d2: int) -> np.ndarray:
    weights = np.linalg.svd(amps.reshape(d1, d2), compute_uv=False)
    return weights[weights * weights > WEIGHT_FLOOR_SQ]


def ref_a(weights: np.ndarray) -> float | None:
    """Largest p1^2 p2^2 (p1 - p2)^2 / (p1^2 + p2^2 - p1 p2)^2 over admissible
    pairs (smaller weight and gap both above DELTA), or None."""
    best = None
    for p2, p1 in itertools.combinations(sorted(map(float, weights), reverse=True), 2):
        if p1 <= DELTA or p2 - p1 <= DELTA:
            continue
        denom = p1 * p1 + p2 * p2 - p1 * p2
        value = (p1 * p1) * (p2 * p2) * (p1 - p2) ** 2 / (denom * denom)
        best = value if best is None else max(best, value)
    return best


def ref_certify(sigma: np.ndarray, amps: np.ndarray, d1: int, d2: int) -> dict:
    epsilon = ref_trace_distance(sigma, projector(amps))
    a = ref_a(ref_weights(amps, d1, d2))
    if a is None:
        return {"verdict": "NotHardy", "epsilon": epsilon, "a": 0.0, "margin": -6.0 * epsilon}
    margin = a - 6.0 * epsilon
    verdict = "NonlocalCertified" if margin > CERTIFY_TOL else "Inconclusive"
    return {"verdict": verdict, "epsilon": epsilon, "a": a, "margin": margin}


def ref_top_vector(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    values, vectors = np.linalg.eigh(sigma)
    return vectors[:, -1], float(values[-1] - values[-2])


def ref_noise_threshold(amps: np.ndarray, d1: int, d2: int) -> dict:
    """White noise sits at trace distance 1 - 1/D from every pure state."""
    a = ref_a(ref_weights(amps, d1, d2))
    if a is None:
        return {"raises": "NotHardyError"}
    d_noise = 1.0 - 1.0 / (d1 * d2)
    p_star = 0.0 if 6.0 * d_noise <= a else 1.0 - a / (6.0 * d_noise)
    return {"a": a, "d_noise": d_noise, "p_star": p_star}


def strategy_matrix() -> np.ndarray:
    """37 x 81 map from deterministic-strategy weights to behavior cells plus
    normalization; columns in lexicographic (x1, y1, x2, y2) order over
    OUTCOMES, rows in C order over (alice setting, bob setting, outcomes)."""
    strategies = list(itertools.product(OUTCOMES, repeat=4))
    rows = [
        [float(s[i] == oa and s[2 + j] == ob) for s in strategies]
        for i in range(2)
        for j in range(2)
        for oa in OUTCOMES
        for ob in OUTCOMES
    ]
    rows.append([1.0] * len(strategies))
    return np.array(rows)


def close(x: float, y: float, tol: float = CHECK_TOL) -> bool:
    return abs(float(x) - float(y)) <= tol


def _boundary_safe(expected: dict) -> bool:
    return expected.get("verdict") == "NotHardy" or abs(expected["margin"] - CERTIFY_TOL) > BOUNDARY_GAP


# ----------------------------------------------------------------- workload


@dataclass
class Item:
    """One input: raw arrays, the call it drives, and its expected output."""

    d1: int
    d2: int
    cls: str
    call: str
    matrix: np.ndarray
    amps: np.ndarray
    expect: dict


def build_state(cls: str, d1: int, d2: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, amplitudes) for one input class.

    certified: light noise, 6 * epsilon between 0.2 a and 0.6 a.
    inconclusive: heavy noise, 6 * epsilon between 1.5 a and 4 a.
    separable: a product mixture, with an unrelated Hardy candidate.
    nothardy: equal Schmidt weights under white noise.
    """
    rank = min(d1, d2)
    if cls == "nothardy":
        amps = schmidt_amplitudes(np.full(rank, 1.0 / np.sqrt(rank)), d1, d2, rng)
        return white_noise_mixture(amps, rng), amps
    weights = hardy_weights(rank, rng)
    amps = schmidt_amplitudes(weights, d1, d2, rng)
    if cls == "certified":
        return noisy_mixture(amps, ref_a(weights), rng, 0.2, 0.6), amps
    if cls == "inconclusive":
        return noisy_mixture(amps, ref_a(weights), rng, 1.5, 4.0), amps
    return product_mixture(d1, d2, rng), amps


class Workload:
    """A pool of items, cycled in order; ``op`` runs one, ``check`` judges it.

    ``certify-sweep`` and ``lhv-crosscheck`` take ``indices`` into their
    combo list; by default every combo, in an order drawn from the seed.
    """

    name = ""

    def __init__(self, hc, workdir: Path):
        self.hc = hc
        self.workdir = workdir
        self.items: list = []


# ------------------------------------------------------------ certify-sweep

SWEEP_DIMS = ((2, 2), (3, 3), (3, 5), (4, 4), (8, 8))
SWEEP_CLASSES = ("certified", "inconclusive", "separable", "nothardy")
SWEEP_CALLS = ("certify-file", "certify-top", "noise-threshold")
SWEEP_COMBOS = list(itertools.product(SWEEP_DIMS, SWEEP_CLASSES, SWEEP_CALLS, range(2)))


def sweep_item(seed: int, index: int) -> Item:
    (d1, d2), cls, call, _ = SWEEP_COMBOS[index]
    rng = item_rng(seed, index)
    while True:
        matrix, amps = build_state(cls, d1, d2, rng)
        if call == "noise-threshold":
            return Item(d1, d2, cls, call, matrix, amps, ref_noise_threshold(amps, d1, d2))
        if call == "certify-file":
            expected = ref_certify(matrix, amps, d1, d2)
        else:
            top, gap = ref_top_vector(matrix)
            expected = ref_certify(matrix, top, d1, d2)
            if gap <= BOUNDARY_GAP:
                continue
        if _boundary_safe(expected):
            return Item(d1, d2, cls, call, matrix, amps, expected)


def class_verdict(cls: str) -> str | None:
    return {"certified": "NonlocalCertified", "inconclusive": "Inconclusive",
            "nothardy": "NotHardy"}.get(cls)


class CertifySweep(Workload):
    """validate_density + StateVector, then certify (file or top-eigenvector
    candidate) or noise_threshold against white noise."""

    name = "certify-sweep"

    def __init__(self, hc, seed, workdir, indices=None):
        super().__init__(hc, workdir)
        if indices is None:
            indices = np.random.default_rng(seed).permutation(len(SWEEP_COMBOS))
        self.items = [sweep_item(seed, int(i)) for i in indices]
        for item in self.items:
            # A file candidate's verdict is fixed by how the input was built;
            # the reference computation must agree before anything is timed.
            if item.call == "certify-file" and class_verdict(item.cls) is not None:
                raise_if(item.expect["verdict"] != class_verdict(item.cls),
                         f"generated {item.cls} input has reference verdict {item.expect['verdict']}")
            if item.cls == "separable" and "verdict" in item.expect:
                raise_if(item.expect["verdict"] == "NonlocalCertified", "separable input certified")

    def op(self, item: Item):
        hc = self.hc
        sigma = hc.validate_density(item.matrix, item.d1, item.d2)
        psi = hc.StateVector(d1=item.d1, d2=item.d2, amplitudes=item.amps)
        if item.call == "certify-file":
            return hc.certify(sigma, psi)
        if item.call == "certify-top":
            return hc.certify(sigma, hc.candidate_from_state(sigma))
        return hc.noise_threshold(psi, hc.maximally_mixed(item.d1, item.d2))

    def check(self, item: Item, out, err) -> bool:
        expect = item.expect
        if "raises" in expect:
            return err is not None and type(err).__name__ == expect["raises"]
        if err is not None:
            return False
        if item.call == "noise-threshold":
            return (close(out.a, expect["a"]) and close(out.d_noise, expect["d_noise"])
                    and close(out.p_star, expect["p_star"]))
        return (
            out.verdict.value == expect["verdict"]
            and close(out.margin, out.a - 6.0 * out.epsilon, 1e-12)
            and close(out.epsilon, expect["epsilon"])
            and close(out.a, expect["a"])
        )


# ----------------------------------------------------------- lhv-crosscheck

LHV_DIMS = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
LHV_CLASSES = ("certified", "separable")
LHV_COMBOS = list(itertools.product(LHV_DIMS, LHV_CLASSES, range(8)))

# (alice setting, bob setting, alice outcome, bob outcome) indices of the six
# designated cells; for the exact candidate the first five are 0, the last a.
HARDY_CELLS = ((0, 0, 0, 0), (1, 0, 0, 2), (0, 1, 2, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0))


def lhv_item(seed: int, index: int) -> Item:
    (d1, d2), cls, _ = LHV_COMBOS[index]
    rng = item_rng(seed, index)
    matrix, amps = build_state(cls, d1, d2, rng)
    expected = ref_certify(matrix, amps, d1, d2)
    expected["feasible"] = cls == "separable"
    return Item(d1, d2, cls, "lhv", matrix, amps, expected)


class LhvCrosscheck(Workload):
    """Schmidt decomposition, observables, 36-cell behavior and the LP."""

    name = "lhv-crosscheck"

    def __init__(self, hc, seed, workdir, indices=None):
        super().__init__(hc, workdir)
        if indices is None:
            indices = np.random.default_rng(seed).permutation(len(LHV_COMBOS))
        self.items = [lhv_item(seed, int(i)) for i in indices]
        self.strategies = strategy_matrix()

    def op(self, item: Item):
        hc = self.hc
        sigma = hc.validate_density(item.matrix, item.d1, item.d2)
        psi = hc.StateVector(d1=item.d1, d2=item.d2, amplitudes=item.amps)
        sf = hc.schmidt_decompose(psi)
        pair = hc.find_hardy_pair(sf)
        obs = hc.build_observables(hc.build_bases(sf, pair), item.d1, item.d2)
        behavior = hc.behavior_from_state(sigma, obs)
        return behavior, hc.lhv_feasible(behavior)

    def check(self, item: Item, out, err) -> bool:
        if err is not None:
            return False
        behavior, result = out
        tables = np.asarray(behavior.tables, dtype=float)
        if tables.shape != (2, 2, 3, 3) or not np.all(np.abs(tables.sum(axis=(2, 3)) - 1.0) <= CHECK_TOL):
            return False
        # No-signaling: each party's marginals ignore the other's setting.
        alice = tables.sum(axis=3)
        bob = tables.sum(axis=2)
        if np.max(np.abs(alice[:, 0] - alice[:, 1])) > CHECK_TOL or np.max(np.abs(bob[0] - bob[1])) > CHECK_TOL:
            return False
        if item.cls == "certified":
            pure = (0.0, 0.0, 0.0, 0.0, 0.0, item.expect["a"])
            bound = item.expect["epsilon"] + CHECK_TOL
            if any(abs(tables[c] - p) > bound for c, p in zip(HARDY_CELLS, pure)):
                return False
        if bool(result.feasible) != item.expect["feasible"]:
            return False
        if not result.feasible:
            return result.weights is None
        weights = np.asarray(result.weights, dtype=float)
        rhs = np.concatenate([tables.reshape(-1), [1.0]])
        return (
            weights.shape == (81,)
            and float(weights.min()) >= -CHECK_TOL
            and float(np.max(np.abs(self.strategies @ weights - rhs))) <= 1e-8
        )


# -------------------------------------------------------------- cli-oneshot

CLI_DIMS = ((2, 2), (4, 4), (8, 8))
#: One after every nine regular invocations; each must exit 2.
MALFORMED_KINDS = ("not-hermitian", "size-mismatch")
#: ``"dims": [true, 2]`` parses as a 1x2 state and exits 0 at the seed commit,
#: where it should exit 2.  It is not a timed op (no timed op may fail); each
#: run tries it once and reports whether it is still open.
KNOWN_DEFECT_TEXT = json.dumps({"kind": "pure", "dims": [True, 2], "amplitudes": [[True, False], [0, 0]]})


@dataclass
class CliItem:
    argv: list
    call: str
    expect: dict = field(default_factory=dict)
    output: Path | None = None


def state_payload(matrix=None, amps=None, dims=None) -> dict:
    def pair(z):
        return [float(z.real), float(z.imag)]

    if amps is not None:
        return {"kind": "pure", "dims": list(dims), "amplitudes": [pair(z) for z in amps]}
    return {"kind": "mixed", "dims": list(dims), "matrix": [[pair(z) for z in row] for row in matrix]}


def malformed_text(kind: str, rng) -> str:
    if kind == "not-hermitian":
        matrix = ginibre_density(4, rng)
        matrix[0, 1] += 0.1
        return json.dumps(state_payload(matrix=matrix, dims=(2, 2)))
    # A 4x4 matrix filed under dims 2x3.
    return json.dumps(state_payload(matrix=ginibre_density(4, rng), dims=(2, 3)))


class CliOneshot(Workload):
    """One CLI invocation per op: ``hardycert.cli.main`` on the same argument
    lists, state files and checks a shell user would give ``python -m
    hardycert``.  The ops run in this process; the set-up probe runs the
    real thing, a fresh ``python -m hardycert`` child (see ``bench/run.py``).
    """

    name = "cli-oneshot"

    def __init__(self, hc, seed, workdir):
        super().__init__(hc, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.seen: dict = {}
        groups = [self._group(seed, g, d1, d2) for g, (d1, d2) in enumerate(CLI_DIMS)]
        regular = [group[k] for k in range(len(groups[0])) for group in groups]
        block = len(regular) // len(MALFORMED_KINDS)
        for b, kind in enumerate(MALFORMED_KINDS):
            self.items.extend(regular[b * block:(b + 1) * block])
            path = workdir / f"malformed-{kind}.json"
            path.write_text(malformed_text(kind, item_rng(seed, 1000 + b)))
            self.items.append(CliItem(["certify", "--state", str(path)], "malformed"))
        # The set-up probe takes the heaviest path: lhv-check parses, validates,
        # certifies and runs the LP, so every import and first-call cost of
        # io, cli, states, observables, lhv and simplex lands in setup_s.
        self.probe_item = groups[0][5]

    def known_defect_open(self) -> bool:
        """Whether the ``"dims": [true, 2]`` file still fails to exit 2."""
        path = self.workdir / "malformed-bool-dims.json"
        path.write_text(KNOWN_DEFECT_TEXT)
        item = CliItem(["certify", "--state", str(path)], "malformed")
        try:
            return not self.check(item, self.op(item), None)
        except Exception:  # a raise is not an exit 2 either
            return True

    def _write(self, name: str, payload: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def _group(self, seed: int, g: int, d1: int, d2: int) -> list[CliItem]:
        """Six invocations on one dimension pair; the last, ``lhv-check``, is
        the set-up probe's for ``g == 0``.  The LP runs on the certified
        mixture for even ``g`` and on the separable one for odd."""
        rng = item_rng(seed, 2000 + g)
        tag = f"{d1}x{d2}"
        weights = hardy_weights(min(d1, d2), rng)
        a = ref_a(weights)
        amps = schmidt_amplitudes(weights, d1, d2, rng)
        while True:
            cert = noisy_mixture(amps, a, rng, 0.2, 0.6)
            top, gap = ref_top_vector(cert)
            cert_top = ref_certify(cert, top, d1, d2)
            if gap > BOUNDARY_GAP and _boundary_safe(cert_top):
                break
        noisy = noisy_mixture(amps, a, rng, 1.5, 4.0)
        psi = self._write(f"psi-{tag}.json", state_payload(amps=amps, dims=(d1, d2)))
        cert_f = self._write(f"cert-{tag}.json", state_payload(matrix=cert, dims=(d1, d2)))
        noisy_f = self._write(f"noisy-{tag}.json", state_payload(matrix=noisy, dims=(d1, d2)))
        white_f = self._write(f"white-{tag}.json", state_payload(matrix=np.eye(d1 * d2) / (d1 * d2), dims=(d1, d2)))
        cert_file = ref_certify(cert, amps, d1, d2)
        noisy_file = ref_certify(noisy, amps, d1, d2)
        raise_if(cert_file["verdict"] != "NonlocalCertified" or noisy_file["verdict"] != "Inconclusive",
                 "generated CLI mixture has the wrong reference verdict")
        if g % 2:
            sep = product_mixture(d1, d2, rng)
            lhv_f = self._write(f"sep-{tag}.json", state_payload(matrix=sep, dims=(d1, d2)))
            lhv_expect = {**ref_certify(sep, amps, d1, d2), "feasible": True}
        else:
            lhv_f, lhv_expect = cert_f, {**cert_file, "feasible": False}
        out = self.workdir / f"gen-{tag}.json"
        if g == 0:
            p1_sq, p = float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.9, 1.0))
            gen = CliItem(["gen-state", "white-noise-mix", "--p1-sq", repr(p1_sq), "--p", repr(p),
                           "--output", str(out)], "gen-mix", {"p1_sq": p1_sq, "p": p}, out)
        else:
            p1_sq = float(rng.uniform(0.1, 0.4))
            gen = CliItem(["gen-state", "hardy", "--p1-sq", repr(p1_sq), "--d1", str(d1), "--d2", str(d2),
                           "--output", str(out)], "gen-hardy", {"p1_sq": p1_sq, "dims": [d1, d2]}, out)
        return [
            gen,
            CliItem(["certify", "--state", cert_f, "--candidate", psi], "certify-file", cert_file),
            CliItem(["certify", "--state", noisy_f, "--candidate", psi], "certify-file", noisy_file),
            CliItem(["certify", "--state", cert_f], "certify-top", cert_top),
            CliItem(["noise-threshold", "--state", psi, "--noise", white_f], "noise-threshold",
                    ref_noise_threshold(amps, d1, d2)),
            CliItem(["lhv-check", "--state", lhv_f, "--candidate", psi], "lhv", lhv_expect),
        ]

    def op(self, item: CliItem):
        """``cli.main`` on one argument list: exit code and stdout."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.hc.cli.main(list(item.argv))
        return code, out.getvalue().encode()

    def check(self, item: CliItem, out, err) -> bool:
        if err is not None:
            return False
        code, stdout = out
        if item.call == "malformed":
            return code == 2 and stdout == b""
        if code != 0:
            return False
        payload = stdout
        if item.output is not None:
            # Removed once read, so a later op must write it afresh.
            if not item.output.exists():
                return False
            payload = item.output.read_bytes()
            item.output.unlink()
        # Identical inputs must give byte-identical reports.
        if self.seen.setdefault(" ".join(item.argv), payload) != payload:
            return False
        try:
            data = json.loads(payload)
            return self._check_body(item, data)
        except (ValueError, KeyError, TypeError):
            return False

    def _check_body(self, item: CliItem, data: dict) -> bool:
        expect = item.expect
        if item.call == "gen-hardy":
            d1, d2 = expect["dims"]
            amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
            want = np.zeros(d1 * d2, dtype=complex)
            want[0], want[d2 + 1] = np.sqrt(expect["p1_sq"]), np.sqrt(1.0 - expect["p1_sq"])
            return data["dims"] == [d1, d2] and np.allclose(amps, want, rtol=0, atol=1e-15)
        if item.call == "gen-mix":
            matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
            amps = np.zeros(4, dtype=complex)
            amps[0], amps[3] = np.sqrt(expect["p1_sq"]), np.sqrt(1.0 - expect["p1_sq"])
            want = expect["p"] * projector(amps) + (1.0 - expect["p"]) * np.eye(4) / 4.0
            return np.allclose(matrix, want, rtol=0, atol=1e-15)
        report = data["report"]
        if item.call == "noise-threshold":
            return all(close(report[k], expect[k]) for k in ("a", "d_noise", "p_star"))
        if item.call == "lhv":
            return (report["feasible"] is expect["feasible"] and report["consistent"] is True
                    and report["criterion"]["verdict"] == expect["verdict"]
                    and (report["weights"] is not None) == expect["feasible"])
        return (
            report["verdict"] == expect["verdict"]
            and close(report["margin"], report["a"] - 6.0 * report["epsilon"], 1e-12)
            and close(report["epsilon"], expect["epsilon"])
            and close(report["a"], expect["a"])
        )


WORKLOADS = {w.name: w for w in (CertifySweep, LhvCrosscheck, CliOneshot)}

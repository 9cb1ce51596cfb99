"""hardycert benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``certify-sweep`` and ``lhv-crosscheck``
call the package's functions; ``cli-oneshot`` calls ``hardycert.cli.main``
with a shell user's argument lists, and its set-up probe is a whole fresh
``python -m hardycert`` process.  Every run is a closed loop with one client
in this process that cycles through a fixed pool of inputs.

``--trace 0`` measures the end-to-end figures: ``setup_s`` (median over
fresh processes, interleaved with the op loop across the run, that import,
build one input and finish one checked op), ops per second, p50 / p90 op
time and peak resident memory.  ``--trace 1`` spends half the time untraced and half under the span
tracer (``tracer.py``) and reports per-op layer figures, the tracing
overhead and start-up probes.  Earlier stdout lines give the environment
and a readable table; the last line is the JSON result.  BLAS is pinned to
one thread in this process and in every child.

Every time is CPU time (user + system) of the process doing the work: this
process for ops, the child for probes.  The ops are single-threaded and
never wait, so on an idle machine CPU time and wall time agree.  On a shared
host other tenants still slow the CPU itself: a fixed loop's CPU time moved
between 1x and 2x in stretches of a few seconds.  So each input's cost is
the least CPU time it took over the run's passes, and throughput and
percentiles are taken over the pool's inputs at that cost.
"""

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh processes timed for ``setup_s``, interleaved evenly with the op
#: loop within the run's seconds; one more runs first, untimed, to compile
#: the sources and warm the file cache.
SETUP_PROBES = 21
#: Fresh processes timed for each start-up figure of the traced run.
STARTUP_PROBES = 5
IMPORT_PROBE = (
    "import json, time; t0 = time.process_time(); import numpy; t1 = time.process_time(); "
    "import hardycert; t2 = time.process_time(); print(json.dumps([t1 - t0, t2 - t1]))"
)

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def children_cpu_ns() -> int:
    """CPU time of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


class Runner:
    """Closed loop over a workload's pool, resumable across time slices.

    Each op is costed in process CPU time and judged by the workload's
    check; the costs are kept per input so that an input's cost is its
    least one.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.costs_ns = [[] for _ in workload.items]
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, whole_passes: bool = False) -> "Runner":
        """Run at least one op for ``seconds`` of wall time; with
        ``whole_passes``, stop only at the end of a pass so that per-op
        counts repeat exactly for one seed."""
        items = self.workload.items
        deadline = time.perf_counter() + seconds
        while True:
            index = self.attempted % len(items)
            item = items[index]
            out = err = None
            start = time.process_time_ns()
            try:
                op = self.workload.op
                out = self.tracer.run_op(self.attempted, op, item) if self.tracer else op(item)
            except Exception as exc:  # every raise is judged by the check
                err = exc
            self.costs_ns[index].append(time.process_time_ns() - start)
            if not self.workload.check(item, out, err):
                self.failed += 1
            self.attempted += 1
            if time.perf_counter() >= deadline and (not whole_passes or self.attempted % len(items) == 0):
                return self

    def least_costs_ns(self) -> list:
        return sorted(min(costs) for costs in self.costs_ns if costs)

    def ops_per_s(self) -> float:
        least = self.least_costs_ns()
        return len(least) / (sum(least) / 1e9)

    def percentile_ms(self, q: float) -> float:
        least = self.least_costs_ns()
        return least[min(len(least) - 1, int(q * len(least)))] / 1e6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_time(argv: list, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; its CPU seconds and the finished process."""
    start = children_cpu_ns()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    return (children_cpu_ns() - start) / 1e9, proc


def setup_probe(workload, seed: int, env: dict):
    """A function that times one fresh process up to one finished, checked
    op; it returns (CPU seconds, whether the output passed its check)."""
    if workload.name == "cli-oneshot":
        item = workload.probe_item
        argv = [sys.executable, "-m", "hardycert", *item.argv]

        def probe():
            seconds, proc = child_time(argv, env)
            return seconds, workload.check(item, (proc.returncode, proc.stdout), None)
    else:
        argv = [sys.executable, str(BENCH / "probe.py"), "--workload", workload.name, "--seed", str(seed)]

        def probe():
            seconds, proc = child_time(argv, env)
            return seconds, proc.returncode == 0

    return probe


def end_to_end_metrics(workload, seconds: float, seed: int, env: dict) -> tuple[dict, Runner, int]:
    probe = setup_probe(workload, seed, env)
    probe()
    Runner(workload).run(0)  # one warm-up op
    runner = Runner(workload)
    setup_times, bad_probes = [], 0
    deadline = time.perf_counter() + seconds
    for k in range(SETUP_PROBES):
        probe_seconds, ok = probe()
        setup_times.append(probe_seconds)
        bad_probes += not ok
        runner.run((deadline - time.perf_counter()) / (SETUP_PROBES - k))
    # A user of the CLI runs it as its own process: the set-up probes are that.
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-oneshot" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": runner.ops_per_s(),
        "op_p50_ms": runner.percentile_ms(0.50),
        "op_p90_ms": runner.percentile_ms(0.90),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    return metrics, runner, bad_probes


def startup_metrics(env: dict) -> dict:
    bare = [child_time([sys.executable, "-c", "pass"], env)[0] for _ in range(STARTUP_PROBES)]
    imports = [json.loads(child_time([sys.executable, "-c", IMPORT_PROBE], env)[1].stdout)
               for _ in range(STARTUP_PROBES)]
    return {
        "python.startup_ms": 1e3 * statistics.median(bare),
        "numpy.import_ms": 1e3 * statistics.median(t[0] for t in imports),
        "init.import_ms": 1e3 * statistics.median(t[1] for t in imports),
    }


def per_layer_metrics(hc, workload, seconds: float, seed: int, env: dict) -> tuple[dict, dict, list]:
    """Per-op layer metrics, the two rates behind the tracing overhead (for
    the readable table only) and the runners."""
    from tracer import Tracer, layer_metrics

    Runner(workload).run(0)  # one warm-up op
    untraced = Runner(workload).run(seconds / 2, whole_passes=True)
    tracer = Tracer(keep_ops=len(workload.items))
    tracer.install(hc)
    try:
        traced = Runner(workload, tracer=tracer).run(seconds / 2, whole_passes=True)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced.attempted)
    rates = {"untraced_ops_per_s": untraced.ops_per_s(), "traced_ops_per_s": traced.ops_per_s()}
    metrics["trace.overhead_ops_per_s"] = rates["traced_ops_per_s"] - rates["untraced_ops_per_s"]
    metrics.update(startup_metrics(env))
    tracer.write(WORK / f"spans-{workload.name}-{seed}.tsv")
    return metrics, rates, [untraced, traced]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ops_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["certify-sweep", "lhv-crosscheck", "cli-oneshot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "hardycert" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'hardycert'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hardycert
    import hardycert.cli  # noqa: F401  (the traced cli-oneshot run calls cli.main)
    from selftest import selftest
    from workloads import WORKLOADS

    problems = selftest(hardycert, WORK / f"selftest-{os.getpid()}")
    if problems:
        print("error: checker self-test: " + "; ".join(problems), file=sys.stderr)
        return 1

    env = child_env()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](hardycert, args.seed, workdir)
    try:
        known_defect = workload.known_defect_open() if args.workload == "cli-oneshot" else None
        if args.trace:
            metrics, notes, runners = per_layer_metrics(hardycert, workload, args.seconds, args.seed, env)
            units, bad_probes = {}, 0
        else:
            metrics, runner, bad_probes = end_to_end_metrics(workload, args.seconds, args.seed, env)
            units, notes, runners = END_TO_END_UNITS, {}, [runner]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, value in {**metrics, **notes}.items():
        print(f"{args.workload:15} {name:28} {value:14.6g} {units.get(name) or layer_unit(name)}")
    print(f"{args.workload:15} {'failed_frac':28} {failed / attempted:14.6g} "
          f"({failed} of {attempted})")
    if known_defect is not None:
        print(f"{args.workload:15} known defect, \"dims\": [true, 2] exits 0 instead of 2: "
              f"{'still open' if known_defect else 'fixed'} (tried once, not a timed op)")
    result = {
        # Correct when every timed op and every set-up probe passed its check.
        "correct": failed == 0 and bad_probes == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qgft benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`, so
nothing is installed.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones.  The line before it is the environment record.  Both, with
run details, are also written to `.perfbench/`, and a traced run writes its
spans there.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYERS, TRACED, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2
# Set-up runs at least SETUP_MIN times and, while it stays cheap, until
# SETUP_BUDGET seconds are spent, at most SETUP_MAX times; its median is setup_s.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 3, 200, 2.0

# Stage names of the verify report on the benchmark's sources.
STAGES = (
    "unitarity", "pentagon", "algebra-generation", "haar-weights",
    "antipode-assembly", "w-membership", "coassociativity", "coassociativity-dual",
    "left-invariance", "right-invariance", "left-invariance-dual",
    "right-invariance-dual", "gns-consistency", "gns-duality-phihat",
    "gns-duality-phihatdual", "antipode-slices", "sharp-involution",
    "slice-product-laws", "gns-transport", "fourier-inversion", "plancherel",
    "convolution-agreement", "pairing", "pairing-axioms", "ft-pairing", "pontryagin",
)

END_TO_END_UNITS = {
    "setup_s": "s", "sweep_p50_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p99_ms": "ms", "peak_rss_mb": "MB", "margin_digits": "digits",
    "pass_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/sweep"
        for fn in TRACED[layer]:
            units[f"{layer}.{fn}.calls"] = "count/sweep"
            units[f"{layer}.{fn}.s"] = "s/sweep"
    for stage in STAGES:
        units[f"verify.stage.{stage}_ms"] = "ms/sweep"
    for layer in LAYERS:
        units[f"setup.{layer}.self_s"] = "s"
    for fn in TRACED["engine"]:
        units[f"setup.engine.{fn}.s"] = "s"
    units["trace.overhead.setup_s"] = "s"
    units["trace.overhead.sweep_p50_s"] = "s"
    units["trace.overhead.op_p50_ms"] = "ms"
    return units


def tail(values: list[float]) -> tuple[float, float]:
    """The 99th percentile, or, with fewer than 1000 samples, the highest
    percentile that has ten samples beyond it.  With fewer than 22 samples
    that percentile is not above the median, so the maximum is reported.
    Returns (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    if n < 22:
        return xs[-1], 100.0
    k = min(n - 11, -(-99 * n // 100) - 1)
    return xs[k], 100.0 * (k + 1) / n


def environment(args, threads: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def time_setup(workload) -> list[float]:
    times = []
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX
                                     and sum(times) < SETUP_BUDGET):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


class Tally:
    """What a run keeps of its sweeps once they are checked.  Ops are dropped
    after each sweep so that neither the collector's work nor peak RSS grows
    with the number of ops measured."""

    def __init__(self):
        self.sweep_seconds: list[float] = []
        self.op_seconds: list[float] = []
        self.failed = 0
        self.worst_margin = 0.0
        self.failures: list[dict] = []
        self.stage_ms: dict[str, float] = {}

    def add(self, seconds: float, ops: list):
        self.sweep_seconds.append(seconds)
        for op in ops:
            self.op_seconds.append(op.seconds)
            self.worst_margin = max(self.worst_margin, op.margin)
            if not op.passed:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"op": op.name, "error": op.error[-500:]})
            for name, ms in op.stages.items():
                self.stage_ms[name] = self.stage_ms.get(name, 0.0) + ms


def run_sweeps(workload, budget: float, count: int | None = None,
               tracer=None) -> Tally:
    """Timed closed loop.  Without `count`, sweeps run while the next one is
    expected to end within `budget` seconds (at least one).  Checks run after
    each sweep, outside its timed interval but inside the budget."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        index = len(tally.sweep_seconds)
        t0 = time.perf_counter()
        if tracer is None:
            ops = workload.sweep(index)
        else:
            with tracer.run(f"sweep-{index}", "bench.sweep"):
                ops = workload.sweep(index)
        seconds = time.perf_counter() - t0
        workload.check(ops)
        tally.add(seconds, ops)
        if count is not None:
            if len(tally.sweep_seconds) >= count:
                return tally
            continue
        expected = statistics.median(tally.sweep_seconds)
        if time.perf_counter() - start + expected > budget:
            return tally


def end_to_end(setup_times, tally: Tally) -> tuple[dict, dict]:
    ops = len(tally.op_seconds)
    p99, percentile = tail(tally.op_seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "sweep_p50_s": statistics.median(tally.sweep_seconds),
        "ops_per_s": ops / sum(tally.op_seconds),
        "op_p50_ms": 1e3 * statistics.median(tally.op_seconds),
        "op_p99_ms": 1e3 * p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "margin_digits": -math.log10(max(tally.worst_margin, 1e-300)),
        "pass_ratio": 1.0 - tally.failed / ops,
    }
    details = {
        "setup_runs": len(setup_times),
        "sweeps": len(tally.sweep_seconds),
        "ops": ops,
        "op_p99_ms_percentile": percentile,
        "failures": tally.failures,
    }
    return metrics, details


def per_layer(tracer, tally: Tally, setup_overhead, untraced) -> dict:
    n = len(tally.sweep_seconds)
    timed = summarize(tracer.spans, {f"sweep-{i}" for i in range(n)})
    setup = summarize(tracer.spans, {"setup"})
    values = {}
    for name in per_layer_units():
        parts = name.split(".")
        if parts[0] == "setup" and len(parts) == 3:
            values[name] = setup.self_s[parts[1]]
        elif parts[0] == "setup":
            values[name] = setup.seconds[f"{parts[1]}.{parts[2]}"]
        elif parts[0] == "trace":
            continue
        elif parts[1] == "stage":
            values[name] = tally.stage_ms.get(name[len("verify.stage."):-3], 0.0) / n
        elif len(parts) == 2:
            values[name] = timed.self_s[parts[0]] / n
        elif parts[2] == "calls":
            values[name] = timed.calls[f"{parts[0]}.{parts[1]}"] / n
        else:
            values[name] = timed.seconds[f"{parts[0]}.{parts[1]}"] / n
    values["trace.overhead.setup_s"] = setup_overhead
    values["trace.overhead.sweep_p50_s"] = (statistics.median(tally.sweep_seconds)
                                            - untraced["sweep_p50_s"])
    values["trace.overhead.op_p50_ms"] = (1e3 * statistics.median(tally.op_seconds)
                                          - untraced["op_p50_ms"])
    return values


def measure(args) -> tuple[dict, dict, int, int]:
    """Returns the metrics, run details, ops attempted and ops failed."""
    from workloads import WORKLOADS  # imports numpy: only after the BLAS setting

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_times = time_setup(workload)
        if not args.trace:
            tally = run_sweeps(workload, args.seconds)
            metrics, details = end_to_end(setup_times, tally)
            return metrics, details, len(tally.op_seconds), tally.failed

        # Traced run: half the time untraced, then the same sweeps traced.
        plain = run_sweeps(workload, args.seconds / 2)
        untraced, details = end_to_end(setup_times, plain)
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            with tracer.run("setup", "bench.setup"):
                workload.setup()
            setup_overhead = time.perf_counter() - start - untraced["setup_s"]
            traced = run_sweeps(workload, 0, count=len(plain.sweep_seconds),
                                tracer=tracer)
        finally:
            tracer.remove()
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        metrics = per_layer(tracer, traced, setup_overhead, untraced)
        details["traced_sweeps"] = len(traced.sweep_seconds)
        details["spans"] = len(tracer.spans)
        details["failures"] += traced.failures
        return (metrics, details, len(plain.op_seconds) + len(traced.op_seconds),
                plain.failed + traced.failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-dense", "transform-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qgft" / "__init__.py").is_file():
        print(f"error: no qgft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The BLAS thread count must be fixed before numpy is first imported.
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    env = environment(args, threads)
    metrics, details, attempted, failed = measure(args)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "details": details, **result}, indent=1) + "\n")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:14.6g} {unit}")
    print(f"sweeps {details['sweeps']}, ops {details['ops']}, op_p99_ms is the "
          f"p{details['op_p99_ms_percentile']:.4g} of {details['ops']} ops, "
          f"{failed} failed")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

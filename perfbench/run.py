"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload design-internet --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on the unmodified program;
``--trace 1`` runs the workload untraced for half the window, then replays it
with span wrappers installed for the other half, and reports the per-layer
metrics.
Timings are in reference seconds, wall seconds scaled by the machine-speed
probe of ``speed.py``.
Every result is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

START = time.perf_counter()

# The whole run, with every thread and child process it starts, uses one
# CPU.  Spread over two vCPUs, serve-churn's threads ran slower and less
# steadily than on one (see README.md, "Reference seconds").
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import probe, scale  # noqa: E402
from tracing import Tracer, bypass_violations, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The seed a run uses when none is given.  README.md names the held-out
#: seed on which a claimed gain must also hold.
DEFAULT_SEED = 1

#: Extra set-ups per run, each in a fresh interpreter so imports count.
SETUP_PROBES = 2

TIMING_CLASSES = ("fresh", "repeat", "delta")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up seconds and exit",
    )
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with ten or fewer samples
    nothing has ten beyond it, so the maximum (p100) is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def probe_setup(workload: str, seed: int) -> float:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def fingerprint(root: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }


def declared_metrics(root: str, kind: str) -> set[str] | None:
    """Metric names ``BENCHMARK.json`` declares for this mode, if present."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            return {metric["name"] for metric in json.load(handle)[kind]}
    except FileNotFoundError:
        return None


def end_to_end(workload, window, setup_s: float) -> dict[str, tuple[float, str]]:
    done = [op for op in window.ops if op.error is None]
    latencies = [op.ref_seconds for op in done] or [float("nan")]
    p50 = statistics.median(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (p50, "s"),
        # The design workloads run too few ops, of mixed sizes, for a tail
        # percentile; like a request class a workload never issues, they
        # report the op median so every run carries every metric.
        "op_s_tail": (tail(latencies)[0] if workload.has_tail else p50, "s"),
        "ops_per_s": (window.ops_per_s, "1/s"),
    }
    for kind in TIMING_CLASSES:
        of_kind = [op.ref_seconds for op in done if op.kind == kind]
        metrics[f"{kind}_s_p50"] = (statistics.median(of_kind) if of_kind else p50, "s")
    quality = workload.quality()
    metrics["cost_ratio"] = (quality["cost_ratio"], "ratio")
    metrics["worst_case_loss"] = (quality["worst_case_loss"], "fraction")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed)
        own_setup = time.perf_counter() - START
        setup_probe = probe(2)
        own_setup *= scale(setup_probe, setup_probe)
        if args.setup_only:
            print(f"{own_setup!r}")
            return 0
        violations: list[str] = []
        if args.trace:
            half = args.seconds / 2
            untraced = workload.run(half)
            workload.rewind()
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run(half, tracer=tracer)
            finally:
                tracer.uninstall()
            ops = untraced.ops + traced.ops
            metrics = layer_metrics(
                tracer,
                traced.ops,
                statistics.median(op.ref_seconds for op in untraced.ops),
                statistics.median(op.ref_seconds for op in traced.ops),
            )
            metrics.update(workload.layer_state())
            violations = bypass_violations(args.workload, metrics)
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(
                os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            )
        else:
            setups = [own_setup] + [
                probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
            ]
            window = workload.run(args.seconds)
            ops = window.ops
        workload.check()
        if not args.trace:
            metrics = end_to_end(workload, window, statistics.median(setups))
            print(f"setups {' '.join(f'{s:.3f}' for s in setups)} reference s")
            wall = [op.seconds for op in window.ops if op.error is None] or [math.nan]
            speeds = [op.scale for op in window.ops]
            print(f"wall op_s_p50 {statistics.median(wall):.6g} s, reference s per "
                  f"wall s {min(speeds):.3f}-{max(speeds):.3f}")
    finally:
        workload.close()

    declared = declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    if declared is not None and declared != set(metrics):
        print(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(declared ^ set(metrics))}",
            file=sys.stderr,
        )
        return 3

    failed = [op for op in ops if op.error is not None]
    correct = not failed and not violations
    env = fingerprint(root)
    env["verdict"] = {args.workload: "correct" if correct else "incorrect"}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_s_tail" and workload.has_tail:
            _value, percentile, samples = tail(
                [op.ref_seconds for op in ops if not op.error]
            )
            note = f"  (p{percentile:.1f} of {samples} ops)"
        print(f"{name:40s} {value:.6g} {unit}{note}")
    print(f"{'error_rate':40s} {len(failed) / max(1, len(ops)):.6g} fraction  "
          f"({len(failed)} of {len(ops)} ops failed)")
    kinds = {kind: sum(op.kind == kind for op in ops) for kind in TIMING_CLASSES}
    print(f"{'ops':40s} " + " ".join(f"{kind}={n}" for kind, n in kinds.items() if n))
    for op in failed[:10]:
        print(f"FAILED {op.op_id} {op.kind}: {op.error}")
    for violation in violations:
        print(f"BYPASS {violation}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""curvflow benchmark: three workloads, each in its own single-threaded process.

Run from the root of a checkout:

  python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it reports the end-to-end metrics wall_s, setup_s and
peak_rss_mb; with --trace 1 the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The workloads draw nothing at random: the seed is
recorded but every seed gives the same inputs.  See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("surface_ellipsoid_L24", "curve_ellipse_L64", "simulate_roundtrip")

# Every workload process runs BLAS and OpenMP on one thread: with two threads
# on two shared cores the dense surface products were far less steady.
THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "CURVFLOW_THREADS",
)

# Set-up is dominated by importing scipy, whose time varies from one fresh
# interpreter to the next; the median of several processes is reported.  A
# first, unreported process warms the file cache and writes bytecode.
SETUP_SAMPLES = 5

CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def worker(workload, mode, seconds):
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--mode", mode,
        "--seconds", str(seconds),
        "--out", f"bench/out/{workload}",
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode}: worker exited with {done.returncode}")
    return json.loads(lines[-1])


def measure(workload, seconds):
    worker(workload, "setup", seconds)
    setups = [worker(workload, "setup", seconds)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = worker(workload, "run", seconds)
    setups.append(run["setup_s"])
    metrics = {
        "wall_s": {"value": statistics.median(run["wall_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    print(f"{workload}: {len(run['wall_s'])} rounds, BLAS threads {run['blas_threads']}")
    print(f"  wall_s       {metrics['wall_s']['value']:.4f} s   rounds: {_fmt(run['wall_s'])}")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   processes: {_fmt(setups)}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    return run, metrics


def trace(workload, seconds):
    run = worker(workload, "trace", seconds)
    print(f"{workload}: {run['traced_rounds']} traced rounds, untraced rounds: {_fmt(run['untraced_wall_s'])}")
    if run["absent"]:
        print(f"  absent (no such function in curvflow): {', '.join(run['absent'])}")
    metrics = {}
    for name, unit, _ in METRICS:
        value = run["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:30s} {shown} {unit}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="recorded only; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curvflow" / "__init__.py").is_file():
        print(f"error: no curvflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    step = trace if args.trace else measure
    correct, attempted, failed, metrics = True, 0, 0, {}
    print(f"seed {args.seed} (inputs do not depend on it), {args.seconds:g} s per workload")
    try:
        for name in names:
            run, found = step(name, args.seconds)
            for problem in run["problems"]:
                print(f"  CHECK FAILED {problem}")
            print(f"  attempted {run['attempted']}, failed {run['failed']}")
            correct = correct and not run["problems"]
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in found.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _fmt(values):
    return " ".join(f"{v:.4f}" for v in values)


if __name__ == "__main__":
    sys.exit(main())

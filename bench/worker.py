"""One benchmark process: set up one workload, then time it or trace it.

run.py starts this script with BLAS and OpenMP pinned to one thread in its
environment, once per set-up sample and once for the measured run, and reads
the JSON object it prints as its last line.

  --mode setup   build the inputs and report set-up time only
  --mode run     then run whole rounds for --seconds, untraced
  --mode trace   one untraced round, then traced rounds for the rest of --seconds
"""

import time

# Set-up is timed from here: before numpy, scipy or curvflow is loaded.
T0 = time.perf_counter()

import argparse
import ctypes
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def run_round(workload):
    """Prepare (untimed) and run one round; returns (seconds, operations failed)."""
    workload.prepare()
    begin = time.perf_counter()
    try:
        failed = workload.run()
    except Exception:  # the round's operations count as failed; the run goes on
        traceback.print_exc()
        failed = workload.operations
    return time.perf_counter() - begin, failed


def check_round(workload, problems):
    try:
        problems.extend(f"{name}: {message}" for name, message in workload.check())
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")


def timed_rounds(workload, seconds, problems):
    """Run and check whole rounds until another would overrun ``seconds``.

    Returns (round durations, operations attempted, operations failed).
    """
    durations, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        duration, failed_now = run_round(workload)
        durations.append(duration)
        attempted += workload.operations
        failed += failed_now
        if failed_now < workload.operations:
            check_round(workload, problems)
        if time.perf_counter() - start + duration > seconds:
            return durations, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True, help="output directory, relative to the checkout root")
    args = parser.parse_args(argv)

    import workloads  # loads numpy, scipy and curvflow

    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: curvflow was loaded from {workloads.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload)
    out_dir = Path(args.out)
    workload.setup(out_dir)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = []
    if args.mode == "run":
        durations, attempted, failed = timed_rounds(workload, args.seconds, problems)
        result = {
            "setup_s": setup_s,
            "wall_s": durations,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "blas_threads": blas_threads(),
        }
    else:
        result = trace_rounds(workload, args.seconds, out_dir, problems)
        attempted, failed = result.pop("attempted"), result.pop("failed")
    result.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(result))
    return 0


def trace_rounds(workload, seconds, out_dir, problems):
    """Untraced and traced rounds in turn, starting untraced, while ``seconds``
    allow; at least one of each.

    Only the timed part of a round is traced, not its checks.
    """
    import tracing

    tracer = tracing.Tracer()
    plain_span = workload.span
    untraced, rounds, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        traced = len(untraced) > len(rounds)
        if traced:
            tracer.reset()
            undo, absent = tracing.install(tracer)
            workload.span = tracer.span
        try:
            duration, failed_now = run_round(workload)
        finally:
            if traced:
                tracing.uninstall(undo)
                workload.span = plain_span
        attempted += workload.operations
        failed += failed_now
        if traced:
            metrics = tracing.layer_metrics(tracer, absent, workload.output_size())
            metrics["trace.wall_s"] = duration
            rounds.append(metrics)
        else:
            untraced.append(duration)
        if failed_now < workload.operations:
            check_round(workload, problems)
        if rounds and time.perf_counter() - start + duration > seconds:
            break
    out_dir.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(tracer, out_dir / "spans.json")

    for name in tracing.COUNTS:
        values = {r[name] for r in rounds}
        if len(values) > 1:
            problems.append(f"{name} differs between traced rounds: {sorted(values)}")
    merged = {}
    for name, unit, _ in tracing.METRICS:
        values = [r.get(name) for r in rounds]
        exact = name in tracing.COUNTS  # equal in every round, checked above
        merged[name] = values[0] if values[0] is None or exact else statistics.median(values)
    merged["trace.overhead_s"] = merged["trace.wall_s"] - statistics.median(untraced)
    return {
        "metrics": merged,
        "absent": sorted(absent),
        "untraced_wall_s": untraced,
        "traced_rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
    }


if __name__ == "__main__":
    sys.exit(main())

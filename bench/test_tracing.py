"""The traced run's counts repeat, and a function that no longer exists is
reported absent instead of stopping the run.

Run from the root of a checkout:  python3 -m pytest bench/test_tracing.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import curvflow.flow  # noqa: E402
import curvflow.spectral  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_curve_round():
    workload = workloads.FlowWorkload((1.0, 1.2), degree=8, snapshot_every=2, stop_fraction=0.8)
    workload.setup(None)
    tracer = tracing.Tracer()
    undo, absent = tracing.install(tracer)
    try:
        workload.prepare()
        workload.run()
    finally:
        tracing.uninstall(undo)
    return tracing.layer_metrics(tracer, absent, workload.output_size()), absent


def test_counts_repeat_and_wrappers_come_off():
    run_flow = curvflow.flow.run_flow
    first, absent = _traced_curve_round()
    second, _ = _traced_curve_round()
    assert absent == set()
    assert curvflow.flow.run_flow is run_flow
    assert {k: first[k] for k in tracing.COUNTS} == {k: second[k] for k in tracing.COUNTS}
    assert first["flow.steps"] > 0
    assert first["geometry.radii_calls"] == first["flow.snapshots"]
    assert first["spectral.synth_calls"] == 4 * first["flow.steps"] + 1


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(curvflow.spectral, "TruncatedEvaluator")
    metrics, absent = _traced_curve_round()
    assert absent == {"spectral.synth", "spectral.project", "spectral.build"}
    assert metrics["spectral.synth_s"] is None
    assert metrics["spectral.operator_mb"] is None
    assert metrics["flow.rhs_per_step"] is None
    assert metrics["flow.steps"] > 0

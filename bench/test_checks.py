"""Each correctness check of the benchmark passes on a real run and fails on
a trajectory corrupted in the way it is meant to catch.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _scaled(values, factor):
    return tuple(v * factor for v in values)


@pytest.fixture(scope="module")
def curve():
    """A small version of curve_ellipse_L64: same ellipse and speed, degree 16."""
    workload = workloads.FlowWorkload((1.0, 1.2), degree=16, snapshot_every=2, stop_fraction=0.5)
    workload.setup(None)
    workload.prepare()
    workload.run()
    return workload.observe()


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    """A small version of simulate_roundtrip: same ellipsoid and speed, degree 8."""
    workload = workloads.RoundTripWorkload((1.0, 1.0, 1.1), degree=8, snapshot_every=1, stop_fraction=0.5)
    workload.setup(tmp_path_factory.mktemp("roundtrip"))
    workload.prepare()
    assert workload.run() == 0
    return workload.observe()


def test_real_runs_pass(curve, roundtrip):
    observation, files = roundtrip
    assert checks.check_flow(curve) == []
    assert checks.check_flow(observation) == []
    assert checks.check_roundtrip(files) == []


FLOW_CORRUPTIONS = {
    "stop_reason": lambda o: replace(o, stop_reason="max_steps"),
    "initial_volume": lambda o: replace(o, volume0=o.volume0 * 1.001),
    "inner_sphere": lambda o: replace(o, r_minus=_scaled(o.r_minus, 0.999)),
    "outer_sphere": lambda o: replace(o, r_plus=_scaled(o.r_plus, 1.01)),
    "initial_rate": lambda o: replace(o, times=_scaled(o.times, 1.1)),
    "collapse_time": lambda o: replace(o, collapse_time=o.collapse_time * 1.5),
    "rounding": lambda o: replace(o, r_plus=o.r_plus[:-1] + (o.r_minus[-1] * o.r_plus[0] / o.r_minus[0],)),
}


@pytest.mark.parametrize("check", sorted(FLOW_CORRUPTIONS))
@pytest.mark.parametrize("source", ["curve", "roundtrip"])
def test_flow_check_catches_corruption(check, source, curve, roundtrip):
    observation = curve if source == "curve" else roundtrip[0]
    failed = [name for name, _ in checks.check_flow(FLOW_CORRUPTIONS[check](observation))]
    assert check in failed


def test_early_collapse_estimate_fails(curve):
    failed = [name for name, _ in checks.check_flow(replace(curve, collapse_time=curve.collapse_time * 0.7))]
    assert "collapse_time" in failed


@pytest.mark.parametrize(
    "check, corrupt",
    [
        ("exit_codes", lambda f: replace(f, exit_codes=(0, 4, 0))),
        ("snapshot_count", lambda f: replace(f, snapshot_files=f.snapshot_files - 1)),
        ("snapshot_count", lambda f: replace(f, snapshot_count=f.snapshot_count + 1)),
    ],
)
def test_roundtrip_check_catches_corruption(check, corrupt, roundtrip):
    failed = [name for name, _ in checks.check_roundtrip(corrupt(roundtrip[1]))]
    assert failed == [check]

"""Command-line interface: exit codes, file layout, determinism."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvflow import cli, flow, geometry, verify
from curvflow.body import load_snapshot, save_snapshot
from curvflow.cli import (
    EXIT_CONE,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_TRUNCATED,
    ExperimentConfig,
    load_trajectory,
    main,
)
from curvflow.shapes import parse_shape
from curvflow.spectral import standard_grid
from curvflow.speeds import Speed, parse_speed
from curvflow.verify import diagnostics_record, kappa_gap_table


def write_config(path, **overrides):
    config = {
        "dimension": 2,
        "shape": "ellipsoid 1 1 1.1",
        "speed": "pow_mean,alpha=2",
        "degree": 8,
        "stop_fraction": 0.5,
        "snapshot_every": 5,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def ellipsoid_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ellipsoid")
    out = root / "run"
    write_config(root / "config.json", output=str(out))
    assert main(["simulate", str(root / "config.json")]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def sphere_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sphere")
    out = root / "run"
    write_config(root / "config.json", shape="sphere 1", output=str(out))
    assert main(["simulate", str(root / "config.json")]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def curve_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("curve")
    out = root / "run"
    write_config(
        root / "config.json", dimension=1, shape="ellipsoid 1 1.2", degree=32, output=str(out)
    )
    assert main(["simulate", str(root / "config.json")]) == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# shape


def test_shape_writes_snapshot_and_reports_cone(tmp_path, capsys):
    out = tmp_path / "shape.json"
    code = main(
        ["shape", "sphere 1 + Y(2,0)*0.05", "--dimension", "2", "--degree", "8",
         "--output", str(out)]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "cone margin" in captured
    body, time = load_snapshot(out)
    assert time == 0.0
    rebuilt = parse_shape(f"snapshot {out}", standard_grid(2, 8))
    np.testing.assert_array_equal(rebuilt.values, body.values)


def test_shape_out_of_cone_is_a_precondition_failure(capsys):
    code = main(
        ["shape", "ellipsoid 1 1 3", "--dimension", "2", "--degree", "12",
         "--speed", "pow_mean,alpha=2,delta0=0.1"]
    )
    assert code == EXIT_PRECONDITION
    assert "outside the pinching cone" in capsys.readouterr().err


def test_shape_nonconvex_truncation_is_a_precondition_failure(capsys):
    # degree 12 cannot represent a 6:1 ellipsoid convexly
    code = main(["shape", "ellipsoid 1 1 6", "--dimension", "2", "--degree", "12"])
    assert code == EXIT_PRECONDITION
    assert "not convex" in capsys.readouterr().err


def test_shape_bad_spec_is_a_precondition_failure(capsys):
    assert main(["shape", "pyramid 1", "--dimension", "2"]) == EXIT_PRECONDITION
    capsys.readouterr()
    assert main(["shape", "sphere nan", "--dimension", "2"]) == EXIT_PRECONDITION
    assert "non-finite" in capsys.readouterr().err
    assert main(["shape", "sphere 1", "--speed", "pow_mean,alpha=inf"]) == EXIT_PRECONDITION
    assert "alpha" in capsys.readouterr().err
    for spec, reason in [
        ("ellipsoid 1 1 inf", "non-finite"),
        ("sphere 1e308", "non-finite"),
        ("sphere 1 + Y(2,0)*1e300", "not convex"),
        ("sphere 1e200", "scale 1e+200"),
        ("sphere 1e-200", "scale 1e-200"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would reach stderr
            assert main(["shape", spec, "--dimension", "2"]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err and err.count("\n") == 1


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("radius", ["1e150", "1e-150"])
def test_shape_accepts_spheres_at_extreme_scales(dimension, radius, capsys):
    # a round sphere is perfectly pinched at any scale whose curvature fits a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["shape", f"sphere {radius}", "--dimension", str(dimension)])
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.err == ""
    ratio = float(captured.out.split("max pinching ratio:")[1].split()[0])
    assert ratio < 1e-15


# ---------------------------------------------------------------------------
# config handling


def test_config_defaults_and_round_trip(tmp_path):
    path = write_config(tmp_path / "c.json", output=str(tmp_path / "out"))
    config = ExperimentConfig.load(path)
    assert config.degree == 8
    assert config.c_safe == 0.25
    assert config.sigma is None
    assert config.t0_anchor == 1.2
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"bogus": 1})
    # retired fields that no output read; their former values are no exception
    for key, value in [
        ("eps_grid", [0.01, 0.05, 0.1, 0.5]),
        ("eps_grid", [0.01, 0.0]),
        ("rho_grid", [0.01, 0.05]),
        ("rho_grid", ["abc"]),
        ("seed", 0),
        ("seed", 0.5),
    ]:
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            ExperimentConfig.from_dict({key: value})


def test_readme_config_block_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == ExperimentConfig.from_dict({}).to_dict()


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="dimension"):
        ExperimentConfig.from_dict({"dimension": 5})
    with pytest.raises(ValueError, match="stop_fraction"):
        ExperimentConfig.from_dict({"stop_fraction": 1.5})
    with pytest.raises(ValueError, match="t0_anchor"):
        ExperimentConfig.from_dict({"t0_anchor": 0.5})
    nan, inf = float("nan"), float("inf")
    for key, value in [
        ("c_safe", -0.2),
        ("c_safe", 0.0),
        ("c_safe", nan),
        ("c_safe", inf),
        ("snapshot_every", 0),
        ("max_steps", 0),
        ("t0_anchor", nan),
        ("snapshot_every", inf),
        ("max_steps", inf),
        ("dimension", [2]),
        ("degree", 6.7),
        ("degree", True),
        ("c_safe", 10**400),
        ("sigma", "1"),
        ("shape", 1),
    ]:
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict({key: value})
    for data in ([], None, "sphere 1", 2):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_dict(data)
    # an integral float is an integer
    assert ExperimentConfig.from_dict({"degree": 12.0}).degree == 12


# ---------------------------------------------------------------------------
# simulate


def test_simulate_output_layout(ellipsoid_dir):
    assert (ellipsoid_dir / "config.json").is_file()
    assert (ellipsoid_dir / "series.csv").is_file()
    assert (ellipsoid_dir / "summary.json").is_file()
    snaps = sorted((ellipsoid_dir / "snapshots").glob("snap_*.json"))
    summary = json.loads((ellipsoid_dir / "summary.json").read_text())
    assert len(snaps) == summary["snapshot_count"]
    assert summary["stop_reason"] == "target_radius"
    assert summary["checks"]["interior_speed_bound"]["verdict"] == "ok"
    assert summary["checks"]["enclosed_point"]["worst"] > 0.0

    header = (ellipsoid_dir / "series.csv").read_text().splitlines()[0]
    assert header == (
        "t,r_minus,r_plus,ratio,V_1,V_2,V_3,iso_ratio,"
        "H_max,F_min,F_max,pinch_max,Z_sigma_max,Q_max,smoczyk_min"
    )


def test_simulate_series_matches_snapshots(ellipsoid_dir):
    lines = (ellipsoid_dir / "series.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    snaps = sorted((ellipsoid_dir / "snapshots").glob("snap_*.json"))
    assert len(rows) == len(snaps)
    times = [json.loads(p.read_text())["time"] for p in snaps]
    np.testing.assert_allclose([float(r[0]) for r in rows], times, rtol=0, atol=0)
    ratios = np.array([float(r[3]) for r in rows])
    assert ratios[-1] < ratios[0]  # the body got rounder


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        path = write_config(tmp_path / f"{tag}.json", degree=6, output=str(out))
        assert main(["simulate", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "flow", str(out)]) == EXIT_OK
        verify_out = capsys.readouterr().out
        assert main(["analyze", str(out)]) == EXIT_OK
        digest = hashlib.sha256()
        digest.update(verify_out.encode())
        for name in ("series.csv", "summary.json", "analysis.csv"):
            digest.update((out / name).read_bytes())
        for snap in sorted((out / "snapshots").glob("snap_*.json")):
            digest.update(snap.read_bytes())
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]


def test_simulate_missing_config_exits_io(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.json")]) == EXIT_IO
    capsys.readouterr()


def test_simulate_without_output_is_a_precondition_failure(tmp_path, capsys):
    path = write_config(tmp_path / "c.json")
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "output" in capsys.readouterr().err


def test_simulate_out_of_cone_start_is_a_precondition_failure(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        shape="ellipsoid 1 1 3",
        speed="pow_mean,alpha=2,delta0=0.1",
        degree=12,
        output=str(tmp_path / "out"),
    )
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "outside the pinching cone" in capsys.readouterr().err


def test_simulate_cone_exit_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    # pinching is monotone for these flows, so a mid-run exit has to be staged
    real_run_flow = cli.run_flow

    def relabeled(*args, **kwargs):
        return dataclasses.replace(real_run_flow(*args, **kwargs), stop_reason="cone_exit")

    monkeypatch.setattr(cli, "run_flow", relabeled)
    path = write_config(tmp_path / "c.json", degree=6, output=str(tmp_path / "out"))
    assert main(["simulate", str(path)]) == EXIT_CONE
    capsys.readouterr()


def test_simulate_negative_step_safety_is_a_precondition_failure(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", c_safe=-0.2, output=str(out))
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "c_safe" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("c_safe", [0.283, 0.3, 0.4, 2.0])
def test_simulate_step_safety_above_the_rk4_bound_is_a_precondition_failure(
    c_safe, tmp_path, capsys
):
    # above 2.785 / pi**2 the top curve mode can leave RK4's stability interval
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", c_safe=c_safe, output=str(out))
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "c_safe" in captured.err and "stability bound" in captured.err
    assert not out.exists()
    assert ExperimentConfig.from_dict({"c_safe": flow.MAX_SAFETY}).c_safe == flow.MAX_SAFETY


@pytest.mark.parametrize("value", [-1, float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["sigma"])
def test_simulate_bad_sigma_is_a_precondition_failure(field, value, tmp_path, capsys):
    # the rule summary.json follows: a finite number >= 0
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", degree=6, output=str(out), **{field: value})
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field} must be finite and >= 0" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_zero_sigma_is_derived(ellipsoid_dir, tmp_path, capsys):
    # 0 reads as unset, as it does in summary.json: the same run as the default
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", sigma=0, output=str(out))
    assert main(["simulate", str(path)]) == EXIT_OK
    capsys.readouterr()
    derived = json.loads((ellipsoid_dir / "summary.json").read_text())["sigma"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sigma"] == derived > 0.0 and "sigma0" not in summary
    assert (out / "series.csv").read_bytes() == (ellipsoid_dir / "series.csv").read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "null",
        '{"snapshot_every": 1e400}',
        '{"dimension": [2]}',
        '{"degree": 6.7}',
        '{"seed": 0}',
        '{"rho_grid": [0.01, 0.05]}',
        '{"eps_grid": [0.01, 0.05, 0.1, 0.5]}',
        '{"sigma0": 0.01}',
    ],
)
def test_simulate_bad_config_grammar_is_a_precondition_failure(text, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad config" in err and err.count("\n") == 1


def test_simulate_infinite_alpha_is_a_precondition_failure(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", speed="pow_mean,alpha=inf", output=str(out))
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_step_limit_is_a_truncated_run(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", degree=6, max_steps=1, output=str(out))
    assert main(["simulate", str(path)]) == EXIT_TRUNCATED
    assert "max_steps" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "max_steps"
    assert summary["steps"] == 1
    assert (out / "series.csv").is_file()
    assert len(list((out / "snapshots").glob("snap_*.json"))) == summary["snapshot_count"] == 2


def test_simulate_exits_4_on_a_failed_check_and_still_writes_its_outputs(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(verify, "VOLUME_DECAY_TOL", 0.0)
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", output=str(out))
    assert main(["simulate", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "target_radius" in err and "failed checks: volume_decay" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["volume_decay"]["verdict"] == "FAIL"
    assert summary["checks"]["volume_decay"]["tol"] == 0.0
    assert (out / "config.json").is_file() and (out / "series.csv").is_file()
    assert len(list((out / "snapshots").glob("snap_*.json"))) == summary["snapshot_count"]


def test_simulate_jobs_fan_out(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        paths.append(
            str(write_config(tmp_path / f"{tag}.json", degree=6, output=str(tmp_path / tag)))
        )
    assert main(["simulate", *paths, "--jobs", "2"]) == EXIT_OK
    assert (tmp_path / "a" / "series.csv").is_file()
    assert (tmp_path / "b" / "series.csv").is_file()
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_simulate_jobs_below_one_is_a_precondition_failure(jobs, tmp_path, capsys):
    path = write_config(tmp_path / "c.json", degree=6, output=str(tmp_path / "out"))
    assert main(["simulate", str(path), "--jobs", jobs]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# trajectory round trip


def test_load_trajectory_round_trip(ellipsoid_dir):
    trajectory, config = load_trajectory(ellipsoid_dir)
    assert config == ExperimentConfig.load(ellipsoid_dir / "config.json")
    assert trajectory.dimension == config.dimension == 2
    assert trajectory.speed.describe() == parse_speed(config.speed, 2).describe()
    # a stored run keeps its snapshots, not how they were stepped
    assert trajectory.stop_reason == "loaded"
    counters = (trajectory.steps, trajectory.retries, trajectory.rhs_evaluations)
    assert counters == (None, None, None)
    assert (trajectory.integrator, trajectory.step_sizes) == (None, None)
    assert [snap.step for snap in trajectory.snapshots] == list(range(len(trajectory.snapshots)))
    # stored support values survive unchanged
    body, time = load_snapshot(sorted((ellipsoid_dir / "snapshots").glob("*.json"))[-1])
    assert time == trajectory.final.time
    np.testing.assert_array_equal(trajectory.final.body.values, body.values)


def test_stored_snapshots_compute_each_value_once(ellipsoid_dir, monkeypatch):
    # every radius LP goes through RadiiSolver._program and every centre LP
    # through RadiiSolver._centre; FlowSnapshot computes its curvature
    # through flow.curvature
    calls = {"lp": 0, "centre": 0, "curvature": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        geometry.RadiiSolver, "_program", counting("lp", geometry.RadiiSolver._program)
    )
    monkeypatch.setattr(
        geometry.RadiiSolver, "_centre", counting("centre", geometry.RadiiSolver._centre)
    )
    monkeypatch.setattr(flow, "curvature", counting("curvature", flow.curvature))
    trajectory, config = load_trajectory(ellipsoid_dir)
    assert calls["lp"] == 0 and calls["centre"] == 0
    sigma, t0_index = cli._sigma_and_anchor(config, trajectory)
    record = diagnostics_record(trajectory, sigma=sigma, t0_index=t0_index)
    cli.time_series(trajectory, record)
    assert calls["curvature"] == len(trajectory.snapshots)


def test_load_trajectory_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trajectory(tmp_path / "nope")


def _copy_with_config(run_dir, tmp_path, **fields):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run, dirs_exist_ok=True)
    config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    config.update(fields)
    (run / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return run


def test_run_directories_with_retired_config_fields_still_load(ellipsoid_dir, tmp_path, capsys):
    # config.json as written before seed, rho_grid, eps_grid and sigma0 were retired
    retired = {
        "eps_grid": [0.01, 0.05, 0.1, 0.5],
        "rho_grid": [0.01, 0.05],
        "seed": 0,
        "sigma0": None,
    }
    run = _copy_with_config(ellipsoid_dir, tmp_path, **retired)
    outputs = []
    for directory in (ellipsoid_dir, run):
        assert main(["verify", "flow", str(directory)]) == EXIT_OK
        assert main(["analyze", str(directory)]) == EXIT_OK
        outputs.append(capsys.readouterr().out.replace(str(directory), "RUN"))
    assert outputs[0] == outputs[1]
    assert (run / "analysis.csv").read_bytes() == (ellipsoid_dir / "analysis.csv").read_bytes()
    # the loader drops those keys only; every other stored field is still checked
    for field, value in [("bogus", 1), ("degree", 6.7)]:
        _copy_with_config(ellipsoid_dir, tmp_path, **retired, **{field: value})
        assert main(["verify", "flow", str(run)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and err.count("\n") == 1


def _verify_and_analyze(run, capsys):
    """(exit codes, stdout with the run path replaced, analysis.csv bytes)."""
    codes = (main(["verify", "flow", str(run)]), main(["analyze", str(run)]))
    out = capsys.readouterr().out.replace(str(run), "RUN")
    return codes, out, (run / "analysis.csv").read_bytes()


@pytest.mark.parametrize("variant", ["deleted", "not an object", "wrong sigma and anchor"])
@pytest.mark.parametrize("run_dir", ["ellipsoid_dir", "sphere_dir", "curve_dir"])
def test_verify_flow_and_analyze_never_read_the_summary(
    run_dir, variant, request, tmp_path, capsys
):
    # a stored run is its config and its snapshots: sigma and the anchor are
    # derived from them as simulate derives them
    intact = request.getfixturevalue(run_dir)
    capsys.readouterr()
    run = tmp_path / "run"
    shutil.copytree(intact, run)
    summary = run / "summary.json"
    if variant == "deleted":
        summary.unlink()
    elif variant == "not an object":
        summary.write_text("[]", encoding="utf-8")
    else:
        stored = json.loads(summary.read_text(encoding="utf-8"))
        assert stored["t0_index"] > 0
        stored.update(sigma=10.0 * stored["sigma"], t0_index=0)
        summary.write_text(json.dumps(stored), encoding="utf-8")
    expected = _verify_and_analyze(intact, capsys)
    assert expected[0] == (EXIT_OK, EXIT_OK)
    assert _verify_and_analyze(run, capsys) == expected


def _intruder_curve(run, curve_dir):
    # the last snapshot of a curve run, stored after this run's last one
    shutil.copy(sorted((curve_dir / "snapshots").glob("snap_*.json"))[-1], run / "snap_999999.json")


def _intruder_degree(run, curve_dir):
    # a degree-16 surface between this degree-8 run's first two snapshots
    files = sorted(run.glob("snap_*.json"))
    times = [load_snapshot(f)[1] for f in files[:2]]
    body = parse_shape("ellipsoid 1 1 1.1", standard_grid(2, 16))
    save_snapshot(body, 0.5 * sum(times), run / "snap_000000b.json")


def _intruder_duplicate(run, curve_dir):
    shutil.copy(run / "snap_000001.json", run / "snap_000001b.json")


@pytest.mark.parametrize(
    "intrude",
    [_intruder_curve, _intruder_degree, _intruder_duplicate],
    ids=["curve snapshot", "degree-16 snapshot", "duplicated snapshot"],
)
def test_a_run_directory_that_mixes_runs_is_a_precondition_failure(
    ellipsoid_dir, curve_dir, tmp_path, intrude, capsys
):
    run = tmp_path / "run"
    shutil.copytree(ellipsoid_dir, run)
    (run / "analysis.csv").unlink(missing_ok=True)
    intrude(run / "snapshots", curve_dir)
    (intruder,) = set(os.listdir(run / "snapshots")) - set(os.listdir(ellipsoid_dir / "snapshots"))
    for command in (["verify", "flow"], ["analyze"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, str(run)]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert intruder in captured.err
    assert not (run / "analysis.csv").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_lemmas_passes(capsys):
    code = main(["verify", "lemmas", "--samples", "2000", "--dimensions", "2,3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 8  # 4 suites x 2 dimensions


@pytest.mark.parametrize("dimensions", ["2,x", "1"])
def test_verify_lemmas_bad_dimensions_is_a_precondition_failure(dimensions, capsys):
    argv = ["verify", "lemmas", "--samples", "100", "--dimensions", dimensions]
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_verify_speeds_passes(capsys):
    code = main(["verify", "speeds", "pow_norm,alpha=2", "--dimension", "2",
                 "--samples", "64"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "mu_hat" in out
    assert "ok" in out


@pytest.mark.parametrize("samples", ["0", "-5"])
@pytest.mark.parametrize("scope", [["lemmas"], ["speeds", "pow_mean"]], ids=["lemmas", "speeds"])
def test_verify_samples_below_one_is_a_precondition_failure(scope, samples, capsys):
    assert main(["verify", *scope, "--samples", samples]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"
    assert captured.out == ""


def test_verify_speeds_bad_grammar(capsys):
    assert main(["verify", "speeds", "pow_bogus,alpha=2"]) == EXIT_PRECONDITION
    capsys.readouterr()
    for dimension in ("0", "1", "-1"):
        argv = ["verify", "speeds", "pow_mean", "--dimension", dimension, "--samples", "8"]
        assert main(argv) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""


def test_verify_flow_clean_run(ellipsoid_dir, capsys):
    assert main(["verify", "flow", str(ellipsoid_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Z_sigma stays negative: ok" in out
    assert "interior speed bound: ok" in out
    assert "enclosed-point margin: ok" in out
    assert "volume decay identity: ok" in out


def test_verify_flow_prints_each_margin_within_its_tolerance(ellipsoid_dir, capsys):
    assert main(["verify", "flow", str(ellipsoid_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    pattern = r"^(.+): ok \((?:worst|worst relative slack|worst relative error) (\S+), tol (\S+)\)$"
    margins = {
        name: (float(worst), float(tol)) for name, worst, tol in re.findall(pattern, out, re.M)
    }
    z_worst, z_tol = margins["Z_sigma stays negative"]
    assert z_worst < 0.0 < z_tol < 1e-8
    slack, tol = margins["interior speed bound"]
    assert tol == 1e-9 and 0.0 < slack <= 1.0
    worst, tol = margins["enclosed-point margin"]
    assert tol == -1e-8 and worst > 0.0
    worst, tol = margins["volume decay identity"]
    assert tol == 1e-2 and 0.0 <= worst < tol


_CHECK_LABELS = {
    "z_sigma": "Z_sigma stays negative",
    "interior_speed_bound": "interior speed bound",
    "enclosed_point": "enclosed-point margin",
    "volume_decay": "volume decay identity",
    "curve_residual": "curve evolution residual",
}


@pytest.mark.parametrize("run_dir", ["ellipsoid_dir", "sphere_dir", "curve_dir"])
def test_summary_checks_match_the_verify_flow_lines(run_dir, request, capsys):
    run = request.getfixturevalue(run_dir)
    checks = json.loads((run / "summary.json").read_text())["checks"]
    assert main(["verify", "flow", str(run)]) == EXIT_OK
    out = capsys.readouterr().out
    names = set(_CHECK_LABELS) - ({"z_sigma"} if run_dir == "curve_dir" else {"curve_residual"})
    assert set(checks) == names | {"z_sigma"}
    for name in names:
        line = rf"^{re.escape(_CHECK_LABELS[name])}: (\S+) \(\D+ (\S+), tol (\S+)\)$"
        verdict, worst, tol = re.search(line, out, re.M).groups()
        assert verdict == checks[name]["verdict"] == "ok"
        assert worst == f"{checks[name]['worst']:.3e}"
        assert tol == f"{checks[name]['tol']:.3e}"
    if run_dir == "curve_dir":
        assert checks["z_sigma"] == {"verdict": "not applicable", "worst": None, "tol": None}
        assert "Z_sigma: not applicable on a curve" in out.splitlines()


def test_verify_flow_reports_an_unmonitored_speed_bound(ellipsoid_dir, monkeypatch, capsys):
    real_record = cli.diagnostics_record

    def aborted_at_anchor(*args, **kwargs):
        record = real_record(*args, **kwargs)
        unmonitored = np.full_like(record.q_max, np.nan)
        tso = dataclasses.replace(
            record.tso, aborted=True, abort_index=record.tso.t0_index, abort_witness=(0, -1.0),
        )
        return dataclasses.replace(record, q_max=unmonitored, q_bound=unmonitored, tso=tso)

    monkeypatch.setattr(cli, "diagnostics_record", aborted_at_anchor)
    assert main(["verify", "flow", str(ellipsoid_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "interior speed bound: ok (no snapshot monitored) (aborted at validity edge)\n" in out


def test_verify_flow_computes_each_speed_value_once(ellipsoid_dir, monkeypatch, capsys):
    calls = []
    value = Speed.value

    def counted(self, kappa):
        calls.append(1)
        return value(self, kappa)

    monkeypatch.setattr(Speed, "value", counted)
    assert main(["verify", "flow", str(ellipsoid_dir)]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == len(list((ellipsoid_dir / "snapshots").glob("snap_*.json")))


def test_each_command_computes_only_the_values_it_reports(
    ellipsoid_dir, tmp_path, monkeypatch, capsys
):
    calls = {"gradient": 0, "gaps": 0, "record": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for module in (cli, verify):
        monkeypatch.setattr(module, "gradient_margins", counting("gradient", verify.gradient_margins))
        monkeypatch.setattr(module, "kappa_gap_table", counting("gaps", verify.kappa_gap_table))
    monkeypatch.setattr(cli, "diagnostics_record", counting("record", verify.diagnostics_record))

    assert main(["verify", "flow", str(ellipsoid_dir)]) == EXIT_OK
    assert calls == {"gradient": 0, "gaps": 0, "record": 1}

    calls.update(record=0)
    assert main(["analyze", str(ellipsoid_dir)]) == EXIT_OK
    assert calls == {"gradient": 0, "gaps": 1, "record": 1}

    calls.update(gaps=0, record=0)
    # at degree 8 gradient_inequality_monitor would add a half-band pass: simulate
    # stores the full margin only
    surface = write_config(tmp_path / "surface.json", degree=8, output=str(tmp_path / "surface"))
    assert main(["simulate", str(surface)]) == EXIT_OK
    assert calls == {"gradient": 1, "gaps": 0, "record": 1}

    calls.update(gradient=0, record=0)
    curve = write_config(
        tmp_path / "curve.json", dimension=1, shape="ellipsoid 1 1.2", degree=16,
        output=str(tmp_path / "curve"),
    )
    assert main(["simulate", str(curve)]) == EXIT_OK
    assert calls == {"gradient": 0, "gaps": 0, "record": 1}
    capsys.readouterr()


def test_verify_flow_missing_dir(tmp_path, capsys):
    assert main(["verify", "flow", str(tmp_path / "nope")]) == EXIT_IO
    capsys.readouterr()


def test_summary_counts_right_hand_side_evaluations(ellipsoid_dir):
    summary = json.loads((ellipsoid_dir / "summary.json").read_text(encoding="utf-8"))
    # one evaluation of the initial state, then four per step without retries
    assert summary["retries"] == 0
    assert summary["rhs_evaluations"] == 4 * summary["steps"] + 1


def test_summary_counts_one_radii_solve_per_snapshot(ellipsoid_dir, curve_dir):
    # the run's one warm solver solves each snapshot's radii once
    for directory in (ellipsoid_dir, curve_dir):
        summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
        assert summary["radii_solves"] == summary["snapshot_count"] > 2


def test_summary_counts_the_stop_tests_inradius_solves(ellipsoid_dir, curve_dir):
    # the inradius programs that the stop test solves between snapshots;
    # radii_solves counts the snapshots' solves alone
    for directory in (ellipsoid_dir, curve_dir):
        summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
        assert 0 < summary["target_solves"] <= 3


def test_summary_records_the_integrator_and_step_sizes(ellipsoid_dir, curve_dir):
    # every body steps with ETDRK4; RK4 is reachable only through run_flow
    for directory in (ellipsoid_dir, curve_dir):
        summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
        sizes = (summary["dt_min"], summary["dt_median"], summary["dt_max"])
        assert summary["integrator"] == "etdrk4"
        assert 0.0 < sizes[0] <= sizes[1] <= sizes[2]


def test_verify_flow_judges_the_curve_evolution_residual(curve_dir, tmp_path, capsys):
    assert main(["verify", "flow", str(curve_dir)]) == EXIT_OK
    pattern = r"^curve evolution residual: ok \(worst relative (\S+), tol (\S+)\)$"
    worst, tol = re.search(pattern, capsys.readouterr().out, re.M).groups()
    assert 0.0 < float(worst) < float(tol) == 0.25
    # one stored coefficient off by 0.01, about 8% of the cos 2t coefficient
    run = tmp_path / "run"
    shutil.copytree(curve_dir, run)
    files = sorted((run / "snapshots").glob("snap_*.json"))
    snap = files[len(files) // 2]
    record = json.loads(snap.read_text(encoding="utf-8"))
    record["coefficients"][3] += 0.01
    snap.write_text(json.dumps(record), encoding="utf-8")
    assert main(["verify", "flow", str(run)]) == EXIT_NUMERICAL
    assert "curve evolution residual: FAIL" in capsys.readouterr().out


def test_verify_flow_reports_z_sigma_as_not_applicable_on_a_curve(curve_dir, capsys):
    # Z_sigma is -sigma H**2 on every curve, so a verdict on it would be vacuous
    assert main(["verify", "flow", str(curve_dir)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "Z_sigma: not applicable on a curve" in lines
    assert not [line for line in lines if line.startswith("Z_sigma stays negative")]


def test_run_directories_with_indented_snapshots_read_alike(ellipsoid_dir, tmp_path, capsys):
    # snapshots as written with indent=1, before the compact encoding
    run = tmp_path / "run"
    shutil.copytree(ellipsoid_dir, run)
    for snap in sorted((run / "snapshots").glob("snap_*.json")):
        text = snap.read_text(encoding="utf-8")
        assert text.count("\n") == 1  # compact: one line
        snap.write_text(json.dumps(json.loads(text), indent=1) + "\n", encoding="utf-8")
    outputs = []
    for directory in (ellipsoid_dir, run):
        assert main(["verify", "flow", str(directory)]) == EXIT_OK
        assert main(["analyze", str(directory)]) == EXIT_OK
        outputs.append(capsys.readouterr().out.replace(str(directory), "RUN"))
    assert outputs[0] == outputs[1]
    assert (run / "analysis.csv").read_bytes() == (ellipsoid_dir / "analysis.csv").read_bytes()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_ellipsoid_run(ellipsoid_dir, capsys):
    assert main(["analyze", str(ellipsoid_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_hat:" in out
    assert "speed exponent:" in out

    lines = (ellipsoid_dir / "analysis.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "t", "r_minus", "r_plus", "ratio", "V_0", "V_1", "V_2", "V_3",
        "iso_ratio", "diskant_lower", "diskant_upper",
    ]
    for line in lines[1:]:
        row = dict(zip(header, (float(x) for x in line.split(","))))
        assert row["diskant_lower"] <= row["r_minus"] * (1 + 1e-3)
        assert row["r_plus"] <= row["diskant_upper"] * (1 + 1e-3)


def test_series_and_analysis_share_their_geometry_columns(ellipsoid_dir, capsys):
    assert main(["analyze", str(ellipsoid_dir)]) == EXIT_OK
    capsys.readouterr()

    def read(name):
        with open(ellipsoid_dir / name, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    series, analysis = read("series.csv"), read("analysis.csv")
    shared = ["t", "r_minus", "r_plus", "ratio", "V_1", "V_2", "V_3", "iso_ratio"]
    assert len(series) == len(analysis) > 1
    for a, b in zip(series, analysis):
        assert [a[name] for name in shared] == [b[name] for name in shared]


def test_analyze_sphere_run_degenerate_diagnostics(sphere_dir, capsys):
    # a sphere never violates roundness and has no pinching decay to fit
    assert main(["analyze", str(sphere_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_hat: unavailable" in out
    assert "inf" in out


def test_analyze_prints_its_own_grids_and_the_record(ellipsoid_dir, capsys):
    argv = ["analyze", str(ellipsoid_dir), "--eps-grid", "0.2,0.3", "--rho-grid", "0.1"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    trajectory, _ = load_trajectory(ellipsoid_dir)
    gaps = kappa_gap_table(trajectory, (0.2, 0.3))
    assert re.findall(r"^  eps=(\S+): (\S+)$", out, re.M) == [
        ("0.2", repr(float(gaps[0]))),
        ("0.3", repr(float(gaps[1]))),
    ]
    assert re.findall(r"^  rho=(\S+): ", out, re.M) == ["0.1"]
    # the record analyze derives from the stored run is the one simulate wrote
    summary = json.loads((ellipsoid_dir / "summary.json").read_text(encoding="utf-8"))
    assert re.search(r"^lambda_hat: (\S+)$", out, re.M)[1] == f"{summary['lambda_hat']:.6g}"
    exponent = re.search(r"^speed exponent: (\S+) \(expected", out, re.M)[1]
    assert exponent == f"{summary['speed_exponent']:.6g}"


@pytest.mark.parametrize("option", ["--rho-grid", "--eps-grid"])
def test_analyze_bad_grid_is_a_precondition_failure(ellipsoid_dir, option, capsys):
    assert main(["analyze", str(ellipsoid_dir), option, "0.01,abc"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {option}")
    assert captured.out == ""


def test_analyze_missing_dir(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope")]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("command", [["analyze"], ["verify", "flow"]])
def test_non_finite_snapshot_is_a_precondition_failure(ellipsoid_dir, tmp_path, command, capsys):
    # so is a snapshot that is not an object or has a null degree: one error
    # line that names the file, never a traceback
    name = sorted((ellipsoid_dir / "snapshots").glob("snap_*.json"))[1].name
    record = json.loads((ellipsoid_dir / "snapshots" / name).read_text(encoding="utf-8"))
    poisoned = [float("nan"), *record["coefficients"][1:]]
    cases = [
        (json.dumps({**record, "coefficients": poisoned}), "non-finite"),
        ("[1]", "not a support-function snapshot"),
        (json.dumps({**record, "degree": None}), "degree must be an integer"),
    ]
    for i, (text, message) in enumerate(cases):
        run = tmp_path / f"run{i}"
        shutil.copytree(ellipsoid_dir, run)
        snap = run / "snapshots" / name
        snap.write_text(text, encoding="utf-8")
        assert main([*command, str(run)]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {snap}: ") and message in captured.err
        assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# environment


def test_thread_cap_respects_existing_settings(monkeypatch):
    monkeypatch.setenv("CURVFLOW_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "8")
    cli._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["MKL_NUM_THREADS"] == "8"  # setdefault never overrides


# ---------------------------------------------------------------------------
# shape and speed grammars: a ValueError or a finite result, never NaN or inf

_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0", "0", "1e400", "-1e400", "1", "1.1", "0.05"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def _shape_text(draw):
    if draw(st.booleans()):
        return "ellipsoid " + " ".join(draw(st.lists(_NUMBER, min_size=2, max_size=3)))
    terms = [
        f"Y({draw(st.integers(0, 5))},{draw(st.integers(-5, 5))})*{draw(_NUMBER)}"
        for _ in range(draw(st.integers(0, 2)))
    ]
    return " + ".join([f"sphere {draw(_NUMBER)}"] + terms)


@st.composite
def _speed_text(draw):
    head = draw(st.sampled_from(["pow_mean", "pow_norm", "pow_gauss", "pow_Ek:1", "pow_Ek:2"]))
    names = draw(st.lists(st.sampled_from(["alpha", "delta0"]), max_size=2))
    return ",".join([head] + [f"{name}={draw(_NUMBER)}" for name in names])


@settings(deadline=None)
@given(text=_shape_text())
def test_shape_grammar_gives_finite_bodies(text):
    try:
        body = parse_shape(text, standard_grid(2, 4))
    except ValueError:
        return
    assert np.all(np.isfinite(body.coefficients))
    assert np.all(np.isfinite(body.values))


@settings(deadline=None)
@given(text=_speed_text(), dimension=st.sampled_from([1, 2]))
def test_speed_grammar_gives_finite_speeds(text, dimension):
    try:
        speed = parse_speed(text, dimension)
    except ValueError:
        return
    assert 1.0 < speed.alpha < np.inf
    assert speed.delta0 > 0.0
    assert np.isfinite(speed.value(np.ones(dimension)))


# ---------------------------------------------------------------------------
# config grammar: any JSON value is a config or a ValueError, and simulate
# exits 2 on it (no config here names an output directory)

_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.just(10**400),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
_PLAUSIBLE = st.one_of(
    _JSON,
    st.sampled_from([1, 2, 3, 6, 6.0, 6.7, 0.2, 0.5, 1.2, -1, 0, 1e400, "sphere 1", "pow_mean,alpha=2"]),
    st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans()), max_size=3),
)


@st.composite
def _config_json(draw):
    if draw(st.booleans()):
        return draw(_JSON)
    fields = [field.name for field in dataclasses.fields(ExperimentConfig)]
    keys = sorted(set(fields) - {"output"}) + ["bogus", "seed"]
    names = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
    return {name: draw(_PLAUSIBLE) for name in names}


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_config_json())
def test_config_grammar_gives_value_errors(data, tmp_path, capsys):
    try:
        ExperimentConfig.from_dict(data)
    except ValueError:
        pass
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["simulate", str(path)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1

"""Command-line interface: exit codes, file layout, determinism."""

import dataclasses
import hashlib
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvflow import cli, flow, geometry
from curvflow.body import load_snapshot
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
from curvflow.verify import diagnostics_record


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
    for spec in ("ellipsoid 1 1 inf", "sphere 1e308"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would reach stderr
            assert main(["shape", spec, "--dimension", "2"]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# config handling


def test_config_defaults_and_round_trip(tmp_path):
    path = write_config(tmp_path / "c.json", output=str(tmp_path / "out"))
    config = ExperimentConfig.load(path)
    assert config.degree == 8
    assert config.c_safe == 0.2
    assert config.sigma is None
    assert config.t0_anchor == 1.2
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"bogus": 1})


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
        ("eps_grid", [0.01, 0.0]),
        ("rho_grid", [-0.05]),
        ("rho_grid", ["abc"]),
        ("t0_anchor", nan),
    ]:
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict({key: value})


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
    assert summary["tso_violated"] is False
    assert summary["smoczyk_worst"] > 0.0

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


# ---------------------------------------------------------------------------
# trajectory round trip


def test_load_trajectory_round_trip(ellipsoid_dir):
    trajectory, summary = load_trajectory(ellipsoid_dir)
    assert trajectory.stop_reason == "target_radius"
    assert trajectory.dimension == 2
    assert len(trajectory.snapshots) == summary["snapshot_count"]
    assert trajectory.speed.describe() == summary["speed"]
    # stored support values survive unchanged
    body, time = load_snapshot(sorted((ellipsoid_dir / "snapshots").glob("*.json"))[-1])
    assert time == trajectory.final.time
    np.testing.assert_array_equal(trajectory.final.body.values, body.values)


def test_stored_snapshots_compute_each_value_once(ellipsoid_dir, monkeypatch):
    # every radii LP goes through geometry.linprog; FlowSnapshot computes its
    # curvature through flow.curvature
    calls = {"lp": 0, "curvature": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(geometry, "linprog", counting("lp", geometry.linprog))
    monkeypatch.setattr(flow, "curvature", counting("curvature", flow.curvature))
    trajectory, summary = load_trajectory(ellipsoid_dir)
    assert calls["lp"] == 0
    record = diagnostics_record(
        trajectory, sigma=summary["sigma"], sigma0=summary["sigma0"], t0_index=summary["t0_index"]
    )
    cli.time_series(trajectory, record)
    assert calls["curvature"] == len(trajectory.snapshots)


def test_load_trajectory_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trajectory(tmp_path / "nope")


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


def test_verify_flow_missing_dir(tmp_path, capsys):
    assert main(["verify", "flow", str(tmp_path / "nope")]) == EXIT_IO
    capsys.readouterr()


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


def test_analyze_sphere_run_degenerate_diagnostics(sphere_dir, capsys):
    # a sphere never violates roundness and has no pinching decay to fit
    assert main(["analyze", str(sphere_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_hat: unavailable" in out
    assert "inf" in out


@pytest.mark.parametrize("option", ["--rho-grid", "--eps-grid"])
def test_analyze_bad_grid_is_a_precondition_failure(ellipsoid_dir, option, capsys):
    assert main(["analyze", str(ellipsoid_dir), option, "0.01,abc"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {option}")
    assert captured.out == ""


def test_analyze_missing_dir(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope")]) == EXIT_IO
    capsys.readouterr()


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

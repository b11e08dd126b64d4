import numpy as np
import pytest

import curvflow.flow as flow_module
from curvflow import spectral
from curvflow.body import ConvexityLostError
from curvflow.flow import (
    MAX_STEP_RETRIES,
    collapse_radius,
    estimate_collapse,
    limit_point_error,
    rescaled_profile,
    run_flow,
    sphere_lifetime,
    sphere_radius_law,
)
from curvflow.geometry import mixed_volumes
from curvflow.shapes import make_ellipsoid, make_sphere
from curvflow.speeds import Speed, make_speed
from curvflow.spectral import standard_grid


def test_sphere_follows_exact_law():
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2, alpha=2.0)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.5)
    assert traj.stop_reason == "target_radius"
    assert traj.steps > 10
    for snap in traj.snapshots:
        law = sphere_radius_law(1.0, snap.time, speed)
        assert snap.radii.r_minus == pytest.approx(law, rel=1e-6)
        assert snap.radii.r_plus == pytest.approx(law, rel=1e-6)

    estimate = estimate_collapse(traj)
    assert estimate.time == pytest.approx(sphere_lifetime(1.0, speed), abs=1e-6)
    assert sphere_lifetime(1.0, speed) == pytest.approx(1.0 / 12.0)
    np.testing.assert_allclose(estimate.point, 0.0, atol=1e-8)


def test_sphere_law_time_checkpoint():
    # the first snapshot past t = 0.07 sits on (1 - 12 t)^(1/3)
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2, alpha=2.0)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.5)
    past = [snap for snap in traj.snapshots if snap.time >= 0.07]
    assert past, "run stopped before t = 0.07"
    snap = past[0]
    expected = (1.0 - 12.0 * snap.time) ** (1.0 / 3.0)
    assert snap.radii.r_minus == pytest.approx(expected, rel=1e-6)


def test_zero_steps_is_identity():
    grid = standard_grid(2, 6)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    traj = run_flow(body, make_speed("mean", 2), max_steps=0)
    assert traj.stop_reason == "max_steps"
    assert traj.steps == 0
    assert len(traj.snapshots) == 1
    np.testing.assert_array_equal(traj.final.body.coefficients, body.coefficients)


def test_determinism():
    grid = standard_grid(2, 6)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    speed = make_speed("norm", 2, alpha=1.5)
    a = run_flow(body, speed, max_steps=40)
    b = run_flow(body, speed, max_steps=40)
    assert a.times().tolist() == b.times().tolist()
    np.testing.assert_array_equal(a.final.body.coefficients, b.final.body.coefficients)


def test_monotone_invariants():
    grid = standard_grid(2, 8)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    traj = run_flow(body, make_speed("mean", 2), max_steps=120)
    times = traj.times()
    assert np.all(np.diff(times) > 0.0)
    assert np.all(np.diff(traj.r_plus()) < 0.0)
    volumes = [mixed_volumes(snap.body).canonical[-1] for snap in traj.snapshots]
    assert np.all(np.diff(volumes) < 0.0)


def test_snapshot_cadence():
    grid = standard_grid(2, 6)
    traj = run_flow(make_sphere(grid, 1.0), make_speed("mean", 2), max_steps=25, snapshot_every=10)
    assert [snap.step for snap in traj.snapshots] == [0, 10, 20, 25]
    assert traj.stop_reason == "max_steps"


def test_out_of_cone_stops_immediately():
    grid = standard_grid(2, 12)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.6))
    speed = make_speed("mean", 2, delta0=1e-4)
    traj = run_flow(body, speed)
    assert traj.stop_reason == "cone_exit"
    assert traj.steps == 0


def test_translation_equivariance():
    grid = standard_grid(2, 6)
    speed = make_speed("mean", 2)
    offset = np.array([0.05, -0.02, 0.03])
    plain = run_flow(make_sphere(grid, 1.0), speed, max_steps=10)
    moved = run_flow(make_sphere(grid, 1.0, center=offset), speed, max_steps=10)
    assert moved.final.time == pytest.approx(plain.final.time, rel=1e-12)
    shift = grid.nodes @ offset
    np.testing.assert_allclose(
        moved.final.body.values, plain.final.body.values + shift, atol=1e-10
    )


def test_nonconvex_input_raises():
    grid = standard_grid(2, 6)
    with pytest.raises(ConvexityLostError):
        run_flow(make_sphere(grid, 1.0), make_speed("mean", 2), convexity_tol=1e6)


def test_retry_exhaustion_flags_convexity_lost(monkeypatch):
    grid = standard_grid(2, 6)
    body = make_sphere(grid, 1.0)
    original = flow_module._Stepper.evaluate
    calls = {"count": 0}

    def flaky(self, coefficients):
        calls["count"] += 1
        if calls["count"] > 1:
            raise ConvexityLostError(0, -1.0, 1.0)
        return original(self, coefficients)

    monkeypatch.setattr(flow_module._Stepper, "evaluate", flaky)
    traj = run_flow(body, make_speed("mean", 2))
    assert traj.stop_reason == "convexity_lost"
    assert traj.steps == 0
    assert traj.retries == MAX_STEP_RETRIES + 1
    assert len(traj.snapshots) == 1


def test_nan_speed_is_a_numerical_failure(monkeypatch):
    # NaN radii must take the retry path, not pass as a cone exit
    grid = standard_grid(2, 6)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    original = Speed.value
    calls = {"count": 0}

    def poisoned(self, kappa):
        calls["count"] += 1
        f = original(self, kappa)
        return np.full_like(f, np.nan) if calls["count"] > 40 else f

    monkeypatch.setattr(Speed, "value", poisoned)
    traj = run_flow(body, make_speed("mean", 2), snapshot_every=1)
    assert traj.stop_reason == "convexity_lost"
    assert traj.retries == MAX_STEP_RETRIES + 1
    assert np.all(np.isfinite(traj.final.body.coefficients))


@pytest.mark.parametrize("c_safe", [-0.2, 0.0, float("nan"), float("inf")])
def test_run_flow_rejects_bad_step_safety(c_safe):
    body = make_sphere(standard_grid(2, 6), 1.0)
    with pytest.raises(ValueError, match="c_safe"):
        run_flow(body, make_speed("mean", 2), c_safe=c_safe)


@pytest.mark.parametrize(
    "option, value",
    [
        ("stop_fraction", 1.5),
        ("stop_fraction", 1.0),
        ("stop_fraction", 0.0),
        ("stop_fraction", -1.0),
        ("stop_fraction", float("nan")),
        ("convexity_tol", -1.0),
        ("convexity_tol", float("nan")),
        ("convexity_tol", float("inf")),
        ("max_steps", -1),
    ],
)
def test_run_flow_rejects_bad_inputs(option, value):
    # a bad value must not end as a clean target_radius, run to max_steps,
    # or pass as a convexity failure
    body = make_sphere(standard_grid(2, 6), 1.0)
    options = {"max_steps": 3, option: value}
    with pytest.raises(ValueError, match=option):
        run_flow(body, make_speed("mean", 2), **options)


def test_run_flow_accepts_edge_inputs():
    body = make_sphere(standard_grid(2, 6), 1.0)
    speed = make_speed("mean", 2)
    assert run_flow(body, speed, convexity_tol=0.0, max_steps=3).steps == 3
    assert run_flow(body, speed, max_steps=0).stop_reason == "max_steps"


def test_stages_compute_only_kappa(monkeypatch):
    # only accepted states (the initial one and one per step) feed
    # pinching_status; the Runge-Kutta stages read kappa alone
    from functools import cached_property

    from curvflow import body as body_module

    touched = []
    for name in ("radii_sigma", "elementary", "mean", "traceless_norm2"):
        original = body_module.CurvatureField.__dict__[name].func

        def counting(self, original=original):
            touched.append(self)
            return original(self)

        prop = cached_property(counting)
        prop.__set_name__(body_module.CurvatureField, name)
        monkeypatch.setattr(body_module.CurvatureField, name, prop)
    built = []
    original_init = body_module.CurvatureField.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(body_module.CurvatureField, "__init__", counting_init)
    body = make_ellipsoid(standard_grid(2, 6), (1.0, 1.0, 1.1))
    traj = run_flow(body, make_speed("mean", 2), max_steps=5, snapshot_every=100)
    assert traj.steps == 5 and traj.retries == 0
    assert len(built) == 4 * traj.steps + 1
    assert len({id(curv) for curv in touched}) == traj.steps + 1


def test_fine_grid_operators_built_once_across_runs(monkeypatch):
    grid = standard_grid(2, 6)
    fine = standard_grid(2, 12)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    speed = make_speed("mean", 2)
    built = []
    original = spectral._build_band

    def counting(grid, band):
        if grid is fine:
            built.append(band)
        return original(grid, band)

    monkeypatch.setattr(spectral, "_build_band", counting)
    first = run_flow(body, speed, max_steps=3)
    first_builds = len(built)
    second = run_flow(body, speed, max_steps=3)
    assert first_builds <= 1  # none if another run already used this grid
    assert len(built) == first_builds
    np.testing.assert_array_equal(second.final.body.coefficients, first.final.body.coefficients)


def test_rescaling_and_limit_point():
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.4)
    estimate = estimate_collapse(traj)
    profile = rescaled_profile(traj.snapshots[-2], estimate)
    np.testing.assert_allclose(profile, 1.0, atol=1e-4)
    errors = limit_point_error(traj, estimate)
    assert np.max(errors) < 1e-6
    with pytest.raises(ValueError):
        collapse_radius(estimate, estimate.time + 1e-9)
    with pytest.raises(ValueError):
        sphere_radius_law(1.0, 1.0, speed)


def test_curve_flow_n1():
    grid = standard_grid(1, 16)
    speed = make_speed("mean", 1, alpha=2.0)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.5)
    assert traj.stop_reason == "target_radius"
    for snap in traj.snapshots:
        law = sphere_radius_law(1.0, snap.time, speed)
        assert snap.radii.r_minus == pytest.approx(law, rel=1e-6)
    # lifetime of the unit circle under kappa^2 is 1/3
    assert estimate_collapse(traj).time == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_ellipsoid_rounds_out():
    grid = standard_grid(2, 12)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.15))
    traj = run_flow(body, make_speed("mean", 2), stop_fraction=0.35)
    assert traj.stop_reason == "target_radius"
    first = traj.snapshots[0].radii
    last = traj.final.radii
    assert last.ratio < first.ratio
    assert last.ratio < 1.02
    # collapse happens between the inscribed and circumscribed sphere lifetimes
    speed = make_speed("mean", 2)
    estimate = estimate_collapse(traj)
    assert sphere_lifetime(1.0, speed) < estimate.time < sphere_lifetime(1.15, speed)

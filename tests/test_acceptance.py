"""Acceptance criteria, one test per criterion.

Each test is a single pass/fail line under ``pytest -v``.  The ellipsoid
contraction shared by criteria 6 through 10 and 13 runs once per session.
"""

import time

import numpy as np
import pytest

from curvflow.flow import (
    estimate_collapse,
    rescaled_profile,
    run_flow,
    sphere_lifetime,
)
from curvflow.geometry import geombound_check, mixed_volumes, radius_report
from curvflow.shapes import make_ellipsoid, make_sphere, random_pinched_body
from curvflow.spectral import standard_grid
from curvflow.speeds import check_conditions, parse_speed
from curvflow.verify import (
    curve_evolution_residual,
    diagnostics_record,
    run_lemma_suites,
    volume_decay_check,
)

MEAN2 = "pow_mean,alpha=2"


@pytest.fixture(scope="module")
def main_run():
    """Ellipsoid (1, 1, 1.1) under the squared mean curvature, degree 24,
    contracted until the inradius falls to a tenth; criteria 6-10 and 13."""
    start = time.monotonic()
    grid = standard_grid(2, 24)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    speed = parse_speed(MEAN2, 2)
    trajectory = run_flow(body, speed, stop_fraction=0.1, snapshot_every=20)
    assert trajectory.stop_reason == "target_radius"

    from curvflow.body import pinching_status

    sigma = 1.05 * pinching_status(trajectory.snapshots[0].body, np.inf).max_ratio
    r = trajectory.r_minus()
    t0_index = int(np.nonzero(r <= 1.2 * r[-1])[0][0])
    record = diagnostics_record(trajectory, sigma=sigma, t0_index=t0_index)
    return {
        "trajectory": trajectory,
        "record": record,
        "sigma": sigma,
        "t0_index": t0_index,
        "wall": time.monotonic() - start,
    }


@pytest.fixture(scope="module")
def body_suite():
    """Unit ball, the reference ellipsoid, and 20 random pinched bodies at
    degree 32; criteria 4 and 5."""
    grid = standard_grid(2, 32)
    rng = np.random.default_rng(11)
    bodies = [make_sphere(grid, 1.0), make_ellipsoid(grid, (1.0, 1.0, 1.2))]
    bodies += [random_pinched_body(grid, rng) for _ in range(20)]
    return bodies


def test_criterion_01_sphere_contraction_matches_closed_form():
    start = time.monotonic()
    grid = standard_grid(2, 16)
    speed = parse_speed(MEAN2, 2)
    trajectory = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.2, snapshot_every=10)
    # r(t) = (1 - 12 t)**(1/3) for the unit sphere under H^2
    for snap in trajectory.snapshots:
        exact = (1.0 - 12.0 * snap.time) ** (1.0 / 3.0)
        assert abs(snap.radii.r_minus - exact) <= 1e-5 * exact
    estimate = estimate_collapse(trajectory)
    assert abs(estimate.time - 1.0 / 12.0) <= 1e-4
    assert time.monotonic() - start <= 60.0


def test_criterion_02_lemma_suites_clean_at_100k_samples():
    start = time.monotonic()
    reports = run_lemma_suites(dimensions=(2, 3, 4), samples=100_000)
    assert len(reports) == 12  # 4 suites x 3 dimensions
    for report in reports:
        assert report.violations == 0, report.summary()
    assert time.monotonic() - start <= 30.0


def test_criterion_03_speed_conditions_hold_across_the_family():
    start = time.monotonic()
    for base in ("pow_mean", "pow_Ek:2", "pow_gauss", "pow_norm"):
        for alpha in (1.5, 2.0, 3.0):
            for dimension in (2, 3):
                speed = parse_speed(f"{base},alpha={alpha}", dimension)
                report = check_conditions(speed)
                assert report.passed, f"{speed.describe()}: {report.failures()}"
                fd = next(c for c in report.checks if c.name == "gradient_fd")
                assert fd.worst_error <= 1e-5, speed.describe()
    assert time.monotonic() - start <= 60.0


def test_criterion_04_mixed_volume_routes_agree(body_suite):
    for body in body_suite:
        assert mixed_volumes(body).agreement_error() <= 1e-6
    reference = mixed_volumes(body_suite[1])  # ellipsoid (1, 1, 1.2)
    assert abs(reference.canonical[-1] - 1.2) <= 1e-6


def test_criterion_05_diskant_radii_sandwich(body_suite):
    for body in body_suite:
        report = radius_report(body)
        assert report.diskant_lower <= report.r_minus * (1.0 + 1e-3)
        assert report.r_plus <= report.diskant_upper * (1.0 + 1e-3)
    ball = radius_report(body_suite[0])
    for value in (ball.r_minus, ball.r_plus, ball.diskant_lower, ball.diskant_upper):
        assert abs(value - 1.0) <= 1e-6


def test_criterion_06_pinching_excess_stays_nonpositive(main_run):
    record = main_run["record"]
    tol = 1e-10 * main_run["sigma"] * float(np.max(record.h_max)) ** 2
    assert record.z_sigma_max[0] < 0.0
    assert np.all(record.z_sigma_max <= tol)
    assert main_run["wall"] <= 600.0


def test_criterion_07_pinching_ratio_decays(main_run):
    pinch = main_run["record"].pinch_max
    second_half = pinch[len(pinch) // 2 :]
    assert np.all(np.diff(second_half) <= 1e-10)
    assert main_run["record"].lambda_hat is not None
    assert main_run["record"].lambda_hat > 0.0


def test_criterion_08_shape_rounds_off(main_run):
    trajectory = main_run["trajectory"]
    r_minus = trajectory.r_minus()
    r_plus = trajectory.r_plus()
    ratios = r_plus / r_minus
    assert ratios[-1] < ratios[0]
    assert ratios[-1] <= 1.01
    roundness = geombound_check(r_plus, ratios, (0.01, 0.05))
    for rho in (0.01, 0.05):
        assert np.isfinite(roundness.thresholds[rho])


def test_criterion_09_rescaled_profile_flattens(main_run):
    trajectory = main_run["trajectory"]
    estimate = estimate_collapse(trajectory)
    profile = rescaled_profile(trajectory.final, estimate)
    assert np.max(np.abs(profile - 1.0)) <= 0.01


def test_criterion_10_tail_asymptotics_and_interior_bounds(main_run):
    record = main_run["record"]
    assert record.speed_exponent is not None
    assert abs(record.speed_exponent - (-2.0 / 3.0)) <= 0.05
    assert float(np.nanmin(record.smoczyk_min)) >= -1e-8
    assert not record.tso.aborted
    assert not record.tso.violated


def test_criterion_11_collapse_time_bracketed_by_sphere_lifetimes():
    grid = standard_grid(2, 12)
    speed = parse_speed(MEAN2, 2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        body = random_pinched_body(grid, rng)
        trajectory = run_flow(body, speed, stop_fraction=0.2, snapshot_every=10)
        estimate = estimate_collapse(trajectory)
        inner = sphere_lifetime(trajectory.snapshots[0].radii.r_minus, speed)
        outer = sphere_lifetime(trajectory.snapshots[0].radii.r_plus, speed)
        assert 0.98 * inner <= estimate.time <= 1.02 * outer


def test_criterion_12_curve_residual_converges_at_second_order():
    # dt scales as 1/L^2 through the step-size control of the RK4
    # reference, so doubling the band limit shrinks the time step by four;
    # order is measured in dt
    speed = parse_speed(MEAN2, 1)
    dts, residuals = [], []
    for degree in (32, 64, 128):
        grid = standard_grid(1, degree)
        trajectory = run_flow(
            make_ellipsoid(grid, (1.0, 1.2)),
            speed,
            stop_fraction=0.5,
            snapshot_every=2,
            rk4=True,
        )
        report = curve_evolution_residual(trajectory, "H")
        times = np.array([snap.time for snap in trajectory.snapshots])
        dts.append(float(np.median(np.diff(times))))
        residuals.append(float(report.residuals.max()))
    order = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
    assert order >= 1.8, f"observed order {order:.3f} from residuals {residuals}"


def test_criterion_13_volume_decay_matches_flux_integral(main_run):
    report = volume_decay_check(main_run["trajectory"])
    assert report.max_rel_error <= 1e-2

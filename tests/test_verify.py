import numpy as np
import pytest

from curvflow.flow import run_flow
from curvflow.shapes import make_ellipsoid, make_sphere
from curvflow.spectral import standard_grid
from curvflow.speeds import make_speed
from curvflow.verify import (
    _cest_sides,
    curve_evolution_residual,
    diagnostics_record,
    kappa_gap_table,
    lemma_cest_suite,
    lemma_maclaurin_suite,
    lemma_pinch_suite,
    lemma_traceless_suite,
    run_lemma_suites,
    volume_decay_check,
)

SUITES = (lemma_pinch_suite, lemma_cest_suite, lemma_traceless_suite, lemma_maclaurin_suite)


@pytest.fixture(scope="module")
def sphere_run():
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2, alpha=2.0)
    return run_flow(
        make_sphere(grid, 1.0), speed, stop_fraction=0.7, snapshot_every=1
    )


@pytest.fixture(scope="module")
def ellipsoid_run():
    grid = standard_grid(2, 12)
    speed = make_speed("mean", 2, alpha=2.0)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.15))
    return run_flow(body, speed, stop_fraction=0.65, snapshot_every=2)


@pytest.fixture(scope="module")
def circle_run():
    grid = standard_grid(1, 16)
    speed = make_speed("mean", 1, alpha=2.0)
    return run_flow(
        make_sphere(grid, 1.0), speed, stop_fraction=0.6, snapshot_every=1, rk4=True
    )


# ---------------------------------------------------------------------------
# lemma suites


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("suite", SUITES)
def test_suites_pass_clean(suite, n):
    report = suite(n, 20_000)
    assert report.passed
    assert report.violations == 0
    assert report.samples >= 20_000
    assert report.worst_margin >= -1e-12
    assert report.worst_witness.shape == (n,)
    assert np.all(report.worst_witness > 0.0)


def test_pinch_bounds_saturate_frozen_example():
    # kappa = (0.5, 1.5): eps = 0.125, sqrt(n(n-1)eps) = 0.5, so the bounds
    # (1 -/+ 0.5) H/n = 0.5 and 1.5 are attained exactly
    kappa = np.array([0.5, 1.5])
    h = kappa.sum()
    eps = np.sum((kappa - h / 2) ** 2) / h**2
    assert eps == pytest.approx(0.125, abs=0)
    lo = (1.0 - np.sqrt(2 * eps)) * h / 2
    hi = (1.0 + np.sqrt(2 * eps)) * h / 2
    assert lo == pytest.approx(0.5, abs=1e-15)
    assert hi == pytest.approx(1.5, abs=1e-15)
    # independent root route for the same factors
    roots = np.sort(np.roots([1.0, -2.0, 1.0 - 2 * eps]).real)
    assert np.allclose(roots * h / 2, [0.5, 1.5], atol=1e-12)


def test_cest_sides_frozen_example():
    lhs, rhs = _cest_sides(np.array([[0.5, 1.5]]))
    assert lhs[0] == pytest.approx(0.75, abs=1e-14)
    assert rhs[0] == pytest.approx(0.625, abs=1e-14)


def test_traceless_identity_frozen_example():
    # kappa = (1, 3): |A|^2 - H^2/2 = 10 - 8 = 2 and the pair sum gives
    # (1/2)(1 - 3)^2 = 2
    kappa = np.array([1.0, 3.0])
    h = kappa.sum()
    direct = np.sum(kappa**2) - h**2 / 2
    pairwise = 0.5 * (kappa[0] - kappa[1]) ** 2
    assert direct == pytest.approx(2.0, abs=0)
    assert pairwise == pytest.approx(2.0, abs=0)


def test_maclaurin_chain_frozen_example():
    # kappa = (1, 2, 4): E_1 = 7/3, E_2^(1/2) = sqrt(14/3), E_3^(1/3) = 2
    e1 = 7.0 / 3.0
    e2_root = np.sqrt(14.0 / 3.0)
    e3_root = 2.0
    assert e1 > e2_root > e3_root


def test_suites_reject_curves():
    for suite in SUITES:
        with pytest.raises(ValueError):
            suite(1, 10)


def test_run_lemma_suites_covers_all():
    reports = run_lemma_suites(dimensions=(2, 3), samples=2_000)
    assert len(reports) == 8
    assert {r.lemma for r in reports} == {"pinch", "cest", "traceless", "maclaurin"}
    assert all(r.passed for r in reports)
    assert "pass" in reports[0].summary()


# ---------------------------------------------------------------------------
# pinching monitors


def test_pinching_monitors_sphere(sphere_run):
    report = diagnostics_record(sphere_run, sigma=0.01)
    assert np.all(report.pinch_max <= 1e-10)
    assert np.all(report.z_sigma_max < 0.0)
    assert report.lambda_hat is None
    assert np.all(kappa_gap_table(sphere_run, (0.01, 0.05, 0.1, 0.5)) < 0.0)
    assert report.times.shape == report.h_max.shape


def test_pinching_monitors_ellipsoid(ellipsoid_run):
    first = diagnostics_record(ellipsoid_run, sigma=1.0)
    sigma = 1.05 * first.pinch_max[0]
    report = diagnostics_record(ellipsoid_run, sigma=sigma)

    assert report.z_sigma_max[0] < 0.0
    # one-signed up to roundoff relative to sigma H^2
    assert np.all(report.z_sigma_max <= 1e-10 * sigma * report.h_max**2)
    half = report.pinch_max[report.pinch_max.size // 2 :]
    assert np.all(np.diff(half) <= 1e-10)
    assert report.pinch_max[-1] < 0.5 * report.pinch_max[0]
    assert report.lambda_hat is not None and report.lambda_hat > 0.0


# ---------------------------------------------------------------------------
# Tso interior bound


def test_tso_sphere_matches_closed_form(sphere_run):
    record = diagnostics_record(sphere_run, sigma=0.01)
    report = record.tso
    r0 = report.r0
    assert r0 == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.abs(report.origin) < 1e-6)
    assert not report.aborted
    assert not record.tso_violated
    q_max, bound = record.q_max[record.tso_window], record.q_bound[record.tso_window]
    assert np.isinf(bound[0])
    assert np.all(np.isfinite(bound[1:]))

    radii = sphere_run.r_minus()
    expected = 4.0 * radii**-2 / (2.0 * radii - r0)
    assert np.allclose(q_max, expected, rtol=1e-5)
    # Q grows as the sphere shrinks toward the validity edge
    assert np.all(np.diff(q_max) > 0.0)


def test_tso_aborts_past_half_inradius():
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2, alpha=2.0)
    run = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.4, snapshot_every=1)
    record = diagnostics_record(run, sigma=0.01)
    report = record.tso
    assert report.aborted
    assert report.abort_index is not None
    assert report.abort_witness is not None and report.abort_witness[1] <= 0.0
    assert record.q_max[record.tso_window].size == report.abort_index
    assert np.all(np.isfinite(record.q_max[record.tso_window]))
    assert run.r_minus()[report.abort_index] <= 0.5 + 1e-6
    # the Tso columns stop at the abort, the enclosed-point column does not
    assert np.all(np.isnan(record.q_max[report.abort_index :]))
    assert np.all(np.isnan(record.q_bound[report.abort_index :]))
    assert np.all(np.isfinite(record.smoczyk_min))


def test_tso_anchor_out_of_range(sphere_run):
    with pytest.raises(IndexError):
        diagnostics_record(sphere_run, sigma=0.01, t0_index=len(sphere_run.snapshots))


# ---------------------------------------------------------------------------
# enclosed-point expansion


def test_smoczyk_sphere_matches_closed_form(sphere_run):
    margins = diagnostics_record(sphere_run, sigma=0.01).smoczyk_min
    radii = sphere_run.r_minus()
    times = sphere_run.times()
    expected = radii + 3.0 * times * 4.0 * radii**-2
    assert np.allclose(margins, expected, rtol=1e-4)
    assert margins.min() > 0.0


# ---------------------------------------------------------------------------
# speed lower-bound fit


def test_speed_fit_sphere_exponent(sphere_run):
    report = diagnostics_record(sphere_run, sigma=0.01)
    assert report.speed_exponent == pytest.approx(-2.0 / 3.0, abs=0.02)
    assert report.expected_exponent == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert np.all(report.f_min > 0.0)


def test_speed_fit_unavailable_with_few_snapshots():
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2, alpha=2.0)
    run = run_flow(make_sphere(grid, 1.0), speed, snapshot_every=10, max_steps=20)
    report = diagnostics_record(run, sigma=0.01)
    assert report.speed_exponent is None


# ---------------------------------------------------------------------------
# curve evolution residuals


def test_curve_residual_small_and_refining(circle_run):
    report = curve_evolution_residual(circle_run)
    assert report.times.size == len(circle_run.snapshots) - 2
    assert report.residuals.max() < 0.05
    assert report.residuals[0] < 1e-3

    fine_grid = standard_grid(1, 32)
    speed = make_speed("mean", 1, alpha=2.0)
    fine_run = run_flow(
        make_sphere(fine_grid, 1.0), speed, stop_fraction=0.6, snapshot_every=1, rk4=True
    )
    fine = curve_evolution_residual(fine_run)
    # RK4's dt scales with the grid spacing squared, the stencil error with dt^2
    assert fine.residuals.max() < report.residuals.max() / 8.0


def test_curve_residual_rejects_bad_input(sphere_run, circle_run):
    with pytest.raises(ValueError):
        curve_evolution_residual(sphere_run)
    grid = standard_grid(1, 16)
    speed = make_speed("mean", 1, alpha=2.0)
    short = run_flow(make_sphere(grid, 1.0), speed, snapshot_every=10, max_steps=5)
    with pytest.raises(ValueError):
        curve_evolution_residual(short)


# ---------------------------------------------------------------------------
# volume decay identity


def test_volume_decay_sphere_exact(sphere_run):
    report = volume_decay_check(sphere_run)
    # V(t) = 1 - 12t is linear, so the central difference is exact and the
    # integral rate is 12 on the nose
    assert np.allclose(report.predicted, -12.0, rtol=1e-9)
    assert report.max_rel_error < 1e-6


def test_volume_decay_ellipsoid_within_percent(ellipsoid_run):
    report = volume_decay_check(ellipsoid_run)
    assert report.max_rel_error < 1e-2
    assert np.all(report.measured < 0.0)


# ---------------------------------------------------------------------------
# aggregated diagnostics


def test_diagnostics_record_alignment(ellipsoid_run):
    first = diagnostics_record(ellipsoid_run, sigma=1.0)
    sigma = 1.05 * first.pinch_max[0]
    record = diagnostics_record(ellipsoid_run, sigma=sigma)

    count = len(ellipsoid_run.snapshots)
    for arr in (
        record.times,
        record.h_max,
        record.f_min,
        record.f_max,
        record.pinch_max,
        record.z_sigma_max,
        record.q_max,
        record.q_bound,
        record.smoczyk_min,
    ):
        assert arr.shape == (count,)
    assert np.all(np.isfinite(record.q_max))
    assert np.all(record.smoczyk_min > 0.0)
    assert np.all(record.f_min <= record.f_max)
    assert np.all(record.f_min > 0.0)
    assert record.lambda_hat is not None and record.lambda_hat > 0.0
    assert record.speed_exponent == pytest.approx(-2.0 / 3.0, abs=0.1)
    assert record.collapse is not None and record.collapse.time > record.times[-1]
    assert not record.tso_violated
    assert record.sigma == pytest.approx(sigma)

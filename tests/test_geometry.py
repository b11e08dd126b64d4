from decimal import Decimal, getcontext

import numpy as np
import pytest

from curvflow.body import CurvatureField, curvature, recenter, translate
from curvflow.geometry import (
    MixedVolumes,
    diskant_bounds,
    direct_radii,
    ek_comparison_margin,
    geombound_check,
    mixed_volumes,
    mixed_volumes_radii,
    mixed_volumes_support,
    radius_report,
    volume_decay_rate,
)
from curvflow.shapes import make_ellipsoid, make_perturbed_sphere, make_sphere, random_pinched_body
from curvflow.speeds import make_speed
from curvflow.spectral import standard_grid


def test_ball_mixed_volumes_n2():
    grid = standard_grid(2, 8)
    ball = make_sphere(grid, 2.0)
    np.testing.assert_allclose(mixed_volumes_radii(ball), [1.0, 2.0, 4.0], rtol=1e-10)
    np.testing.assert_allclose(mixed_volumes_support(ball), [2.0, 4.0, 8.0], rtol=1e-10)
    mv = mixed_volumes(ball)
    np.testing.assert_allclose(mv.canonical, [1.0, 2.0, 4.0, 8.0], rtol=1e-10)
    assert mv.agreement_error() < 1e-12


def test_ball_mixed_volumes_n1():
    grid = standard_grid(1, 8)
    mv = mixed_volumes(make_sphere(grid, 2.0))
    np.testing.assert_allclose(mv.canonical, [1.0, 2.0, 4.0], rtol=1e-12)


def test_ellipsoid_volume():
    # volume of an ellipsoid over the unit ball is the product of semi-axes
    grid = standard_grid(2, 32)
    mv = mixed_volumes(make_ellipsoid(grid, (1.0, 1.0, 1.2)))
    assert mv.canonical[3] == pytest.approx(1.2, rel=1e-6)


def test_ellipse_area_n1():
    grid = standard_grid(1, 32)
    mv = mixed_volumes(make_ellipsoid(grid, (1.0, 1.3)))
    assert mv.canonical[2] == pytest.approx(1.3, rel=1e-8)


def test_two_routes_agree():
    grid = standard_grid(2, 16)
    rng = np.random.default_rng(21)
    bodies = [make_ellipsoid(grid, (1.0, 1.1, 1.25))]
    bodies += [random_pinched_body(grid, rng) for _ in range(5)]
    for body in bodies:
        assert mixed_volumes(body).agreement_error() < 1e-8


def test_route_mismatch_raises():
    grid = standard_grid(2, 8)
    ball = make_sphere(grid, 1.0)
    with pytest.raises(RuntimeError):
        mixed_volumes(ball, check_tol=1e-18)


def test_support_route_translation_invariant():
    grid = standard_grid(2, 16)
    body = random_pinched_body(grid, np.random.default_rng(5))
    moved = translate(body, np.array([0.1, -0.05, 0.2]))
    np.testing.assert_allclose(
        mixed_volumes_support(moved), mixed_volumes_support(body), rtol=1e-9
    )


def test_iso_ratio():
    grid = standard_grid(2, 16)
    assert mixed_volumes(make_sphere(grid, 1.7)).iso_ratio == pytest.approx(1.0, abs=1e-9)
    assert mixed_volumes(make_ellipsoid(grid, (1.0, 1.0, 1.3))).iso_ratio > 1.0


def test_direct_radii_ball():
    grid = standard_grid(2, 12)
    center = np.array([0.3, -0.2, 0.1])
    ball = make_sphere(grid, 1.5, center=center)
    est = direct_radii(ball)
    assert est.r_minus == pytest.approx(1.5, abs=1e-8)
    assert est.r_plus == pytest.approx(1.5, abs=1e-8)
    np.testing.assert_allclose(est.incenter, center, atol=1e-7)
    np.testing.assert_allclose(est.circumcenter, center, atol=1e-7)
    assert est.ratio == pytest.approx(1.0, abs=1e-8)


def test_direct_radii_ellipsoid():
    grid = standard_grid(2, 32)
    est = direct_radii(make_ellipsoid(grid, (1.0, 1.0, 1.2)))
    assert est.r_minus == pytest.approx(1.0, abs=5e-3)
    assert est.r_plus == pytest.approx(1.2, abs=5e-3)
    # binding directions sit on the equator, so the center is only pinned
    # along the symmetry axis up to the sampling resolution
    np.testing.assert_allclose(est.incenter[:2], 0.0, atol=1e-6)
    assert abs(est.incenter[2]) < 0.03


def test_direct_radii_ellipse_n1():
    grid = standard_grid(1, 32)
    est = direct_radii(make_ellipsoid(grid, (1.0, 1.4)))
    assert est.r_minus == pytest.approx(1.0, abs=5e-3)
    assert est.r_plus == pytest.approx(1.4, abs=5e-3)


def test_direct_radii_against_dense_sampling():
    # LP over grid directions vs brute force over a 10x denser direction set
    grid = standard_grid(2, 16)
    body, shift = recenter(make_perturbed_sphere(grid, 1.0, [(4, 0, 0.05)]))
    est = direct_radii(body)

    rng = np.random.default_rng(0)
    dense = rng.standard_normal((20000, 3))
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    # closed form of 1 + 0.05 Y_40, moved by the recentering shift
    z = dense[:, 2]
    y40 = np.sqrt(9.0 / (4.0 * np.pi)) * (35.0 * z**4 - 30.0 * z**2 + 3.0) / 8.0
    s_dense = 1.0 + 0.05 * y40 - dense @ shift
    # inscribed ball about the LP incenter must fit under the dense support
    dense_r_in = float(np.min(s_dense - dense @ est.incenter))
    assert est.r_minus >= dense_r_in - 1e-9
    assert est.r_minus <= dense_r_in + 5e-3
    assert np.min(body.values) <= est.r_plus <= np.max(body.values) + 1e-12


def test_diskant_ball_tight():
    grid = standard_grid(2, 12)
    bounds = diskant_bounds(mixed_volumes(make_sphere(grid, 1.0)))
    assert bounds.lower == pytest.approx(1.0, abs=1e-6)
    assert bounds.upper == pytest.approx(1.0, abs=1e-6)


def test_diskant_formula_high_precision():
    # V_1 = V_2 = 1.01, V_3 = 1, n = 2, against 50-digit decimal arithmetic
    mv = MixedVolumes(
        radii_route=np.array([1.0, 1.01, 1.01]),
        support_route=np.array([1.01, 1.01, 1.0]),
        canonical=np.array([1.0, 1.01, 1.01, 1.0]),
    )
    bounds = diskant_bounds(mv)

    getcontext().prec = 50
    v = Decimal("1.01")

    def dpow(x: Decimal, num: int, den: int) -> Decimal:
        return ((x.ln() * num) / den).exp()

    lower = dpow(v, 1, 2) - dpow(dpow(v, 3, 2) - 1, 1, 3)
    upper = 1 / lower
    assert bounds.lower == pytest.approx(float(lower), rel=1e-13)
    assert bounds.upper == pytest.approx(float(upper), rel=1e-13)
    assert not bounds.clamped


def test_diskant_clamps_roundoff_radicand():
    eps = 1e-15
    mv = MixedVolumes(
        radii_route=np.array([1.0, 1.0 - eps, 1.0]),
        support_route=np.array([1.0 - eps, 1.0, 1.0]),
        canonical=np.array([1.0, 1.0 - eps, 1.0, 1.0]),
    )
    bounds = diskant_bounds(mv)
    assert bounds.clamped
    assert bounds.lower == pytest.approx(1.0, abs=1e-9)


def test_diskant_sandwich():
    grid = standard_grid(2, 16)
    rng = np.random.default_rng(33)
    bodies = [make_ellipsoid(grid, (1.0, 1.05, 1.15))]
    bodies += [random_pinched_body(grid, rng) for _ in range(5)]
    for body in bodies:
        report = radius_report(body)
        assert report.diskant_lower <= report.r_minus * (1.0 + 1e-3)
        assert report.r_plus <= report.diskant_upper * (1.0 + 1e-3)
        assert report.r_minus <= report.r_plus


def test_geombound_thresholds():
    r_plus = np.array([2.0, 1.5, 1.1, 0.8, 0.5])
    ratio = np.array([1.20, 1.08, 1.04, 1.02, 1.005])
    result = geombound_check(r_plus, ratio, rho_grid=[0.01, 0.05, 0.5])
    # smallest circumradius among snapshots violating each roundness level
    assert result.thresholds[0.01] == pytest.approx(0.8)
    assert result.thresholds[0.05] == pytest.approx(1.5)
    assert result.thresholds[0.5] == np.inf
    assert result.ratio_monotone

    wiggly = geombound_check(r_plus, ratio[::-1], rho_grid=[0.01])
    assert not wiggly.ratio_monotone


def test_ek_margin_value():
    # kappa = (0.5, 1.5): E_1 = 1, E_2 = 0.75, margin = 1 - 1.1 sqrt(0.75)
    curv = CurvatureField(
        kappa=np.array([[0.5, 1.5]]),
        radii_sigma=np.array([[1.0, 8.0 / 3.0, 4.0 / 3.0]]),
        elementary=np.array([[1.0, 1.0, 0.75]]),
        mean=np.array([2.0]),
        traceless_norm2=np.array([0.5]),
    )
    margin = ek_comparison_margin(curv, 1, 2, 0.1)
    assert margin == pytest.approx(1.0 - 1.1 * np.sqrt(0.75), rel=1e-12)
    with pytest.raises(ValueError):
        ek_comparison_margin(curv, 2, 2, 0.1)


def test_ek_margin_sphere_is_minus_eps():
    grid = standard_grid(2, 8)
    curv = curvature(make_sphere(grid, 1.0))
    assert ek_comparison_margin(curv, 1, 2, 0.3) == pytest.approx(-0.3, abs=1e-12)


def test_volume_decay_rate_on_spheres():
    # F = n^alpha r^-alpha and area element r^n give (n+1) n^alpha r^(n-alpha)
    for n, degree in ((1, 8), (2, 8)):
        grid = standard_grid(n, degree)
        speed = make_speed("mean", n, alpha=2.0)
        for radius in (1.0, 0.5):
            ball = make_sphere(grid, radius)
            curv = curvature(ball)
            rate = volume_decay_rate(ball, curv, speed.value(curv.kappa))
            expected = (n + 1) * n**2.0 * radius ** (n - 2.0)
            assert rate == pytest.approx(expected, rel=1e-10)

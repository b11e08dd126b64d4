from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from curvflow import geometry
from curvflow.body import (
    curvature,
    support_from_coefficients,
    support_from_values,
)
from curvflow.geometry import (
    MixedVolumes,
    RadiiSolver,
    diskant_bounds,
    direct_radii,
    geombound_check,
    mixed_volumes,
    mixed_volumes_radii,
    mixed_volumes_support,
    volume_decay_rate,
)
from curvflow.shapes import (
    harmonic_index,
    make_ellipsoid,
    make_perturbed_sphere,
    make_sphere,
    parse_shape,
)
from curvflow.speeds import make_speed
from curvflow.spectral import standard_grid

from _helpers import random_pinched_body, radius_report


def translate(body, offset):
    """Support function of the body translated by ``offset``."""
    return support_from_values(body.grid, body.values + body.grid.nodes @ offset)


def recenter(body):
    """The body moved so that its Steiner point, (n+1)/|S^n| times the first
    moment of s, is the origin, and that point."""
    grid = body.grid
    point = (grid.dimension + 1) / grid.sphere_area * (grid.weights * body.values) @ grid.nodes
    return translate(body, -point), point


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
    # binding directions sit on the equator, so the optimal centres form a
    # segment along the symmetry axis; the canonical centre is its midpoint,
    # the origin up to rounding
    np.testing.assert_allclose(est.incenter[:2], 0.0, atol=1e-12)
    assert abs(est.incenter[2]) < 1e-12


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


# HiGHS's defaults (1e-7) let a near-ball's reported inradius exceed what its
# own centre allows by 4e-8; its tightest tolerances shrink that, but at a
# perturbation of 1e-9 it is still 4e-11
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _highs_radii(body):
    """r_- and r_+ from scipy's HiGHS, the reference for the dual simplex, each
    with the amount by which HiGHS's own centre misses its reported radius."""
    nodes, s = body.grid.nodes, body.values
    m, d = nodes.shape
    rows = np.column_stack([nodes, np.ones(m)])
    kwargs = {"bounds": [(None, None)] * d + [(0.0, None)], "method": "highs", "options": _HIGHS_OPTIONS}
    inner = linprog(np.append(np.zeros(d), -1.0), A_ub=rows, b_ub=s, **kwargs)
    outer = linprog(np.append(np.zeros(d), 1.0), A_ub=-rows, b_ub=-s, **kwargs)
    assert inner.success and outer.success
    r_minus, r_plus = inner.x[-1], outer.x[-1]
    miss_minus = max(r_minus - np.min(s - nodes @ inner.x[:-1]), 0.0)
    miss_plus = max(np.max(s - nodes @ outer.x[:-1]) - r_plus, 0.0)
    return r_minus, r_plus, miss_minus, miss_plus


@st.composite
def _lp_bodies(draw):
    """A sphere or ellipsoid plus a small perturbation of degree <= 4, translated."""
    n = draw(st.sampled_from([1, 2]))
    grid = standard_grid(n, 16 if n == 1 else 8)
    size = st.floats(0.5, 2.0)
    axes = [draw(size)] * (n + 1) if draw(st.booleans()) else [draw(size) for _ in range(n + 1)]
    coefficients = make_ellipsoid(grid, axes).coefficients.copy()
    for _ in range(draw(st.integers(0, 3))):
        degree_l = draw(st.integers(0, 4))
        top = min(degree_l, 1) if n == 1 else degree_l
        order_m = draw(st.integers(-top, top))
        coefficients[harmonic_index(n, degree_l, order_m)] += draw(st.floats(-0.02, 0.02)) * min(axes)
    offset = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(n + 1)])
    return translate(support_from_coefficients(grid, coefficients), offset)


@settings(deadline=None, max_examples=60)
@given(body=_lp_bodies(), shift=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
def test_direct_radii_match_highs_and_follow_translations(body, shift):
    nodes, s = body.grid.nodes, body.values
    scale = float(np.max(np.abs(s)))
    est = direct_radii(body)
    r_minus, r_plus, miss_minus, miss_plus = _highs_radii(body)
    assert abs(est.r_minus - r_minus) <= 1e-12 * scale + miss_minus
    assert abs(est.r_plus - r_plus) <= 1e-12 * scale + miss_plus
    # the centres lie in the optimal face thickened by a slack of 1e-12 r
    assert np.min(s - nodes @ est.incenter) >= est.r_minus - 2e-12 * scale
    assert np.max(s - nodes @ est.circumcenter) <= est.r_plus + 2e-12 * scale

    offset = np.array(shift[: nodes.shape[1]])
    moved = direct_radii(translate(body, offset))
    np.testing.assert_allclose(moved.incenter, est.incenter + offset, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        moved.circumcenter, est.circumcenter + offset, rtol=0, atol=1e-12 * scale
    )


def test_canonical_centres_are_optimal_on_a_2d_optimal_set():
    # both programs' optimal centres form a 2-D set here, and the midpoints of
    # the coordinate ranges taken independently miss a node by 4e-5; taken in
    # turn, each within the slice the earlier ones fix, they stay optimal
    grid = standard_grid(2, 8)
    body = parse_shape("sphere 1.5973 + Y(4,3)*-0.012 + Y(2,-1)*-0.005 + Y(3,-1)*5.33e-05", grid)
    est = direct_radii(body)
    s, nodes = body.values, grid.nodes
    assert np.min(s - nodes @ est.incenter) >= est.r_minus - 1e-12
    assert np.max(s - nodes @ est.circumcenter) <= est.r_plus + 1e-12


def _drifting_ellipsoids(count=12):
    grid = standard_grid(2, 12)
    for k in range(count):
        body = make_ellipsoid(grid, (1.0, 1.0 + 0.01 * k, 1.1 + 0.02 * k))
        yield translate(body, 0.01 * k * np.array([1.0, -2.0, 0.5]))


def _assert_same_radii(a, b, atol=1e-12):
    assert abs(a.r_minus - b.r_minus) <= atol
    assert abs(a.r_plus - b.r_plus) <= atol
    np.testing.assert_allclose(a.incenter, b.incenter, rtol=0, atol=atol)
    np.testing.assert_allclose(a.circumcenter, b.circumcenter, rtol=0, atol=atol)


def test_warm_and_cold_solves_agree():
    warm = RadiiSolver()
    cold_pivots = 0
    for body in _drifting_ellipsoids():
        cold = RadiiSolver()
        _assert_same_radii(warm.radii(body), cold.radii(body))
        cold_pivots += cold.pivots
    # each warm solve starts from the previous body's optimal bases
    assert warm.pivots < cold_pivots / 3
    assert warm.restarts == 0


def test_centres_read_out_of_order_match_cold_solves():
    warm = RadiiSolver()
    bodies = list(_drifting_ellipsoids())
    solved = [warm.radii(body) for body in bodies]
    for i in (7, 3, 11, 0, 7):
        _assert_same_radii(solved[i], RadiiSolver().radii(bodies[i]))


def test_centre_read_on_a_moved_solver_is_unchanged():
    body = make_ellipsoid(standard_grid(2, 12), (1.0, 1.1, 1.3))
    other = make_ellipsoid(standard_grid(2, 8), (1.2, 1.0, 1.1))
    solver = RadiiSolver()
    est = solver.radii(body)
    other_est = solver.radii(other)  # the solver moves to the degree-8 grid
    reference = RadiiSolver().radii(body)
    np.testing.assert_array_equal(est.incenter, reference.incenter)
    np.testing.assert_array_equal(est.circumcenter, reference.circumcenter)
    # and back again, for the body on the degree-8 grid
    np.testing.assert_array_equal(other_est.incenter, RadiiSolver().radii(other).incenter)


def test_a_body_holding_no_ball_fails_before_any_centre_read():
    grid = standard_grid(2, 8)
    with pytest.raises(RuntimeError, match="hold no ball"):
        direct_radii(support_from_values(grid, np.full(grid.nodes.shape[0], -1.0)))


def test_centres_are_read_only():
    est = direct_radii(next(_drifting_ellipsoids(1)))
    for centre in (est.incenter, est.circumcenter):
        with pytest.raises(ValueError):
            centre[0] = 1.0


def test_bland_rule_path_matches_highs(monkeypatch):
    monkeypatch.setattr(geometry, "_STALL_PIVOTS", 0)  # Bland's rule from the first pivot
    solver = RadiiSolver()
    for body in _drifting_ellipsoids(4):
        est = solver.radii(body)
        r_minus, r_plus, _, _ = _highs_radii(body)
        assert est.r_minus == pytest.approx(r_minus, abs=1e-12)
        assert est.r_plus == pytest.approx(r_plus, abs=1e-12)
    assert solver.pivots > 0


def test_bad_bases_restart_cold():
    body = next(_drifting_ellipsoids(1))
    solver = RadiiSolver()
    reference = solver.radii(body)
    nodes = body.grid.nodes
    singular = np.array([0, 0, 1, 2])
    one_side = np.argsort(nodes @ np.array([1.0, 0.3, 0.1]))[-4:]  # the origin lies outside their hull
    solver._bases[("inradius",)] = (singular, None)
    solver._bases[("circumradius",)] = (one_side, None)
    solver._bases[("inradius", 2, 1)] = (np.array([5, 5, 7]), None)
    _assert_same_radii(solver.radii(body), reference, atol=1e-14)
    assert solver.restarts == 3
    r_minus, r_plus, _, _ = _highs_radii(body)
    assert reference.r_minus == pytest.approx(r_minus, abs=1e-12)
    assert reference.r_plus == pytest.approx(r_plus, abs=1e-12)


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="inradius LP failed"):
        direct_radii(make_ellipsoid(standard_grid(2, 12), (1.0, 1.0, 1.1)))


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

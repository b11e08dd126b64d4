"""Checks for the spectral basis, quadrature, and tangential derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvflow.spectral import (
    SphereGrid,
    TruncatedEvaluator,
    analyze,
    coefficient_count,
    directional_state,
    evaluate,
    field_from_coefficients,
    field_from_values,
    random_rotation,
    rotate_field,
    sphere_area,
    standard_grid,
    synthesize,
    tangential_derivatives,
    third_derivatives,
)

# ---------------------------------------------------------------------------
# round trips and normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2])
def test_analyze_synthesize_round_trip(dimension):
    grid = standard_grid(dimension, 16)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(grid.coefficient_count)
    back = analyze(grid, synthesize(grid, coeffs))
    assert np.max(np.abs(back - coeffs)) < 1e-10 * max(1.0, np.max(np.abs(coeffs)))


@pytest.mark.parametrize("dimension", [1, 2])
def test_constant_field_is_pure_degree_zero(dimension):
    grid = standard_grid(dimension, 8)
    coeffs = analyze(grid, np.ones(grid.node_count))
    assert abs(coeffs[0] - np.sqrt(sphere_area(dimension))) < 1e-12
    assert np.max(np.abs(coeffs[1:])) < 1e-12

    # degree-0 coefficient a synthesizes to the constant a * Y_0
    a = 2.5
    vals = synthesize(grid, np.append(a, np.zeros(grid.coefficient_count - 1)))
    np.testing.assert_allclose(vals, a / np.sqrt(sphere_area(dimension)), rtol=0, atol=1e-14)


def test_affine_support_closed_form():
    # s(u) = 2 + 0.1 u_z stays exact through analysis and resynthesis
    grid = standard_grid(2, 16)
    vals = 2.0 + 0.1 * grid.nodes[:, 2]
    f = field_from_values(grid, vals)
    np.testing.assert_allclose(f.values, vals, rtol=0, atol=1e-12)

    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    np.testing.assert_allclose(
        evaluate(f, dirs), 2.0 + 0.1 * dirs[:, 2], rtol=0, atol=1e-12
    )


def test_parseval_pairing():
    # quadrature is exact on products of two band-limited fields
    for dimension in (1, 2):
        grid = standard_grid(dimension, 12)
        rng = np.random.default_rng(11 + dimension)
        c1 = rng.standard_normal(grid.coefficient_count)
        c2 = rng.standard_normal(grid.coefficient_count)
        v1, v2 = synthesize(grid, c1), synthesize(grid, c2)
        quad = np.sum(grid.weights * v1 * v2)
        assert abs(quad - np.dot(c1, c2)) < 1e-10 * max(1.0, abs(np.dot(c1, c2)))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_circle_harmonic_identity():
    # s = cos(theta) solves s'' + s = 0
    grid = standard_grid(1, 8)
    f = field_from_values(grid, np.cos(grid.theta))
    _, hess = tangential_derivatives(f)
    np.testing.assert_allclose(hess[:, 0, 0] + f.values, 0.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_linear_field_has_vanishing_radii_matrix(axis):
    # s = <p, u>: covariant Hessian + s * metric = 0 (support function of a point)
    grid = standard_grid(2, 10)
    f = field_from_values(grid, grid.nodes[:, axis])
    _, hess = tangential_derivatives(f)
    radii = hess + f.values[:, None, None] * np.eye(2)
    assert np.max(np.abs(radii)) < 1e-10


def test_zonal_quadratic_hessian_closed_form():
    # s = cos^2(theta): Hess_tt = -2cos(2 theta), Hess_pp = -2cos^2,
    # off-diagonal zero, trace equals the Laplacian 2 - 6 cos^2.
    grid = standard_grid(2, 12)
    ct = np.cos(grid.theta)
    f = field_from_values(grid, ct**2)
    _, hess = tangential_derivatives(f)
    np.testing.assert_allclose(hess[:, 0, 0], -2.0 * np.cos(2 * grid.theta), atol=1e-11)
    np.testing.assert_allclose(hess[:, 1, 1], -2.0 * ct**2, atol=1e-11)
    np.testing.assert_allclose(hess[:, 0, 1], 0.0, atol=1e-11)
    np.testing.assert_allclose(
        hess[:, 0, 0] + hess[:, 1, 1], 2.0 - 6.0 * ct**2, atol=1e-11
    )


@pytest.mark.parametrize("dimension", [1, 2])
def test_divergence_identity(dimension):
    # integral of (trace Hess + n g) equals n * mean(g) * |S^n|
    grid = standard_grid(dimension, 12)
    rng = np.random.default_rng(5 + dimension)
    f = field_from_coefficients(grid, rng.standard_normal(grid.coefficient_count))
    _, hess = tangential_derivatives(f)
    n = grid.dimension
    lhs = np.sum(grid.weights * (np.trace(hess, axis1=1, axis2=2) + n * f.values))
    mean = np.sum(grid.weights * f.values) / grid.sphere_area
    assert abs(lhs - n * mean * grid.sphere_area) < 1e-9 * max(1.0, abs(mean))


# ---------------------------------------------------------------------------
# rotation equivariance
# ---------------------------------------------------------------------------


def _ambient_hessian(hess_frame, frames):
    return np.einsum("pab,pax,pby->pxy", hess_frame, frames, frames)


def test_rotation_commutes_with_differentiation():
    grid = standard_grid(2, 10)
    rng = np.random.default_rng(17)
    f = field_from_coefficients(grid, rng.standard_normal(grid.coefficient_count))
    for _ in range(10):
        rot = random_rotation(rng, 3)
        rotated = rotate_field(f, rot)

        # route 1: rotate coefficients, differentiate on the grid
        grad_frame, hess_frame = tangential_derivatives(rotated)
        frames = grid.frames()
        grad1 = np.einsum("pa,pax->px", grad_frame, frames)
        hess1 = _ambient_hessian(hess_frame, frames)

        # route 2: differentiate the original at rotated points, rotate back
        state = directional_state(f, grid.nodes @ rot)
        grad2 = state.gradient_ambient @ rot.T
        hess2 = np.einsum(
            "xy,pyz,wz->pxw", rot, _ambient_hessian(state.hessian_frame, state.frames), rot
        )

        np.testing.assert_allclose(rotated.values, evaluate(f, grid.nodes @ rot), atol=1e-8)
        np.testing.assert_allclose(grad1, grad2, atol=1e-8)
        np.testing.assert_allclose(hess1, hess2, atol=1e-8)


def test_circle_rotation_commutes():
    grid = standard_grid(1, 10)
    rng = np.random.default_rng(23)
    f = field_from_coefficients(grid, rng.standard_normal(grid.coefficient_count))
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    rotated = rotate_field(f, rot)
    np.testing.assert_allclose(rotated.values, evaluate(f, grid.nodes @ rot), atol=1e-9)


# ---------------------------------------------------------------------------
# pole handling
# ---------------------------------------------------------------------------


def test_pole_state_is_chart_independent():
    grid = standard_grid(2, 8)
    rng = np.random.default_rng(29)
    f = field_from_coefficients(grid, rng.standard_normal(grid.coefficient_count))

    dirs = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [1e-3, 0.0, np.sqrt(1 - 1e-6)],
        ]
    )
    state = directional_state(f, dirs)

    # same invariants computed in an unrelated chart: rotate the whole problem
    rot = random_rotation(rng, 3)
    f_rot = rotate_field(f, rot.T)  # f_rot(v) = f(rot v)
    state_rot = directional_state(f_rot, dirs @ rot)  # v = rot^T u

    np.testing.assert_allclose(state.values, state_rot.values, atol=1e-9)
    np.testing.assert_allclose(
        np.linalg.norm(state.gradient_ambient, axis=1),
        np.linalg.norm(state_rot.gradient_ambient, axis=1),
        atol=1e-8,
    )
    ev1 = np.sort(np.linalg.eigvalsh(state.hessian_frame), axis=1)
    ev2 = np.sort(np.linalg.eigvalsh(state_rot.hessian_frame), axis=1)
    np.testing.assert_allclose(ev1, ev2, atol=1e-8)

    # frames returned near the pole are genuine orthonormal tangent frames
    for i in range(len(dirs)):
        fr = state.frames[i]
        np.testing.assert_allclose(fr @ fr.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fr @ dirs[i], 0.0, atol=1e-12)


def test_zonal_field_pole_values():
    # f = u_z^2: at the poles the gradient vanishes and the Hessian is -2 I
    # (from f = cos^2 theta, Hessian eigenvalues -2 cos 2t and -2 cos^2 t).
    grid = standard_grid(2, 8)
    f = field_from_values(grid, grid.nodes[:, 2] ** 2)
    state = directional_state(f, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    np.testing.assert_allclose(state.values, 1.0, atol=1e-10)
    np.testing.assert_allclose(state.gradient_ambient, 0.0, atol=1e-9)
    np.testing.assert_allclose(
        state.hessian_frame, np.broadcast_to(-2.0 * np.eye(2), (2, 2, 2)), atol=1e-9
    )


# ---------------------------------------------------------------------------
# third derivatives
# ---------------------------------------------------------------------------


def test_third_derivative_against_finite_differences():
    grid = standard_grid(2, 8)
    rng = np.random.default_rng(31)
    f = field_from_coefficients(grid, rng.standard_normal(grid.coefficient_count))
    t = third_derivatives(f)

    # interior nodes only; compare against centered differences of the
    # Hessian component functions over the (theta, phi) chart
    mask = (grid.theta > 0.4) & (grid.theta < np.pi - 0.4)
    idx = np.flatnonzero(mask)[::17]
    theta, phi = grid.theta[idx], grid.phi[idx]
    h = 1e-5

    def hess_at(th, ph):
        dirs = np.column_stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        )
        return directional_state(f, dirs).hessian_frame

    d1_fd = (hess_at(theta + h, phi) - hess_at(theta - h, phi)) / (2 * h)
    d2_fd = (hess_at(theta, phi + h) - hess_at(theta, phi - h)) / (
        2 * h * np.sin(theta)[:, None, None]
    )

    _, hess = tangential_derivatives(f)
    hess = hess[idx]
    cot = (np.cos(theta) / np.sin(theta))[:, None, None]
    scale = np.max(np.abs(t))

    np.testing.assert_allclose(t[idx, 0], d1_fd, atol=1e-5 * scale)
    # undo the connection correction to recover the raw frame derivative
    corr = np.empty_like(hess)
    corr[:, 0, 0] = -2 * cot[:, 0, 0] * hess[:, 0, 1]
    corr[:, 0, 1] = cot[:, 0, 0] * (hess[:, 0, 0] - hess[:, 1, 1])
    corr[:, 1, 0] = corr[:, 0, 1]
    corr[:, 1, 1] = 2 * cot[:, 0, 0] * hess[:, 0, 1]
    np.testing.assert_allclose(t[idx, 1] - corr, d2_fd, atol=1e-5 * scale)


def test_third_derivative_vanishes_for_linear_field():
    grid = standard_grid(2, 8)
    f = field_from_values(grid, 0.3 * grid.nodes[:, 0] - 0.2 * grid.nodes[:, 2])
    t = third_derivatives(f)
    # Hess of <p,u> is -<p,u> g; its covariant derivative is -grad <p,u> g
    grad, _ = tangential_derivatives(f)
    expect = -np.einsum("pa,bc->pabc", grad, np.eye(2))
    np.testing.assert_allclose(t, expect, atol=1e-9)


# ---------------------------------------------------------------------------
# truncated evaluation on a finer grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2])
def test_truncated_state_matches_padded_field(dimension):
    from curvflow.shapes import resample

    coarse = standard_grid(dimension, 6)
    fine = standard_grid(dimension, 12)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(coarse.coefficient_count) * 0.1
    coeffs[0] += 3.0

    ev = TruncatedEvaluator(fine, 6)
    values, grad, hess = ev.state(coeffs)

    padded = resample(field_from_coefficients(coarse, coeffs), fine)
    ref_grad, ref_hess = tangential_derivatives(padded)
    np.testing.assert_allclose(values, padded.values, rtol=0, atol=1e-11)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-9)
    np.testing.assert_allclose(hess, ref_hess, rtol=0, atol=1e-8)


@pytest.mark.parametrize("dimension", [1, 2])
def test_truncated_project_recovers_leading_coefficients(dimension):
    coarse = standard_grid(dimension, 5)
    fine = standard_grid(dimension, 10)
    rng = np.random.default_rng(4)
    fine_coeffs = rng.standard_normal(fine.coefficient_count)

    ev = TruncatedEvaluator(fine, 5)
    projected = ev.project(synthesize(fine, fine_coeffs))
    np.testing.assert_allclose(
        projected, fine_coeffs[: coarse.coefficient_count], rtol=0, atol=1e-12
    )


def test_truncated_rejects_bad_shapes():
    fine = standard_grid(2, 8)
    with pytest.raises(ValueError):
        TruncatedEvaluator(fine, 9)
    ev = TruncatedEvaluator(fine, 4)
    with pytest.raises(ValueError):
        ev.state(np.zeros(7))


def test_one_grid_serves_two_bands():
    # the degree-12 grid is both a body grid and the fine grid for band 6;
    # its cache must keep the two bands apart whatever the call order
    shared = standard_grid(2, 12)
    rng = np.random.default_rng(5)
    body_coeffs = rng.standard_normal(shared.coefficient_count)
    band_coeffs = rng.standard_normal(coefficient_count(2, 6))

    state = TruncatedEvaluator(shared, 6).state(band_coeffs)
    values = synthesize(shared, body_coeffs)
    grad, hess = tangential_derivatives(field_from_coefficients(shared, body_coeffs))
    state_again = TruncatedEvaluator(shared, 6).state(band_coeffs)
    projected = TruncatedEvaluator(shared, 6).project(values)

    body_grid = SphereGrid(2, 12)
    ref_grad, ref_hess = tangential_derivatives(field_from_coefficients(body_grid, body_coeffs))
    np.testing.assert_array_equal(values, synthesize(body_grid, body_coeffs))
    np.testing.assert_array_equal(grad, ref_grad)
    np.testing.assert_array_equal(hess, ref_hess)
    ref_ev = TruncatedEvaluator(SphereGrid(2, 12), 6)
    for got in (state, state_again):
        for a, b in zip(got, ref_ev.state(band_coeffs)):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(projected, ref_ev.project(values))


# fresh grids, so random bands do not crowd the shared standard_grid cache
@pytest.mark.parametrize("dimension, max_degree", [(1, 48), (2, 10)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_analyze_inverts_synthesize_at_random_bands(dimension, max_degree, data):
    grid = SphereGrid(dimension, data.draw(st.integers(1, max_degree), label="degree"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    coeffs = np.random.default_rng(seed).standard_normal(grid.coefficient_count)
    np.testing.assert_allclose(analyze(grid, synthesize(grid, coeffs)), coeffs, rtol=0, atol=1e-11)


@pytest.mark.parametrize("dimension, max_degree", [(1, 24), (2, 6)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_truncated_project_inverts_state_at_random_bands(dimension, max_degree, data):
    source = data.draw(st.integers(1, max_degree), label="source degree")
    fine = SphereGrid(dimension, source + data.draw(st.integers(0, max_degree), label="margin"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ev = TruncatedEvaluator(fine, source)
    coeffs = np.random.default_rng(seed).standard_normal(ev.source_count)
    values, _, _ = ev.state(coeffs)
    np.testing.assert_allclose(ev.project(values), coeffs, rtol=0, atol=1e-11)

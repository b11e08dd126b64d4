"""Checks for the spectral basis, quadrature, and tangential derivatives."""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from curvflow.spectral import (
    SphereGrid,
    TruncatedEvaluator,
    analyze,
    coefficient_count,
    field_from_coefficients,
    field_from_values,
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
# closed-form references: restrictions of ambient polynomials
#
# A polynomial G of degree d on R^(n+1), restricted to the unit sphere, is a
# field of band limit d.  In an orthonormal tangent frame e its covariant
# derivatives follow from the ambient ones: the gradient is DG(e), the Hessian
# D^2G(e, e) - DG(u) g, and the third derivative
# D^3G(X,Y,Z) - <X,Y> D^2G(u,Z) - <X,Z> D^2G(u,Y) - (D^2G(u,X) + DG(X)) <Y,Z>.
# ---------------------------------------------------------------------------


class _AmbientPolynomial:
    """Random polynomial on R^dim, composed with a rotation: G(x) = F(Q x)."""

    def __init__(self, rng, degree, rotation):
        dim = rotation.shape[0]
        self.exponents = np.array(
            [e for e in product(range(degree + 1), repeat=dim) if sum(e) <= degree], dtype=float
        )
        self.coefficients = rng.standard_normal(len(self.exponents))
        self.rotation = rotation

    def _derivative(self, x, axes):
        """d/dy_axes F at the points y = Q x, shape (P,)."""
        exps = self.exponents.copy()
        factor = np.ones(len(exps))
        for a in axes:
            factor = factor * exps[:, a]
            exps[:, a] = np.maximum(exps[:, a] - 1.0, 0.0)
        y = x @ self.rotation.T
        return np.prod(y[:, None, :] ** exps, axis=-1) @ (factor * self.coefficients)

    def derivatives(self, x, order):
        """Ambient derivative tensor of G of the given order at the points x."""
        dim = self.rotation.shape[0]
        out = np.empty((x.shape[0],) + (dim,) * order)
        for axes in product(range(dim), repeat=order):
            out[(slice(None),) + axes] = self._derivative(x, axes)
        for _ in range(order):  # D^kG = D^kF(Q., ..., Q.)
            out = np.tensordot(out, self.rotation, axes=([1], [0]))
        return out


def _frame_derivatives(poly, grid):
    """Closed-form value, frame gradient, Hessian and third derivative."""
    u, e = grid.nodes, grid.frames()
    n = grid.dimension
    value = poly.derivatives(u, 0)
    d1, d2, d3 = (poly.derivatives(u, k) for k in (1, 2, 3))
    g = np.eye(n)
    radial = np.einsum("px,px->p", d1, u)
    d2_u = np.einsum("pxy,px,pay->pa", d2, u, e)  # D^2G(u, e_a)
    grad = np.einsum("px,pax->pa", d1, e)
    hess = np.einsum("pxy,pax,pby->pab", d2, e, e) - radial[:, None, None] * g
    third = (
        np.einsum("pxyz,pax,pby,pcz->pabc", d3, e, e, e)
        - np.einsum("ab,pc->pabc", g, d2_u)
        - np.einsum("ac,pb->pabc", g, d2_u)
        - np.einsum("pa,bc->pabc", d2_u + grad, g)
    )
    return value, grad, hess, third


def test_rotation_commutes_with_differentiation():
    # rotating an ambient polynomial rotates its derivatives along with it
    grid = standard_grid(2, 10)
    rng = np.random.default_rng(17)
    for rot in Rotation.random(10, rng=rng).as_matrix():
        poly = _AmbientPolynomial(np.random.default_rng(17), 6, rot)
        value, grad, hess, _ = _frame_derivatives(poly, grid)
        f = field_from_values(grid, value)
        grad_frame, hess_frame = tangential_derivatives(f)
        np.testing.assert_allclose(f.values, value, atol=1e-8)
        np.testing.assert_allclose(grad_frame, grad, atol=1e-8)
        np.testing.assert_allclose(hess_frame, hess, atol=1e-8)


def test_circle_rotation_commutes():
    grid = standard_grid(1, 10)
    rng = np.random.default_rng(23)
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    poly = _AmbientPolynomial(rng, 8, rot)
    value, grad, hess, _ = _frame_derivatives(poly, grid)
    f = field_from_values(grid, value)
    grad_frame, hess_frame = tangential_derivatives(f)
    np.testing.assert_allclose(f.values, value, atol=1e-9)
    np.testing.assert_allclose(grad_frame, grad, atol=1e-9)
    np.testing.assert_allclose(hess_frame, hess, atol=1e-9)


# ---------------------------------------------------------------------------
# third derivatives
# ---------------------------------------------------------------------------


def test_third_derivative_against_finite_differences():
    # reference: the closed form of an ambient polynomial on every node, which
    # replaces centred differences of the Hessian off the grid
    grid = standard_grid(2, 8)
    rng = np.random.default_rng(31)
    poly = _AmbientPolynomial(rng, 8, Rotation.random(rng=rng).as_matrix())
    value, _, _, expect = _frame_derivatives(poly, grid)
    t = third_derivatives(field_from_values(grid, value))
    scale = np.max(np.abs(t))
    np.testing.assert_allclose(t, expect, atol=1e-5 * scale)


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


def test_truncated_evaluator_memory_stays_small():
    # dense basis matrices of band 24 on the degree-48 grid needed 144 MB
    tracemalloc.start()
    try:
        ev = TruncatedEvaluator(SphereGrid(2, 48), 24)
        values, _, _ = ev.state(np.ones(ev.source_count))
        ev.project(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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

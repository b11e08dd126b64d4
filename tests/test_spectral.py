"""Checks for the spectral basis, quadrature, and tangential derivatives."""

import tracemalloc
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.spatial.transform import Rotation
from scipy.special import assoc_legendre_p_all

from curvflow.spectral import (
    SphereGrid,
    TruncatedEvaluator,
    analyze,
    coefficient_count,
    field_from_coefficients,
    field_from_values,
    radii_rows,
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
# the Gauss-Legendre rule and the colatitude tables
# ---------------------------------------------------------------------------


def _gauss_legendre_reference(n):
    """Nodes and weights of the n-point rule to 40 digits, by Newton's method
    on the three-term recurrence, nodes ascending."""
    with mpmath.workdps(40):

        def legendre(x):
            p_prev, p = mpmath.mpf(1), x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            return p, n * (x * p - p_prev) / (x * x - 1)

        nodes, weights = [], []
        for i in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (n + mpmath.mpf(0.5)))
            for _ in range(100):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < mpmath.mpf(10) ** -38:
                    break
            else:
                raise AssertionError(f"Newton did not converge on root {i} of P_{n}")
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes[::-1], weights[::-1]


@pytest.mark.parametrize("n", [2, 7, 13, 25, 49, 65, 129])
def test_gauss_rule_matches_mpmath_reference(n):
    x, w = leggauss(n)
    ref_x, ref_w = _gauss_legendre_reference(n)
    with mpmath.workdps(40):
        node_error = max(abs(mpmath.mpf(a) - b) for a, b in zip(x, ref_x))
        weight_error = max(abs(mpmath.mpf(a) - b) for a, b in zip(w, ref_w))
    assert node_error < 2.3e-16
    assert weight_error < 1e-14
    # the grid's rings are this rule, in ascending colatitude
    grid = SphereGrid(2, n - 1)
    np.testing.assert_array_equal(grid.theta[:: grid.ring_size], np.arccos(x[::-1]))
    np.testing.assert_array_equal(grid.weights[:: grid.ring_size], w[::-1] * (np.pi / n))


@pytest.mark.parametrize("degree", [1, 2, 12, 128])
def test_colatitude_table_matches_scipy(degree):
    # values and first colatitude derivatives of every (l, m) through the degree
    grid = SphereGrid(2, degree)
    theta = grid.theta[:: grid.ring_size]
    table = grid._band(degree).table
    p, dp = assoc_legendre_p_all(degree, degree, np.cos(theta), norm=True, diff_n=1)
    m = np.arange(degree + 1)
    scale = (np.where(m == 0, 1.0, np.sqrt(2.0)) / np.sqrt(2.0 * np.pi))[:, None, None]
    values = p[:, : degree + 1].transpose(1, 2, 0) * scale
    d_theta = -np.sin(theta)[:, None] * dp[:, : degree + 1].transpose(1, 2, 0) * scale
    for ours, ref in ((table[0], values), (table[1], d_theta)):
        assert np.max(np.abs(ours - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("degree", [12, 24, 48])
def test_quadrature_gram_matrix_is_identity(degree):
    # column k of the Gram matrix of the real harmonics is the projection of
    # the k-th harmonic's node values
    grid = SphereGrid(2, degree)
    eye = np.eye(grid.coefficient_count)
    gram = np.array([analyze(grid, synthesize(grid, e)) for e in eye])
    assert np.max(np.abs(gram - eye)) < 1e-13


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


def _radii_from_hessian(field):
    """Rows (s, R_00[, R_01, R_11]) of R = Hess s + s id from the node
    Hessian of ``tangential_derivatives``."""
    _, hess = tangential_derivatives(field)
    s = field.values
    if field.grid.dimension == 1:
        return np.stack([s, hess[:, 0, 0] + s])
    return np.stack([s, hess[:, 0, 0] + s, hess[:, 0, 1], hess[:, 1, 1] + s])


@pytest.mark.parametrize("dimension", [1, 2])
def test_truncated_state_matches_padded_field(dimension):
    from curvflow.shapes import resample

    coarse = standard_grid(dimension, 6)
    fine = standard_grid(dimension, 12)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(coarse.coefficient_count) * 0.1
    coeffs[0] += 3.0

    ev = TruncatedEvaluator(fine, 6)
    rows = ev.state(coeffs)

    padded = resample(field_from_coefficients(coarse, coeffs), fine)
    expected = _radii_from_hessian(padded)
    assert rows.shape == (2 * dimension, fine.node_count)
    np.testing.assert_allclose(rows[0], padded.values, rtol=0, atol=1e-11)
    np.testing.assert_allclose(rows[1:], expected[1:], rtol=0, atol=1e-8)
    np.testing.assert_array_equal(
        radii_rows(padded.field), TruncatedEvaluator(fine, 12).state(padded.coefficients)
    )


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
        values = ev.state(np.ones(ev.source_count))[0]
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
    from curvflow.shapes import resample

    shared = standard_grid(2, 12)
    rng = np.random.default_rng(5)
    body_coeffs = rng.standard_normal(shared.coefficient_count)
    band_coeffs = rng.standard_normal(coefficient_count(2, 6))

    state = TruncatedEvaluator(shared, 6).state(band_coeffs)
    values = synthesize(shared, body_coeffs)
    rows = radii_rows(field_from_coefficients(shared, body_coeffs))
    state_again = TruncatedEvaluator(shared, 6).state(band_coeffs)
    projected = TruncatedEvaluator(shared, 6).project(values)

    body_grid = SphereGrid(2, 12)
    body_field = field_from_coefficients(body_grid, body_coeffs)
    np.testing.assert_array_equal(values, synthesize(body_grid, body_coeffs))
    np.testing.assert_array_equal(rows, radii_rows(body_field))
    np.testing.assert_allclose(rows, _radii_from_hessian(body_field), rtol=0, atol=1e-8)
    ref_ev = TruncatedEvaluator(SphereGrid(2, 12), 6)
    np.testing.assert_array_equal(state, ref_ev.state(band_coeffs))
    np.testing.assert_array_equal(state_again, state)
    padded = resample(field_from_coefficients(standard_grid(2, 6), band_coeffs), shared)
    np.testing.assert_allclose(state, _radii_from_hessian(padded), rtol=0, atol=1e-8)
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
    values = ev.state(coeffs)[0]
    np.testing.assert_allclose(ev.project(values), coeffs, rtol=0, atol=1e-11)

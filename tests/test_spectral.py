"""Checks for the spectral basis, quadrature, and tangential derivatives."""

import tracemalloc
from itertools import product
from math import isqrt

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.spatial.transform import Rotation
from scipy.special import assoc_legendre_p_all

from curvflow import spectral
from curvflow.spectral import (
    SpectralField,
    SphereGrid,
    TruncatedEvaluator,
    analyze,
    coefficient_count,
    radii_rows,
    smooth_grid,
    sphere_area,
    standard_grid,
    sup_bound,
    synthesize,
    tangential_derivatives,
    third_derivatives,
)
from curvflow.flow import TARGET_SLACK

from _helpers import field_from_values

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
    f = SpectralField(grid, rng.standard_normal(grid.coefficient_count))
    _, hess = tangential_derivatives(f)
    n = grid.dimension
    lhs = np.sum(grid.weights * (np.trace(hess, axis1=1, axis2=2) + n * f.values))
    mean = np.sum(grid.weights * f.values) / grid.sphere_area
    assert abs(lhs - n * mean * grid.sphere_area) < 1e-9 * max(1.0, abs(mean))


@pytest.mark.parametrize("make_grid", [standard_grid, smooth_grid])
def test_every_harmonic_is_a_laplace_eigenfunction(make_grid):
    # every real Y_lm through degree 12, every order m: the Hessian's trace
    # is -l(l + 1) Y_lm and R_00 + R_11 is (2 - l(l + 1)) Y_lm at the nodes
    grid = make_grid(2, 12)
    for k, unit in enumerate(np.eye(grid.coefficient_count)):
        lam = isqrt(k) * (isqrt(k) + 1)
        f = SpectralField(grid, unit)
        tol = 1e-14 * (lam + 2) * np.max(np.abs(f.values))
        _, hess = tangential_derivatives(f)
        np.testing.assert_allclose(np.trace(hess, axis1=1, axis2=2), -lam * f.values, atol=tol)
        rows = radii_rows(f)
        np.testing.assert_allclose(rows[1] + rows[3], (2 - lam) * f.values, atol=tol)


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


def _frames(grid):
    """Orthonormal tangent frame (e_theta[, e_phi]) at each node, shape (M, n, n+1)."""
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    if grid.dimension == 1:
        return np.column_stack([-st, ct])[:, None, :]
    cp, sp = np.cos(grid.phi), np.sin(grid.phi)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return np.stack([e_theta, e_phi], axis=1)


def _frame_derivatives(poly, grid):
    """Closed-form value, frame gradient, Hessian and third derivative."""
    u, e = grid.nodes, _frames(grid)
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
    rows = ev.state(ev.spectrum(coeffs))

    padded = resample(SpectralField(coarse, coeffs), fine)
    expected = _radii_from_hessian(padded)
    assert rows.shape == (2 * dimension, fine.node_count)
    np.testing.assert_allclose(rows[0], padded.values, rtol=0, atol=1e-11)
    np.testing.assert_allclose(rows[1:], expected[1:], rtol=0, atol=1e-8)
    full = TruncatedEvaluator(fine, 12)
    np.testing.assert_array_equal(
        radii_rows(padded), full.state(full.spectrum(padded.coefficients))
    )


@pytest.mark.parametrize("dimension", [1, 2])
def test_truncated_project_recovers_leading_coefficients(dimension):
    coarse = standard_grid(dimension, 5)
    fine = standard_grid(dimension, 10)
    rng = np.random.default_rng(4)
    fine_coeffs = rng.standard_normal(fine.coefficient_count)

    ev = TruncatedEvaluator(fine, 5)
    projected = ev.coefficients(ev.project(synthesize(fine, fine_coeffs)))
    np.testing.assert_allclose(
        projected, fine_coeffs[: coarse.coefficient_count], rtol=0, atol=1e-12
    )


def test_truncated_evaluator_memory_stays_small():
    # dense basis matrices of band 24 on the degree-48 grid needed 144 MB
    tracemalloc.start()
    try:
        ev = TruncatedEvaluator(SphereGrid(2, 48), 24)
        values = ev.state(ev.spectrum(np.ones(ev.source_count)))[0]
        ev.project(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("dimension, degree, band", [(1, 32, 16), (2, 12, 6)])
def test_spectrum_layout_round_trips_and_its_empty_slots_read_zero(dimension, degree, band):
    # the m = 0 sine slot and, on the sphere, the l < m slots hold no
    # coefficient: conversion and projection must leave them exactly zero
    ev = TruncatedEvaluator(smooth_grid(dimension, degree), band)
    rng = np.random.default_rng(band)
    coeffs = rng.standard_normal(ev.source_count)
    spectrum = ev.spectrum(coeffs)
    assert spectrum.shape == ev.spectrum_shape == (band + 1,) * dimension
    assert ev.coefficients(spectrum).tobytes() == coeffs.tobytes()
    t = ev.grid._band(band)
    no_cos, no_sin = t.cos_index == t.count, t.sin_index == t.count
    assert no_sin.sum() == (1 if dimension == 1 else band * (band + 1) // 2 + band + 1)
    projected = ev.project(rng.standard_normal(ev.grid.node_count))
    for s in (spectrum, projected):
        assert np.all(s.real[no_cos] == 0.0) and np.all(s.imag[no_sin] == 0.0)
    np.testing.assert_array_equal(ev.spectrum(ev.coefficients(projected)), projected)


def test_band_record_keeps_one_four_slab_radii_table():
    # s, R_00, R_01 / i and R_11 on each of the 49 rings; the two-slab Legendre
    # table is built only when a derivative function reads it
    grid = SphereGrid(2, 48, ring_size=100)
    ev = TruncatedEvaluator(grid, 24)
    band = grid._band(24)
    assert band.radii.shape == (25, 4 * 49, 25)
    assert band.radii.nbytes == 980_000
    ev.project(ev.state(ev.spectrum(np.ones(ev.source_count)))[0])
    synthesize(grid, np.ones(grid.coefficient_count))
    assert "table" not in vars(band) and "table" not in vars(grid._band(48))
    assert band.table.shape == (2, 25, 49, 25)
    np.testing.assert_array_equal(band.lam, [l * (l + 1) for l in range(25)])
    # slab 0 is the Legendre values times w = 1 (m = 0) or 1/2
    w = np.where(np.arange(25) == 0, 1.0, 0.5)[:, None, None]
    np.testing.assert_array_equal(band.radii[:, :49], band.table[0] * w)


@pytest.mark.parametrize("dimension, degree, band", [(1, 48, 32), (2, 36, 24)])
def test_state_and_project_write_into_out_arrays_bit_for_bit(dimension, degree, band):
    # the flow stepper reuses one rows array and one spectrum for every stage
    ev = TruncatedEvaluator(smooth_grid(dimension, degree), band)
    rng = np.random.default_rng(degree)
    spectrum = ev.spectrum(rng.standard_normal(ev.source_count))
    values = rng.standard_normal(ev.grid.node_count)
    rows = np.full((2 * dimension, ev.grid.node_count), np.nan)
    projected = np.full(ev.spectrum_shape, np.nan, complex)
    assert ev.state(spectrum, out=rows) is rows
    assert ev.project(values, out=projected) is projected
    assert rows.tobytes() == ev.state(spectrum).tobytes()
    assert projected.tobytes() == ev.project(values).tobytes()


def test_truncated_rejects_bad_shapes():
    fine = standard_grid(2, 8)
    with pytest.raises(ValueError):
        TruncatedEvaluator(fine, 9)
    ev = TruncatedEvaluator(fine, 4)
    with pytest.raises(ValueError):
        ev.spectrum(np.zeros(7))
    with pytest.raises(ValueError):
        ev.state(np.zeros(7))
    with pytest.raises(ValueError):
        ev.state(np.zeros((5, 4), complex))


def test_one_grid_serves_two_bands():
    # the degree-12 grid is both a body grid and the fine grid for band 6;
    # its cache must keep the two bands apart whatever the call order
    from curvflow.shapes import resample

    shared = standard_grid(2, 12)
    rng = np.random.default_rng(5)
    body_coeffs = rng.standard_normal(shared.coefficient_count)
    band_coeffs = rng.standard_normal(coefficient_count(2, 6))

    band_spectrum = TruncatedEvaluator(shared, 6).spectrum(band_coeffs)
    state = TruncatedEvaluator(shared, 6).state(band_spectrum)
    values = synthesize(shared, body_coeffs)
    rows = radii_rows(SpectralField(shared, body_coeffs))
    state_again = TruncatedEvaluator(shared, 6).state(band_spectrum)
    projected = TruncatedEvaluator(shared, 6).project(values)

    body_grid = SphereGrid(2, 12)
    body_field = SpectralField(body_grid, body_coeffs)
    np.testing.assert_array_equal(values, synthesize(body_grid, body_coeffs))
    np.testing.assert_array_equal(rows, radii_rows(body_field))
    np.testing.assert_allclose(rows, _radii_from_hessian(body_field), rtol=0, atol=1e-8)
    ref_ev = TruncatedEvaluator(SphereGrid(2, 12), 6)
    np.testing.assert_array_equal(state, ref_ev.state(ref_ev.spectrum(band_coeffs)))
    np.testing.assert_array_equal(state_again, state)
    padded = resample(SpectralField(standard_grid(2, 6), band_coeffs), shared)
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
    values = ev.state(ev.spectrum(coeffs))[0]
    np.testing.assert_allclose(ev.coefficients(ev.project(values)), coeffs, rtol=0, atol=1e-11)


@settings(max_examples=12, deadline=None)
@given(
    degree=st.integers(1, 24),
    smooth=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(degree=1, smooth=False, seed=128884)
def test_fused_radii_rows_match_the_hessian_and_synthesis(degree, smooth, seed):
    # the one-matmul radii rows of radii_rows (band L on a degree-L grid) and
    # of TruncatedEvaluator.state (band L on the stepper's degree-3L/2 grid
    # and on a degree-2L one) against the two-slab path: synthesize for s,
    # tangential_derivatives' Hessian + s id
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(coefficient_count(2, degree))
    for fine_degree in dict.fromkeys((degree, 3 * degree // 2, 2 * degree)):
        ring = spectral._smooth_ring_size(fine_degree) if smooth else None
        grid = SphereGrid(2, fine_degree, ring_size=ring)
        padded = np.zeros(grid.coefficient_count)
        padded[: coeffs.size] = coeffs
        field = SpectralField(grid, padded)
        if fine_degree == degree:
            rows = radii_rows(field)
        else:
            ev = TruncatedEvaluator(grid, degree)
            rows = ev.state(ev.spectrum(coeffs))
        reference = _radii_from_hessian(field)  # s is the field's synthesized values
        # s relative to max|s|, the radii rows relative to the larger of max|s|
        # and max|R|: at degree 1, R = c_00 Y_00 id can be near zero while
        # the rounding of its rows grows with the l = 1 coefficients
        s_scale = np.max(np.abs(reference[0]))
        r_scale = max(s_scale, np.max(np.abs(reference[1:])))
        assert np.max(np.abs(rows[0] - reference[0])) <= 1e-13 * s_scale, (degree, fine_degree)
        assert np.max(np.abs(rows[1:] - reference[1:])) <= 1e-13 * r_scale, (degree, fine_degree)


# ---------------------------------------------------------------------------
# the bound on node values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension, max_degree", [(1, 48), (2, 24)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sup_bound_covers_every_node_value(dimension, max_degree, data):
    # B (1 + TARGET_SLACK) bounds |f| at every node, for spectra whose degrees
    # span eight decades and for single degrees
    degree = data.draw(st.integers(1, max_degree), label="degree")
    single = data.draw(st.none() | st.integers(0, degree), label="single degree")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = SphereGrid(dimension, degree)
    ev = TruncatedEvaluator(grid, degree)
    spectrum = ev.spectrum(rng.standard_normal(ev.source_count))
    spectrum *= 10.0 ** rng.uniform(-8.0, 0.0, degree + 1)
    if single is not None:
        spectrum[..., np.arange(degree + 1) != single] = 0.0
    values = synthesize(grid, ev.coefficients(spectrum))
    assert np.max(np.abs(values)) <= (1.0 + TARGET_SLACK) * sup_bound(spectrum)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("degree", [8, 24])
def test_sup_bound_is_attained_by_each_degree_of_a_node_kernel(dimension, degree):
    # the degree-l part of the kernel at a node peaks there at exactly B, so
    # only rounding separates the two, which TARGET_SLACK covers
    grid = standard_grid(dimension, degree)
    ev = TruncatedEvaluator(grid, degree)
    node = grid.node_count // 3
    delta = np.zeros(grid.node_count)
    delta[node] = 1.0 / grid.weights[node]
    kernel = ev.spectrum(analyze(grid, delta))  # every basis function at the node
    for l in range(degree + 1):
        spectrum = np.where(np.arange(degree + 1) == l, kernel, 0.0)
        values = synthesize(grid, ev.coefficients(spectrum))
        ratio = np.max(np.abs(values)) / sup_bound(spectrum)
        assert 1.0 - 1e-13 <= ratio <= 1.0 + TARGET_SLACK, (l, ratio)


# ---------------------------------------------------------------------------
# ring lengths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2])
def test_body_grids_keep_2l_plus_2_points_per_ring(dimension):
    # only the flow stepper's fine grid (smooth_grid) takes a 5-smooth ring;
    # the body grid sets the node spacing that scales the time step
    for degree in (1, 6, 12, 24, 32, 64):
        grid = SphereGrid(dimension, degree)
        assert grid.ring_size == 2 * degree + 2
        assert grid.node_count == grid.ring_size * (1 if dimension == 1 else degree + 1)
    body, fine = standard_grid(dimension, 64), smooth_grid(dimension, 64)
    assert (body.ring_size, fine.ring_size) == (130, 144)
    assert fine is not body and fine is smooth_grid(dimension, 64)
    if dimension == 1:
        assert body.min_spacing() == pytest.approx(2.0 * np.pi / 130, rel=1e-15)


@pytest.mark.parametrize("dimension", [1, 2])
def test_ring_size_must_be_even_and_hold_2l_plus_2_points(dimension):
    for bad in (19, 17, 16, 0, -18, 20.0, True):
        with pytest.raises(ValueError, match="ring_size"):
            SphereGrid(dimension, 8, ring_size=bad)
    for good in (18, 20, 54):
        grid = SphereGrid(dimension, 8, ring_size=good)
        assert grid.ring_size == good
        assert grid.weights.sum() == pytest.approx(sphere_area(dimension), rel=1e-14)


@pytest.mark.parametrize("dimension, max_degree", [(1, 24), (2, 6)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_state_and_project_invert_on_enlarged_rings(dimension, max_degree, data):
    source = data.draw(st.integers(1, max_degree), label="source degree")
    degree = source + data.draw(st.integers(0, max_degree), label="margin")
    ring = 2 * degree + 2 + 2 * data.draw(st.integers(1, 12), label="extra pairs")
    fine = SphereGrid(dimension, degree, ring_size=ring)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ev = TruncatedEvaluator(fine, source)
    coeffs = np.random.default_rng(seed).standard_normal(ev.source_count)
    spectrum = ev.project(ev.state(ev.spectrum(coeffs))[0])
    np.testing.assert_allclose(ev.coefficients(spectrum), coeffs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the transforms against the formulas they were trimmed from
# ---------------------------------------------------------------------------


def _reference_ring_sums(grid, band, coefficients):
    # the spectrum on the circle; on the sphere the ring sums of c and of
    # l(l + 1) c against both slabs, (slab, [c, lam c], ring, m)
    t = grid._band(band)
    padded = np.append(coefficients, 0.0)
    spectrum = padded[t.cos_index] - 1j * padded[t.sin_index]
    if grid.dimension == 1:
        return spectrum
    scaled = t.lam * spectrum
    ring = t.table @ np.stack([spectrum.real, spectrum.imag, scaled.real, scaled.imag], axis=-1)
    return (ring[..., 0::2] + 1j * ring[..., 1::2]).transpose(0, 3, 2, 1)


def _reference_project(grid, band, values):
    t = grid._band(band)
    rings = np.fft.rfft((grid.weights * values).reshape(-1, grid.ring_size))[:, : band + 1]
    if grid.dimension == 1:
        h = rings[0] * t.table
    else:
        h = t.table[0].swapaxes(1, 2) @ np.stack([rings.real.T, rings.imag.T], axis=-1)
        h = h[..., 0] + 1j * h[..., 1]
    c = np.empty(t.count + 1)
    c[t.cos_index] = h.real
    c[t.sin_index] = -h.imag
    return c[:-1]


@pytest.mark.parametrize("dimension, degree, band", [(1, 32, 16), (1, 64, 64), (2, 12, 6)])
def test_transforms_equal_their_reference_formulas_bit_for_bit(dimension, degree, band):
    rng = np.random.default_rng(degree + band)
    for grid in (SphereGrid(dimension, degree), smooth_grid(dimension, degree)):
        coeffs = rng.standard_normal(coefficient_count(dimension, band))
        coeffs[rng.integers(coeffs.size, size=3)] = 0.0
        reference = _reference_ring_sums(grid, band, coeffs)
        t = grid._band(band)
        spectrum = spectral._spectrum(t, coeffs)
        if dimension == 1:
            np.testing.assert_array_equal(spectrum, reference)
        else:
            np.testing.assert_array_equal(spectral._ring_sums(t, spectrum), reference)
        values = rng.standard_normal(grid.node_count)
        np.testing.assert_array_equal(
            spectral._coefficients(t, spectral._project(grid, band, values)),
            _reference_project(grid, band, values),
        )
        if dimension == 1:
            # the circle's (s, r) multiplier is kept on the band record
            w, _, w_m2 = grid._band(band).synth[:3]
            stacked = np.fft.irfft(
                reference * np.stack([w, w + w_m2]), n=grid.ring_size, norm="forward"
            )
            np.testing.assert_array_equal(spectral._radii_rows(grid, band, spectrum), stacked)

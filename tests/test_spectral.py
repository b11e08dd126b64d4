"""Checks for the spectral basis, quadrature, and the radii matrix."""

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
    table = spectral._colatitude_table(theta, degree)
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
# the radii matrix
# ---------------------------------------------------------------------------


def test_circle_harmonic_identity():
    # s = cos(theta) solves s'' + s = 0, so its radius of curvature r vanishes
    grid = standard_grid(1, 8)
    f = field_from_values(grid, np.cos(grid.theta))
    np.testing.assert_allclose(radii_rows(f)[1], 0.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_linear_field_has_vanishing_radii_matrix(axis):
    # s = <p, u>: covariant Hessian + s * metric = 0 (support function of a point)
    grid = standard_grid(2, 10)
    f = field_from_values(grid, grid.nodes[:, axis])
    assert np.max(np.abs(radii_rows(f)[1:])) < 1e-10


def test_zonal_quadratic_hessian_closed_form():
    # s = cos^2(theta): Hess_tt = -2cos(2 theta), Hess_pp = -2cos^2 and the
    # off-diagonal zero, so R_00 = cos^2 - 2cos(2 theta) and R_11 = -cos^2
    grid = standard_grid(2, 12)
    ct = np.cos(grid.theta)
    _, r00, r01, r11 = radii_rows(field_from_values(grid, ct**2))
    np.testing.assert_allclose(r00, ct**2 - 2.0 * np.cos(2 * grid.theta), atol=1e-11)
    np.testing.assert_allclose(r11, -(ct**2), atol=1e-11)
    np.testing.assert_allclose(r01, 0.0, atol=1e-11)


@pytest.mark.parametrize("dimension", [1, 2])
def test_divergence_identity(dimension):
    # the trace of R = Hess g + g id integrates to n * mean(g) * |S^n|, since
    # the Laplacian integrates to zero
    grid = standard_grid(dimension, 12)
    rng = np.random.default_rng(5 + dimension)
    f = SpectralField(grid, rng.standard_normal(grid.coefficient_count))
    rows = radii_rows(f)
    n = grid.dimension
    trace = rows[1] if n == 1 else rows[1] + rows[3]
    lhs = np.sum(grid.weights * trace)
    mean = np.sum(grid.weights * f.values) / grid.sphere_area
    assert abs(lhs - n * mean * grid.sphere_area) < 1e-9 * max(1.0, abs(mean))


@pytest.mark.parametrize("make_grid", [standard_grid, smooth_grid])
def test_every_harmonic_is_a_laplace_eigenfunction(make_grid):
    # every real Y_lm through degree 12, every order m: R_00 + R_11, the
    # Laplacian plus 2 Y_lm, is (2 - l(l + 1)) Y_lm at the nodes
    grid = make_grid(2, 12)
    for k, unit in enumerate(np.eye(grid.coefficient_count)):
        lam = isqrt(k) * (isqrt(k) + 1)
        f = SpectralField(grid, unit)
        tol = 1e-14 * (lam + 2) * np.max(np.abs(f.values))
        rows = radii_rows(f)
        np.testing.assert_allclose(rows[1] + rows[3], (2 - lam) * f.values, atol=tol)


# ---------------------------------------------------------------------------
# closed-form references: restrictions of ambient polynomials
#
# A polynomial G of degree d on R^(n+1), restricted to the unit sphere, is a
# field of band limit d.  In an orthonormal tangent frame e its covariant
# Hessian follows from the ambient derivatives: D^2G(e, e) - DG(u) g.
# ---------------------------------------------------------------------------


class _AmbientPolynomial:
    """Random polynomial on R^dim, composed with a rotation: G(x) = F(Q x)."""

    def __init__(self, rng, degree, rotation):
        dim = rotation.shape[0]
        self.exponents = [e for e in product(range(degree + 1), repeat=dim) if sum(e) <= degree]
        self.coefficients = rng.standard_normal(len(self.exponents))
        self.rotation = rotation

    def _derivative(self, axes):
        """The coefficients of d/dy_axes F over the monomials of F."""
        slot = {e: i for i, e in enumerate(self.exponents)}
        out = np.zeros(len(self.exponents))
        for e, c in zip(self.exponents, self.coefficients):
            e = list(e)
            for a in axes:
                c, e[a] = c * e[a], max(e[a] - 1, 0)
            out[slot[tuple(e)]] += c
        return out

    def derivatives(self, x, order):
        """Ambient derivative tensor of G of the given order at the points x."""
        dim = self.rotation.shape[0]
        y = x @ self.rotation.T
        exps = np.array(self.exponents)
        monomials = np.ones((x.shape[0], len(exps)))
        for a in range(dim):
            monomials *= (y[:, a, None] ** np.arange(exps.max() + 1))[:, exps[:, a]]
        out = np.empty((x.shape[0],) + (dim,) * order)
        for axes in product(range(dim), repeat=order):
            out[(slice(None),) + axes] = monomials @ self._derivative(axes)
        for _ in range(order):  # D^kG = D^kF(Q., ..., Q.)
            out = np.tensordot(out, self.rotation, axes=([1], [0]))
        return out


def _random_polynomial(rng, dimension, degree):
    """An ``_AmbientPolynomial`` on R^(n+1) under a random rotation."""
    if dimension == 2:
        return _AmbientPolynomial(rng, degree, Rotation.random(rng=rng).as_matrix())
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    return _AmbientPolynomial(rng, degree, rot)


def _frames(grid):
    """Orthonormal tangent frame (e_theta[, e_phi]) at each node, shape (M, n, n+1)."""
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    if grid.dimension == 1:
        return np.column_stack([-st, ct])[:, None, :]
    cp, sp = np.cos(grid.phi), np.sin(grid.phi)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return np.stack([e_theta, e_phi], axis=1)


def _closed_form_radii(poly, grid):
    """The rows of ``radii_rows`` for s = G at the grid nodes, from the
    ambient derivatives: s, then R = Hess s + s id in the frame, r on the
    circle and R_00, R_01, R_11 on the sphere."""
    u, e = grid.nodes, _frames(grid)
    value = poly.derivatives(u, 0)
    radial = np.einsum("px,px->p", poly.derivatives(u, 1), u)
    hess = np.einsum("pxy,pax,pby->pab", poly.derivatives(u, 2), e, e)
    radii = hess + (value - radial)[:, None, None] * np.eye(grid.dimension)
    entries = [(0, 0)] if grid.dimension == 1 else [(0, 0), (0, 1), (1, 1)]
    return np.stack([value, *(radii[:, a, b] for a, b in entries)])


def _assert_closed_form(rows, reference, band):
    # relative to the largest reference entry; the coefficients' rounding
    # reaches R through l(l + 1), so a clean band-L transform reads up to
    # about 3e-15 (L + 1)**2, and a 0.1% slip in one term of the radii table
    # reads 1e-4 or more
    error = np.max(np.abs(rows - reference)) / np.max(np.abs(reference))
    assert error < 2e-14 * (band + 1) ** 2, error


def _assert_both_paths_match_the_closed_form(poly, dimension, degree):
    # radii_rows on the body grid, and TruncatedEvaluator.state on the flow
    # stepper's fine grid, of the band-``degree`` field of G
    grid = standard_grid(dimension, degree)
    f = field_from_values(grid, poly.derivatives(grid.nodes, 0))
    _assert_closed_form(radii_rows(f), _closed_form_radii(poly, grid), degree)
    ev = TruncatedEvaluator(smooth_grid(dimension, 3 * degree // 2), degree)
    state = ev.state(ev.spectrum(f.coefficients))
    _assert_closed_form(state, _closed_form_radii(poly, ev.grid), degree)


def test_rotation_commutes_with_differentiation():
    # rotating an ambient polynomial rotates its radii matrix along with it
    rng = np.random.default_rng(17)
    for _ in range(10):
        _assert_both_paths_match_the_closed_form(_random_polynomial(rng, 2, 6), 2, 10)


def test_circle_rotation_commutes():
    rng = np.random.default_rng(23)
    _assert_both_paths_match_the_closed_form(_random_polynomial(rng, 1, 8), 1, 10)


# ---------------------------------------------------------------------------
# truncated evaluation on a finer grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2])
def test_truncated_state_matches_padded_field(dimension):
    from curvflow.shapes import resample

    coarse = standard_grid(dimension, 6)
    fine = standard_grid(dimension, 12)
    poly = _random_polynomial(np.random.default_rng(11), dimension, 6)
    coeffs = field_from_values(coarse, poly.derivatives(coarse.nodes, 0)).coefficients

    ev = TruncatedEvaluator(fine, 6)
    rows = ev.state(ev.spectrum(coeffs))
    assert rows.shape == (2 * dimension, fine.node_count)
    _assert_closed_form(rows, _closed_form_radii(poly, fine), 6)
    padded = resample(SpectralField(coarse, coeffs), fine)
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
    # s, R_00, R_01 / i and R_11 on each of the 49 rings, and no other table
    grid = SphereGrid(2, 48, ring_size=100)
    ev = TruncatedEvaluator(grid, 24)
    band = grid._band(24)
    assert band.radii.shape == (25, 4 * 49, 25)
    assert band.radii.nbytes == 980_000
    ev.project(ev.state(ev.spectrum(np.ones(ev.source_count)))[0])
    synthesize(grid, np.ones(grid.coefficient_count))
    for record in (band, grid._band(48)):
        arrays = {k for k, v in vars(record).items() if isinstance(v, np.ndarray)}
        assert arrays == {"cos_index", "sin_index", "radii"}
    # slab 0 is the Legendre values times w = 1 (m = 0) or 1/2
    w = np.where(np.arange(25) == 0, 1.0, 0.5)[:, None, None]
    table = spectral._colatitude_table(grid.theta[:: grid.ring_size], 24)
    np.testing.assert_array_equal(band.radii[:, :49], table[0] * w)


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
    shared = standard_grid(2, 12)
    rng = np.random.default_rng(5)
    body_poly, band_poly = _random_polynomial(rng, 2, 8), _random_polynomial(rng, 2, 6)
    body_coeffs = analyze(shared, body_poly.derivatives(shared.nodes, 0))
    band_grid = standard_grid(2, 6)
    band_coeffs = analyze(band_grid, band_poly.derivatives(band_grid.nodes, 0))

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
    _assert_closed_form(rows, _closed_form_radii(body_poly, body_grid), 12)
    ref_ev = TruncatedEvaluator(SphereGrid(2, 12), 6)
    np.testing.assert_array_equal(state, ref_ev.state(ref_ev.spectrum(band_coeffs)))
    np.testing.assert_array_equal(state_again, state)
    _assert_closed_form(state, _closed_form_radii(band_poly, shared), 6)
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
    # and on a degree-2L one) against the closed-form Hessian + s id of a
    # polynomial of degree min(L, 8)
    rng = np.random.default_rng(seed)
    poly = _random_polynomial(rng, 2, min(degree, 8))
    body_grid = standard_grid(2, degree)
    coeffs = analyze(body_grid, poly.derivatives(body_grid.nodes, 0))
    for fine_degree in dict.fromkeys((degree, 3 * degree // 2, 2 * degree)):
        ring = spectral._smooth_ring_size(fine_degree) if smooth else None
        grid = SphereGrid(2, fine_degree, ring_size=ring)
        if fine_degree == degree:
            rows = radii_rows(SpectralField(grid, coeffs))
        else:
            ev = TruncatedEvaluator(grid, degree)
            rows = ev.state(ev.spectrum(coeffs))
        _assert_closed_form(rows, _closed_form_radii(poly, grid), degree)


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


def _reference_spectrum(grid, band, coefficients):
    t = grid._band(band)
    padded = np.append(coefficients, 0.0)
    return padded[t.cos_index] - 1j * padded[t.sin_index]


def _circle_norm(band):
    return np.where(np.arange(band + 1) == 0, 1.0 / np.sqrt(2.0 * np.pi), 1.0 / np.sqrt(np.pi))


def _reference_project(grid, band, values):
    t = grid._band(band)
    rings = np.fft.rfft((grid.weights * values).reshape(-1, grid.ring_size))[:, : band + 1]
    if grid.dimension == 1:
        h = rings[0] * _circle_norm(band)
    else:
        table = spectral._colatitude_table(grid.theta[:: grid.ring_size], band)
        h = table[0].swapaxes(1, 2) @ np.stack([rings.real.T, rings.imag.T], axis=-1)
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
        reference = _reference_spectrum(grid, band, coeffs)
        t = grid._band(band)
        spectrum = spectral._spectrum(t, coeffs)
        np.testing.assert_array_equal(spectrum, reference)
        values = rng.standard_normal(grid.node_count)
        np.testing.assert_array_equal(
            spectral._coefficients(t, spectral._project(grid, band, values)),
            _reference_project(grid, band, values),
        )
        if dimension == 1:
            # the circle's (s, r) multiplier is kept on the band record
            k = np.arange(band + 1)
            w = np.where(k == 0, 1.0, 0.5) * _circle_norm(band)
            stacked = np.fft.irfft(
                reference * np.stack([w, w - w * k**2]), n=grid.ring_size, norm="forward"
            )
            np.testing.assert_array_equal(spectral._radii_rows(grid, band, spectrum), stacked)

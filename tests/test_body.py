import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvflow.body import (
    ConvexityLostError,
    CurvatureField,
    curvature,
    embed,
    load_snapshot,
    pinching_status,
    recenter,
    save_snapshot,
    snapshot_from_text,
    snapshot_to_text,
    steiner_point,
    support_from_coefficients,
    translate,
)
from curvflow.shapes import (
    default_cone_threshold,
    harmonic_index,
    make_ellipsoid,
    make_perturbed_sphere,
    make_sphere,
    parse_shape,
    random_pinched_body,
    resample,
)
from curvflow.spectral import standard_grid


def test_sphere_curvature_n2():
    grid = standard_grid(2, 8)
    ball = make_sphere(grid, 2.0)
    curv = curvature(ball)
    np.testing.assert_allclose(curv.kappa, 0.5, atol=1e-12)
    np.testing.assert_allclose(curv.mean, 1.0, atol=1e-12)
    np.testing.assert_allclose(curv.traceless_norm2, 0.0, atol=1e-12)
    np.testing.assert_allclose(curv.elementary[:, 0], 1.0)
    np.testing.assert_allclose(curv.elementary[:, 1], 0.5, atol=1e-12)
    np.testing.assert_allclose(curv.elementary[:, 2], 0.25, atol=1e-12)
    np.testing.assert_allclose(curv.radii_sigma[:, 1], 4.0, atol=1e-11)
    np.testing.assert_allclose(curv.area_element, 4.0, atol=1e-11)


def test_sphere_curvature_n1():
    grid = standard_grid(1, 8)
    curv = curvature(make_sphere(grid, 0.5))
    np.testing.assert_allclose(curv.kappa, 2.0, atol=1e-12)
    np.testing.assert_allclose(curv.area_element, 0.5, atol=1e-12)
    np.testing.assert_allclose(curv.traceless_norm2, 0.0)


def test_translation_leaves_curvature_unchanged():
    # the radii matrix of <p, u> vanishes identically
    grid = standard_grid(2, 12)
    base = make_ellipsoid(grid, (1.0, 1.0, 1.2))
    moved = translate(base, np.array([0.3, -0.1, 0.2]))
    c0 = curvature(base)
    c1 = curvature(moved)
    np.testing.assert_allclose(c1.kappa, c0.kappa, atol=1e-10)


def test_scaling_covariance():
    grid = standard_grid(2, 12)
    base = make_ellipsoid(grid, (1.0, 1.0, 1.2))
    scaled = support_from_coefficients(grid, 3.0 * base.coefficients)
    np.testing.assert_allclose(curvature(scaled).kappa, curvature(base).kappa / 3.0, rtol=1e-12)


def test_kappa_sorted_ascending():
    grid = standard_grid(2, 16)
    curv = curvature(make_ellipsoid(grid, (1.0, 1.0, 1.3)))
    assert np.all(curv.kappa[:, 0] <= curv.kappa[:, 1] + 1e-15)


def _ellipsoid_kappa(nodes, semi_axes):
    """Principal curvatures of an ellipsoid at the given unit normals.

    With h(x) = |A x| the 1-homogeneous support function, P D^2h P
    (P = I - u u^T) has the principal radii as its nonzero eigenvalues.
    """
    a2 = np.asarray(semi_axes, dtype=float) ** 2
    h = np.sqrt(nodes**2 @ a2)
    w = nodes * a2
    d2h = np.diag(a2) / h[:, None, None] - np.einsum("px,py->pxy", w, w) / h[:, None, None] ** 3
    proj = np.eye(len(a2)) - np.einsum("px,py->pxy", nodes, nodes)
    radii = np.linalg.eigvalsh(proj @ d2h @ proj)[:, 1:]  # drop the normal's 0
    return np.sort(1.0 / radii, axis=1)


# Reference: the closed-form curvature of the ellipsoid on every grid node.
def test_ellipsoid_axis_curvatures():
    grid = standard_grid(2, 32)
    ell = make_ellipsoid(grid, (1.0, 1.0, 1.2))
    expected = _ellipsoid_kappa(grid.nodes, (1.0, 1.0, 1.2))
    np.testing.assert_allclose(curvature(ell).kappa, expected, rtol=1e-6)


def test_ellipse_axis_curvatures_n1():
    grid = standard_grid(1, 32)
    ell = make_ellipsoid(grid, (1.0, 1.3))
    expected = _ellipsoid_kappa(grid.nodes, (1.0, 1.3))
    np.testing.assert_allclose(curvature(ell).kappa, expected, rtol=1e-8)


def test_pinching_ratio_value():
    # kappa = (0.5, 1.5): mean 2, traceless norm^2 = 0.5, ratio 1/8
    curv = CurvatureField(kappa=np.array([[0.5, 1.5]]))
    np.testing.assert_allclose(curv.radii_sigma, [[1.0, 8.0 / 3.0, 4.0 / 3.0]], rtol=1e-15)
    np.testing.assert_allclose(curv.elementary, [[1.0, 1.0, 0.75]], rtol=1e-15)
    np.testing.assert_allclose(curv.mean, [2.0], rtol=1e-15)
    np.testing.assert_allclose(curv.traceless_norm2, [0.5], rtol=1e-15)
    status = pinching_status(curv, delta0=0.45)
    assert status.max_ratio == pytest.approx(0.125, abs=1e-15)
    assert status.in_cone
    tight = pinching_status(curv, delta0=0.1)
    assert not tight.in_cone
    assert tight.mean_positive


def test_default_cone_threshold():
    assert default_cone_threshold(2) == pytest.approx(0.45)
    assert default_cone_threshold(1) == np.inf


def test_embed_sphere():
    grid = standard_grid(2, 8)
    center = np.array([0.2, -0.4, 0.1])
    ball = make_sphere(grid, 1.5, center=center)
    sample = embed(ball)
    np.testing.assert_allclose(sample.points, center + 1.5 * grid.nodes, atol=1e-10)
    np.testing.assert_allclose(
        np.sum(sample.points * sample.normals, axis=1), sample.support, atol=1e-12
    )


def test_embed_ellipsoid_on_surface():
    grid = standard_grid(2, 24)
    axes = np.array([1.0, 1.1, 1.3])
    sample = embed(make_ellipsoid(grid, axes))
    residual = np.sum((sample.points / axes) ** 2, axis=1) - 1.0
    assert np.max(np.abs(residual)) < 1e-8


def test_steiner_point_and_recenter():
    grid = standard_grid(2, 10)
    center = np.array([0.3, 0.1, -0.2])
    ball = make_sphere(grid, 1.0, center=center)
    np.testing.assert_allclose(steiner_point(ball), center, atol=1e-12)

    centered, used = recenter(ball)
    np.testing.assert_allclose(used, center, atol=1e-12)
    np.testing.assert_allclose(centered.values, 1.0, atol=1e-12)

    shifted, _ = recenter(ball, point=np.array([0.3, 0.1, 0.0]))
    np.testing.assert_allclose(steiner_point(shifted), [0.0, 0.0, -0.2], atol=1e-12)


def test_mean_radius():
    grid = standard_grid(1, 6)
    assert make_sphere(grid, 2.5).mean_radius() == pytest.approx(2.5, abs=1e-12)


def test_convexity_loss_raises():
    grid = standard_grid(2, 8)
    bumpy = make_perturbed_sphere(grid, 1.0, [(4, 0, 0.6)])
    with pytest.raises(ConvexityLostError) as info:
        curvature(bumpy)
    err = info.value
    assert 0 <= err.node_index < grid.node_count
    assert err.eigenvalue <= err.scale * 1e-8


@pytest.mark.parametrize("dimension", [1, 2])
def test_nan_support_raises_convexity_lost(dimension):
    grid = standard_grid(dimension, 6)
    coeffs = make_sphere(grid, 1.0).coefficients.copy()
    coeffs[1] = np.nan
    with pytest.raises(ConvexityLostError):
        curvature(support_from_coefficients(grid, coeffs))


def test_snapshot_round_trip(tmp_path):
    grid = standard_grid(2, 6)
    rng = np.random.default_rng(7)
    coeffs = np.zeros(grid.coefficient_count)
    coeffs[0] = 2.0 * np.sqrt(4.0 * np.pi)
    coeffs[4:] = 0.01 * rng.standard_normal(coeffs.size - 4)
    original = support_from_coefficients(grid, coeffs)

    path = tmp_path / "body.json"
    save_snapshot(original, 0.0625, path)
    loaded, t = load_snapshot(path)

    assert t == 0.0625
    assert loaded.grid.dimension == 2 and loaded.grid.degree == 6
    assert np.array_equal(loaded.coefficients, original.coefficients)
    # serialization is reproducible byte for byte
    assert snapshot_to_text(loaded, t) == snapshot_to_text(original, 0.0625)


def test_snapshot_rejects_other_json():
    with pytest.raises(ValueError):
        snapshot_from_text('{"format": "something-else", "version": 1}')


@pytest.mark.parametrize(
    "key, token",
    [("coefficients", "NaN"), ("coefficients", "1e400"), ("time", "Infinity"), ("time", "-Infinity")],
)
def test_snapshot_rejects_non_finite_values(key, token):
    # json reads these tokens, and 1e400 overflows to inf; the loader refuses them
    record = json.loads(snapshot_to_text(make_sphere(standard_grid(2, 4), 1.0), 0.5))
    if key == "coefficients":
        record["coefficients"][3] = "@"
    else:
        record["time"] = "@"
    text = json.dumps(record).replace('"@"', token)
    with pytest.raises(ValueError, match=f"non-finite {key}"):
        snapshot_from_text(text)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_snapshot_text_round_trips_bit_for_bit(data):
    dimension = data.draw(st.sampled_from([1, 2]), label="dimension")
    degree = data.draw(st.integers(1, 16), label="degree")
    grid = standard_grid(dimension, degree)
    finite = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    )
    coeffs = np.array(
        data.draw(st.lists(finite, min_size=grid.coefficient_count, max_size=grid.coefficient_count)),
        dtype=float,
    )
    time = data.draw(finite, label="time")
    with np.errstate(all="ignore"):  # node values of huge coefficients overflow
        body = support_from_coefficients(grid, coeffs)
        back, t = snapshot_from_text(snapshot_to_text(body, time))
    assert back.grid is grid
    assert back.coefficients.tobytes() == coeffs.tobytes()
    assert np.float64(t).tobytes() == np.float64(time).tobytes()


def test_resample_pads_exactly():
    grid = standard_grid(2, 8)
    fine = standard_grid(2, 16)
    bumpy = make_perturbed_sphere(grid, 1.0, [(3, 1, 0.05), (5, -2, 0.02)])
    lifted = resample(bumpy, fine)
    assert lifted.coefficients.size == fine.coefficient_count
    np.testing.assert_array_equal(lifted.coefficients[: grid.coefficient_count], bumpy.coefficients)
    assert np.all(lifted.coefficients[grid.coefficient_count :] == 0.0)


def test_harmonic_index_layout():
    assert harmonic_index(2, 0, 0) == 0
    assert harmonic_index(2, 1, -1) == 1
    assert harmonic_index(2, 1, 0) == 2
    assert harmonic_index(2, 4, 0) == 20
    assert harmonic_index(1, 0, 0) == 0
    assert harmonic_index(1, 3, 0) == 5
    assert harmonic_index(1, 3, -1) == 6
    with pytest.raises(ValueError):
        harmonic_index(2, 2, 3)
    with pytest.raises(ValueError):
        harmonic_index(1, 2, 2)


def test_parse_shape_sphere_and_perturbation():
    grid = standard_grid(2, 8)
    plain = parse_shape("sphere 1.5", grid)
    np.testing.assert_allclose(plain.values, 1.5, atol=1e-12)

    parsed = parse_shape("sphere 1.0 + Y(2,0)*0.05 + Y(3,-2)*-0.01", grid)
    direct = make_perturbed_sphere(grid, 1.0, [(2, 0, 0.05), (3, -2, -0.01)])
    np.testing.assert_array_equal(parsed.coefficients, direct.coefficients)


def test_parse_shape_ellipsoid_and_snapshot(tmp_path):
    grid = standard_grid(2, 12)
    parsed = parse_shape("ellipsoid 1 1 1.2", grid)
    np.testing.assert_array_equal(parsed.coefficients, make_ellipsoid(grid, (1, 1, 1.2)).coefficients)

    path = tmp_path / "snap.json"
    save_snapshot(parsed, 0.25, path)
    reloaded = parse_shape(f"snapshot {path}", grid)
    np.testing.assert_array_equal(reloaded.coefficients, parsed.coefficients)


def test_parse_shape_errors():
    grid = standard_grid(2, 8)
    for bad in ("cube 1", "sphere", "sphere 1 + Z(2,0)*0.1", "sphere -1"):
        with pytest.raises(ValueError):
            parse_shape(bad, grid)


def test_random_pinched_body_deterministic_and_in_cone():
    grid = standard_grid(2, 16)
    one = random_pinched_body(grid, np.random.default_rng(11))
    two = random_pinched_body(grid, np.random.default_rng(11))
    np.testing.assert_array_equal(one.coefficients, two.coefficients)

    status = pinching_status(one, default_cone_threshold(2))
    assert status.in_cone
    assert status.max_ratio > 0.0

    # stays within the band limit needed for exact degree-2 quadrature
    tail = one.coefficients[(2 * grid.degree // 3 + 1) ** 2 :]
    assert np.all(tail == 0.0)


def test_random_pinched_body_n1():
    grid = standard_grid(1, 16)
    curve = random_pinched_body(grid, np.random.default_rng(3))
    assert np.all(curvature(curve).kappa > 0.0)

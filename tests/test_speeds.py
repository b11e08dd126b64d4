import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvflow.body import elementary_symmetric
from curvflow.speeds import (
    check_conditions,
    estimate_mu,
    make_speed,
    parse_speed,
    verify_derivative_bounds,
)


def all_speeds(dimension, alpha):
    speeds = [
        make_speed("mean", dimension, alpha=alpha),
        make_speed("norm", dimension, alpha=alpha),
        make_speed("gauss", dimension, alpha=alpha),
    ]
    for k in range(1, dimension + 1):
        speeds.append(make_speed("ek", dimension, alpha=alpha, k=k))
    return speeds


def in_cone_samples(rng, dimension, count):
    # positive curvature tuples with mild anisotropy
    return 1.0 + 0.4 * rng.uniform(-1.0, 1.0, size=(count, dimension))


@pytest.mark.parametrize("dimension", [1, 2])
def test_column_sums_equal_numpy_sums(dimension):
    # value, gradient and trace_gradient add kappa's columns; the formulas
    # they replace summed over the last axis with np.sum
    kappa = 0.5 + np.random.default_rng(dimension).random((257, dimension))
    for speed in all_speeds(dimension, alpha=2.5):
        n, a = speed.dimension, speed.alpha
        gradient = speed.gradient(kappa)
        if speed.kind == "mean":
            h = np.sum(kappa, axis=-1)
            value = h**a
            np.testing.assert_array_equal(
                gradient, np.repeat((a * h ** (a - 1.0))[..., None], n, axis=-1)
            )
        elif speed.kind == "norm":
            q = np.sum(kappa**2, axis=-1)
            value = n ** (a / 2.0) * q ** (a / 2.0)
            front = n ** (a / 2.0) * a * q ** (a / 2.0 - 1.0)
            np.testing.assert_array_equal(gradient, front[..., None] * kappa)
        if speed.kind in ("mean", "norm"):
            np.testing.assert_array_equal(speed.value(kappa), value)
        np.testing.assert_array_equal(speed.trace_gradient(kappa), np.sum(gradient, axis=-1))
        np.testing.assert_array_equal(speed.gradient(kappa[0]), gradient[0])


def test_mean_power_value():
    speed = make_speed("mean", 2, alpha=2.0)
    assert speed.value(np.array([1.0, 2.0])) == pytest.approx(9.0, abs=1e-14)


def test_ek_power_value():
    speed = make_speed("ek", 2, alpha=2.0, k=2)
    assert speed.value(np.array([1.0, 1.0])) == pytest.approx(4.0, abs=1e-14)


def test_norm_power_value():
    speed = make_speed("norm", 2, alpha=2.0)
    assert speed.value(np.array([1.0, 2.0])) == pytest.approx(10.0, abs=1e-13)


def test_normalization_on_umbilic_tuple():
    for n in (1, 2, 3):
        for alpha in (1.5, 2.0, 3.0):
            ones = np.ones(n)
            for speed in all_speeds(n, alpha):
                assert speed.value(ones) == pytest.approx(n**alpha, rel=1e-13)
                assert speed.normalization == pytest.approx(n**alpha, rel=1e-15)


def test_gauss_is_top_degree_ek():
    rng = np.random.default_rng(0)
    kappa = in_cone_samples(rng, 3, 50)
    gauss = make_speed("gauss", 3, alpha=2.5)
    ek = make_speed("ek", 3, alpha=2.5, k=3)
    np.testing.assert_allclose(gauss.value(kappa), ek.value(kappa), rtol=1e-14)
    np.testing.assert_allclose(gauss.gradient(kappa), ek.gradient(kappa), rtol=1e-13)


@st.composite
def _speed_and_curvatures(draw):
    n = draw(st.integers(1, 4), label="dimension")
    kind = draw(st.sampled_from(["mean", "norm", "ek"]), label="kind")
    k = draw(st.integers(1, n), label="k") if kind == "ek" else None
    alpha = draw(st.floats(1.0, 6.0, exclude_min=True), label="alpha")
    kappa = draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n), label="kappa")
    return make_speed(kind, n, alpha=alpha, k=k), np.array(kappa)


@settings(deadline=None)
@given(case=_speed_and_curvatures(), scale=st.floats(0.1, 10.0))
def test_homogeneity(case, scale):
    speed, kappa = case
    np.testing.assert_allclose(
        speed.value(scale * kappa), scale**speed.alpha * speed.value(kappa), rtol=1e-12
    )


@settings(deadline=None)
@given(case=_speed_and_curvatures())
def test_euler_identity(case):
    # degree-alpha homogeneity: sum kappa_i df/dkappa_i = alpha f
    speed, kappa = case
    lhs = np.sum(kappa * speed.gradient(kappa), axis=-1)
    np.testing.assert_allclose(lhs, speed.alpha * speed.value(kappa), rtol=1e-12)


@settings(deadline=None)
@given(kappa=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=4))
def test_elementary_symmetric_matches_vieta(kappa):
    # prod_i (x + kappa_i) = sum_k sigma_k x^(n - k), whose coefficients
    # np.poly(-kappa) lists from the leading one down
    kappa = np.array(kappa)
    sigma = elementary_symmetric(kappa)
    assert len(sigma) == kappa.size + 1
    np.testing.assert_allclose(sigma, np.poly(-kappa), rtol=1e-13, atol=0)


@settings(deadline=None)
@given(
    alpha=st.floats(1.0, 6.0, exclude_min=True),
    kappa=st.lists(st.floats(1e-2, 1e2), min_size=2, max_size=2),
)
def test_surface_e2_power_closed_form(alpha, kappa):
    # pow_Ek:2 at n = 2 is (4 k1 k2)**(alpha/2), with partials
    # 2 alpha (4 k1 k2)**(alpha/2 - 1) times the other curvature
    k1, k2 = kappa
    speed = make_speed("ek", 2, alpha=alpha, k=2)
    product = 4.0 * k1 * k2
    np.testing.assert_allclose(
        speed.value(np.array(kappa)), product ** (alpha / 2.0), rtol=1e-15, atol=0
    )
    front = 2.0 * alpha * product ** (alpha / 2.0 - 1.0)
    np.testing.assert_allclose(
        speed.gradient(np.array(kappa)), [front * k2, front * k1], rtol=1e-15, atol=0
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for n in (2, 3):
        kappa = in_cone_samples(rng, n, 10)
        for alpha in (1.5, 2.0, 3.0):
            for speed in all_speeds(n, alpha):
                grad = speed.gradient(kappa)
                for i in range(n):
                    bump = np.zeros(n)
                    bump[i] = h
                    fd = (speed.value(kappa + bump) - speed.value(kappa - bump)) / (2 * h)
                    np.testing.assert_allclose(grad[:, i], fd, rtol=2e-8, atol=1e-10)


def test_gradient_positive_in_cone():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        kappa = in_cone_samples(rng, n, 200)
        for speed in all_speeds(n, 2.0):
            assert np.all(speed.gradient(kappa) > 0.0)
            assert np.all(speed.trace_gradient(kappa) > 0.0)


def test_parse_speed_grammar():
    speed = parse_speed("pow_Ek:1,alpha=1.5", 2)
    assert speed.kind == "ek" and speed.k == 1
    assert speed.alpha == 1.5
    assert speed.delta0 == pytest.approx(0.45)

    plain = parse_speed("pow_mean", 2)
    assert plain.kind == "mean" and plain.alpha == 2.0

    gauss = parse_speed("pow_gauss,delta0=0.3", 2)
    assert gauss.kind == "ek" and gauss.k == 2
    assert gauss.delta0 == 0.3

    curve = parse_speed("pow_mean,alpha=3", 1)
    assert curve.delta0 == np.inf

    assert parse_speed("pow_norm,alpha=2.5", 2).describe() == "pow_norm,alpha=2.5,delta0=0.45"


def test_parse_speed_errors():
    for bad in (
        "pow_cube",
        "pow_Ek",
        "pow_Ek:0",
        "pow_Ek:5",
        "pow_mean:2",
        "pow_mean,alpha=1.0",
        "pow_mean,beta=2",
    ):
        with pytest.raises(ValueError):
            parse_speed(bad, 2)
    for dimension in (0, -1):
        with pytest.raises(ValueError, match="dimension"):
            parse_speed("pow_mean", dimension)
        with pytest.raises(ValueError, match="dimension"):
            make_speed("mean", dimension, delta0=0.5)


def test_estimate_mu_quadratic_speeds():
    # H^2 and 2|A|^2 are quadratic in the matrix, so the central second
    # difference is exact: both have largest second derivative 4
    mu_mean = estimate_mu(make_speed("mean", 2, alpha=2.0), np.random.default_rng(5))
    assert mu_mean == pytest.approx(4.0, rel=1e-6)
    mu_norm = estimate_mu(make_speed("norm", 2, alpha=2.0), np.random.default_rng(6))
    assert mu_norm == pytest.approx(4.0, rel=1e-6)


def test_estimate_mu_deterministic():
    speed = make_speed("ek", 2, alpha=1.5, k=2)
    a = estimate_mu(speed, np.random.default_rng(9))
    b = estimate_mu(speed, np.random.default_rng(9))
    assert a == b
    assert a > 0.0


# ---------------------------------------------------------------------------
# second derivatives and admissibility screening
# ---------------------------------------------------------------------------


def _all_speeds(dimension):
    speeds = [
        make_speed("mean", dimension),
        make_speed("norm", dimension),
        make_speed("gauss", dimension),
    ]
    if dimension >= 2:
        speeds.append(make_speed("ek", dimension, k=2))
    return speeds


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_check_conditions_pass_for_builtins(dimension):
    for base in _all_speeds(dimension):
        for alpha in (1.5, 3.0):
            speed = make_speed(base.kind, dimension, alpha=alpha, k=base.k)
            report = check_conditions(speed, samples=128)
            assert report.passed, report.summary()
            names = [c.name for c in report.checks]
            assert names == [
                "positivity",
                "normalization",
                "monotonicity",
                "homogeneity",
                "euler",
                "gradient_fd",
            ]


def test_check_conditions_flags_broken_gradient():
    class BrokenSpeed:
        dimension = 2
        alpha = 2.0
        delta0 = 0.45
        normalization = 4.0

        def describe(self):
            return "broken"

        def value(self, kappa):
            return np.sum(np.asarray(kappa, dtype=float), axis=-1) ** 2

        def gradient(self, kappa):
            return np.ones(np.asarray(kappa, dtype=float).shape)

    report = check_conditions(BrokenSpeed(), samples=64)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "gradient_fd" in failed and "euler" in failed
    for check in report.failures():
        assert len(check.witness) == 2


def test_derivative_bounds_quadratic_speeds_tight():
    # f = 2(k1^2 + k2^2) sits exactly on the envelope when mu = 4
    norm2 = make_speed("norm", 2)
    report = verify_derivative_bounds(norm2, 4.0, samples=256)
    assert report.passed
    assert report.value_margin == pytest.approx(0.0, abs=1e-12)
    assert not verify_derivative_bounds(norm2, 3.9, samples=256).passed

    report = verify_derivative_bounds(make_speed("mean", 2), 0.0, samples=128)
    assert report.passed

    gauss = make_speed("gauss", 2)
    report = verify_derivative_bounds(gauss, 4.0, samples=256)
    assert report.passed
    assert report.value_margin == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_estimated_mu_dominates_cone(dimension, alpha):
    rng = np.random.default_rng(23)
    for base in _all_speeds(dimension):
        speed = make_speed(base.kind, dimension, alpha=alpha, k=base.k)
        mu = estimate_mu(speed, rng)
        report = verify_derivative_bounds(speed, 1.1 * mu, samples=512)
        assert report.passed, (speed.describe(), mu, report)

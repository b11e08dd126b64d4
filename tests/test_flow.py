import numpy as np
import pytest

import curvflow.flow as flow_module
from curvflow import spectral
from curvflow.body import DEFAULT_CONVEXITY_TOL, ConvexityLostError, support_from_coefficients
from curvflow.flow import (
    DEFAULT_SAFETY,
    MAX_SAFETY,
    MAX_STEP_RETRIES,
    collapse_radius,
    estimate_collapse,
    rescaled_profile,
    run_flow,
    sphere_lifetime,
)
from curvflow.geometry import RadiiSolver, direct_radii, mixed_volumes
from curvflow.shapes import make_ellipsoid, make_sphere
from curvflow.speeds import Speed, make_speed, parse_speed
from curvflow.spectral import SphereGrid, standard_grid


def sphere_radius_law(radius, time, speed):
    """Radius of an initially round sphere after flowing for ``time``."""
    a, c = speed.alpha, speed.normalization
    remaining = radius ** (1.0 + a) - (1.0 + a) * c * time
    if remaining < 0.0:
        raise ValueError(f"time {time} exceeds the sphere lifetime")
    return float(remaining ** (1.0 / (1.0 + a)))


def limit_point_error(trajectory, estimate, tail_fraction=0.2):
    """Distance of each tail incenter from the collapse point, in units of
    the comparison radius at that snapshot's time."""
    return np.array(
        [
            float(np.linalg.norm(snap.radii.incenter - estimate.point))
            / collapse_radius(estimate, snap.time)
            for snap in flow_module._tail(trajectory, tail_fraction)
        ]
    )


def test_sphere_follows_exact_law():
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2, alpha=2.0)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.5)
    assert traj.stop_reason == "target_radius"
    assert traj.steps > 10
    for snap in traj.snapshots:
        law = sphere_radius_law(1.0, snap.time, speed)
        assert snap.radii.r_minus == pytest.approx(law, rel=1e-6)
        assert snap.radii.r_plus == pytest.approx(law, rel=1e-6)

    estimate = estimate_collapse(traj)
    assert estimate.time == pytest.approx(sphere_lifetime(1.0, speed), abs=1e-6)
    assert sphere_lifetime(1.0, speed) == pytest.approx(1.0 / 12.0)
    np.testing.assert_allclose(estimate.point, 0.0, atol=1e-8)


def test_sphere_law_time_checkpoint():
    # the first snapshot past t = 0.07 sits on (1 - 12 t)^(1/3)
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2, alpha=2.0)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.5)
    past = [snap for snap in traj.snapshots if snap.time >= 0.07]
    assert past, "run stopped before t = 0.07"
    snap = past[0]
    expected = (1.0 - 12.0 * snap.time) ** (1.0 / 3.0)
    assert snap.radii.r_minus == pytest.approx(expected, rel=1e-6)


def test_zero_steps_is_identity():
    grid = standard_grid(2, 6)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    traj = run_flow(body, make_speed("mean", 2), max_steps=0)
    assert traj.stop_reason == "max_steps"
    assert traj.steps == 0
    assert len(traj.snapshots) == 1
    np.testing.assert_array_equal(traj.final.body.coefficients, body.coefficients)


def test_determinism():
    grid = standard_grid(2, 6)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    speed = make_speed("norm", 2, alpha=1.5)
    a = run_flow(body, speed, max_steps=40)
    b = run_flow(body, speed, max_steps=40)
    assert a.times().tolist() == b.times().tolist()
    np.testing.assert_array_equal(a.final.body.coefficients, b.final.body.coefficients)


def test_monotone_invariants():
    grid = standard_grid(2, 8)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    traj = run_flow(body, make_speed("mean", 2), max_steps=120)
    times = traj.times()
    assert np.all(np.diff(times) > 0.0)
    assert np.all(np.diff(traj.r_plus()) < 0.0)
    volumes = [mixed_volumes(snap.body).canonical[-1] for snap in traj.snapshots]
    assert np.all(np.diff(volumes) < 0.0)


def test_snapshot_cadence():
    grid = standard_grid(2, 6)
    traj = run_flow(make_sphere(grid, 1.0), make_speed("mean", 2), max_steps=25, snapshot_every=10)
    assert [snap.step for snap in traj.snapshots] == [0, 10, 20, 25]
    assert traj.stop_reason == "max_steps"


def test_out_of_cone_stops_immediately():
    grid = standard_grid(2, 12)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.6))
    speed = make_speed("mean", 2, delta0=1e-4)
    traj = run_flow(body, speed)
    assert traj.stop_reason == "cone_exit"
    assert traj.steps == 0


def test_translation_equivariance():
    grid = standard_grid(2, 6)
    speed = make_speed("mean", 2)
    offset = np.array([0.05, -0.02, 0.03])
    plain = run_flow(make_sphere(grid, 1.0), speed, max_steps=10)
    moved = run_flow(make_sphere(grid, 1.0, center=offset), speed, max_steps=10)
    assert moved.final.time == pytest.approx(plain.final.time, rel=1e-12)
    shift = grid.nodes @ offset
    np.testing.assert_allclose(
        moved.final.body.values, plain.final.body.values + shift, atol=1e-10
    )


def test_nonconvex_input_raises():
    grid = standard_grid(2, 6)
    with pytest.raises(ConvexityLostError):
        run_flow(make_sphere(grid, 1.0), make_speed("mean", 2), convexity_tol=1e6)


def test_retry_exhaustion_flags_convexity_lost(monkeypatch):
    grid = standard_grid(2, 6)
    body = make_sphere(grid, 1.0)
    original = flow_module._Stepper.evaluate
    calls = {"count": 0}

    def flaky(self, coefficients):
        calls["count"] += 1
        if calls["count"] > 1:
            raise ConvexityLostError(0, -1.0, 1.0)
        return original(self, coefficients)

    monkeypatch.setattr(flow_module._Stepper, "evaluate", flaky)
    traj = run_flow(body, make_speed("mean", 2))
    assert traj.stop_reason == "convexity_lost"
    assert traj.steps == 0
    assert traj.retries == MAX_STEP_RETRIES + 1
    assert len(traj.snapshots) == 1


def test_nan_speed_is_a_numerical_failure(monkeypatch):
    # NaN radii must take the retry path, not pass as a cone exit
    grid = standard_grid(2, 6)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    original = Speed.value
    calls = {"count": 0}

    def poisoned(self, kappa):
        calls["count"] += 1
        f = original(self, kappa)
        return np.full_like(f, np.nan) if calls["count"] > 40 else f

    monkeypatch.setattr(Speed, "value", poisoned)
    traj = run_flow(body, make_speed("mean", 2), snapshot_every=1)
    assert traj.stop_reason == "convexity_lost"
    assert traj.retries == MAX_STEP_RETRIES + 1
    assert np.all(np.isfinite(traj.final.body.coefficients))


# above MAX_SAFETY: at L = 128 a curve run with c_safe 0.3 used to end as a
# clean target_radius with an evolution residual of 4.7e3
@pytest.mark.parametrize("c_safe", [-0.2, 0.0, float("nan"), float("inf"), 0.283, 0.3, 0.4, 2.0, 20.0])
def test_run_flow_rejects_bad_step_safety(c_safe):
    body = make_sphere(standard_grid(2, 6), 1.0)
    with pytest.raises(ValueError, match="c_safe"):
        run_flow(body, make_speed("mean", 2), c_safe=c_safe)


def test_max_safety_is_inside_rk4s_real_stability_interval():
    # the top curve mode's decay rate times dt is at most c_safe * pi**2
    def amplification(z):
        return abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)

    edge = -MAX_SAFETY * np.pi**2
    assert all(amplification(z) <= 1.0 for z in np.linspace(edge, 0.0, 2001))
    assert amplification(1.001 * edge) > 1.0
    assert DEFAULT_SAFETY < MAX_SAFETY


@pytest.mark.parametrize(
    "option, value",
    [
        ("stop_fraction", 1.5),
        ("stop_fraction", 1.0),
        ("stop_fraction", 0.0),
        ("stop_fraction", -1.0),
        ("stop_fraction", float("nan")),
        ("convexity_tol", -1.0),
        ("convexity_tol", float("nan")),
        ("convexity_tol", float("inf")),
        ("max_steps", -1),
    ],
)
def test_run_flow_rejects_bad_inputs(option, value):
    # a bad value must not end as a clean target_radius, run to max_steps,
    # or pass as a convexity failure
    body = make_sphere(standard_grid(2, 6), 1.0)
    options = {"max_steps": 3, option: value}
    with pytest.raises(ValueError, match=option):
        run_flow(body, make_speed("mean", 2), **options)


def test_run_flow_accepts_edge_inputs():
    body = make_sphere(standard_grid(2, 6), 1.0)
    speed = make_speed("mean", 2)
    assert run_flow(body, speed, convexity_tol=0.0, max_steps=3).steps == 3
    assert run_flow(body, speed, c_safe=MAX_SAFETY, max_steps=3).steps == 3
    assert run_flow(body, speed, max_steps=0).stop_reason == "max_steps"


def test_stages_compute_only_kappa(monkeypatch):
    # only accepted states (the initial one and one per step) feed
    # pinching_status; the Runge-Kutta stages read kappa alone
    from functools import cached_property

    from curvflow import body as body_module

    touched = []
    for name in ("radii_sigma", "elementary", "mean", "traceless_norm2"):
        original = body_module.CurvatureField.__dict__[name].func

        def counting(self, original=original):
            touched.append(self)
            return original(self)

        prop = cached_property(counting)
        prop.__set_name__(body_module.CurvatureField, name)
        monkeypatch.setattr(body_module.CurvatureField, name, prop)
    built = []
    original_init = body_module.CurvatureField.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(body_module.CurvatureField, "__init__", counting_init)
    body = make_ellipsoid(standard_grid(2, 6), (1.0, 1.0, 1.1))
    traj = run_flow(body, make_speed("mean", 2), max_steps=5, snapshot_every=100)
    assert traj.steps == 5 and traj.retries == 0
    assert len(built) == 4 * traj.steps + 1
    assert len({id(curv) for curv in touched}) == traj.steps + 1


def test_snapshots_solve_radii_now_and_centres_on_first_read(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(RadiiSolver, name)

        def counted(self, label, *args):
            calls.append((name, label))
            return original(self, label, *args)

        monkeypatch.setattr(RadiiSolver, name, counted)

    counting("_program")
    counting("_centre")
    body = make_ellipsoid(standard_grid(1, 16), (1.0, 1.2))
    traj = run_flow(body, make_speed("mean", 1), stop_fraction=0.5, snapshot_every=5)
    assert traj.stop_reason == "target_radius"  # every snapshot's radii were read
    assert calls == [("_program", "inradius"), ("_program", "circumradius")] * len(
        traj.snapshots
    )
    calls.clear()
    estimate = estimate_collapse(traj)
    assert calls == [("_centre", "inradius")]
    np.testing.assert_array_equal(estimate.point, traj.final.radii.incenter)
    assert len(calls) == 1  # the centre is kept


def test_fine_grid_operators_built_once_across_runs(monkeypatch):
    grid = standard_grid(2, 6)
    fine = spectral.smooth_grid(2, 12)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.1))
    speed = make_speed("mean", 2)
    built = []
    original = spectral._build_band

    def counting(grid, band):
        if grid is fine:
            built.append(band)
        return original(grid, band)

    monkeypatch.setattr(spectral, "_build_band", counting)
    first = run_flow(body, speed, max_steps=3)
    first_builds = len(built)
    second = run_flow(body, speed, max_steps=3)
    assert first_builds <= 1  # none if another run already used this grid
    assert len(built) == first_builds
    np.testing.assert_array_equal(second.final.body.coefficients, first.final.body.coefficients)
    assert flow_module._Stepper(grid, speed, 1e-8).evaluator.grid is fine


def _largest_prime_factor(n):
    p, largest = 2, 1
    while n > 1:
        if n % p:
            p += 1
        else:
            n //= p
            largest = p
    return largest


def test_stepper_ring_is_the_smallest_even_7_smooth_length():
    # only the fine grid's FFT length moves: its degree stays twice the body's
    speed = make_speed("mean", 1)
    for degree in range(1, 201):
        fine = flow_module._Stepper(SphereGrid(1, degree), speed, 1e-8).evaluator.grid
        n = 4 * degree + 2
        while n % 2 or _largest_prime_factor(n) > 7:
            n += 1
        assert (fine.degree, fine.ring_size) == (2 * degree, n), degree
    rings = [spectral.smooth_grid(1, 2 * degree).ring_size for degree in (32, 64, 128)]
    assert rings == [140, 270, 540]


def test_curve_step_count_is_unchanged_by_the_fine_ring():
    # the smooth fine ring moves each time step by under 1e-3 relative, not
    # the RK4 step count of criterion 12's first rung: 1064 steps at c_safe
    # 0.2, 852 at the default 0.25
    grid = standard_grid(1, 32)
    for c_safe, steps in ((0.2, 1064), (DEFAULT_SAFETY, 852)):
        traj = run_flow(
            make_ellipsoid(grid, (1.0, 1.2)),
            parse_speed("pow_mean,alpha=2", 1),
            c_safe=c_safe,
            stop_fraction=0.5,
            snapshot_every=2,
            rk4=True,
        )
        assert traj.stop_reason == "target_radius"
        assert (traj.steps, traj.retries) == (steps, 0)


def _coefficient_layout_run(body, speed, steps, c_safe):
    """(time, coefficients) after each of ``steps`` RK4 steps carried in
    coefficient vectors, converted to and from the spectrum at every stage."""
    stepper = flow_module._Stepper(body.grid, speed, DEFAULT_CONVEXITY_TOL)
    evaluator = stepper.evaluator
    scale = c_safe * body.grid.min_spacing() ** 2

    def rhs(coefficients):
        k, curv = stepper.evaluate(evaluator.spectrum(coefficients))
        return evaluator.coefficients(k), curv

    coeffs = body.coefficients.copy()
    k1, curv = rhs(coeffs)
    time = 0.0
    states = [(time, coeffs)]
    for _ in range(steps):
        dt = scale / stepper.stiffness(curv)
        k2, _ = rhs(coeffs + 0.5 * dt * k1)
        k3, _ = rhs(coeffs + 0.5 * dt * k2)
        k4, _ = rhs(coeffs + dt * k3)
        coeffs = coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1, curv = rhs(coeffs)
        time += dt
        states.append((time, coeffs))
    return states


@pytest.mark.parametrize("axes, degree", [((1.0, 1.2), 16), ((1.0, 1.0, 1.1), 8)])
def test_spectrum_layout_changes_no_bit(axes, degree):
    # run_flow carries its stages as the transforms' complex spectrum and
    # converts only its snapshots; the coefficient layout gives the same bits
    body = make_ellipsoid(standard_grid(len(axes) - 1, degree), axes)
    speed = parse_speed("pow_mean,alpha=2", body.dimension)
    traj = run_flow(body, speed, c_safe=0.2, max_steps=30, snapshot_every=1, rk4=True)
    assert traj.integrator == "rk4"
    reference = _coefficient_layout_run(body, speed, 30, 0.2)
    assert traj.steps == 30 and len(traj.snapshots) == len(reference)
    for snap, (time, coeffs) in zip(traj.snapshots, reference):
        assert np.float64(snap.time).tobytes() == np.float64(time).tobytes()
        assert snap.body.coefficients.tobytes() == coeffs.tobytes()


def test_default_curve_steps_do_not_grow_with_the_band_limit():
    # ETDRK4 takes the same step at every rung of criterion 12's ladder, where
    # RK4 takes 852 / 3,304 / 13,014
    speed = parse_speed("pow_mean,alpha=2", 1)
    counts = []
    for degree in (32, 64, 128):
        body = make_ellipsoid(standard_grid(1, degree), (1.0, 1.2))
        traj = run_flow(body, speed, stop_fraction=0.5, snapshot_every=2)
        assert traj.stop_reason == "target_radius" and traj.retries == 0
        assert traj.integrator == "etdrk4"
        counts.append(traj.steps)
    assert max(counts) <= 1.01 * min(counts)
    assert 10 * counts[-1] <= 13_014


def _rk4_reference(body, speed, times, c_safe=0.05):
    """(r_-, r_+) at each of the increasing ``times``, by RK4 at ``c_safe``
    with each last step shortened to land on the time."""
    stepper = flow_module._Stepper(body.grid, speed, DEFAULT_CONVEXITY_TOL)
    evaluator = stepper.evaluator
    scale = c_safe * body.grid.min_spacing() ** 2
    state = evaluator.spectrum(body.coefficients)
    rhs, curv = stepper.evaluate(state)
    time, radii = 0.0, []
    for end in times:
        while time < end:
            dt = min(scale / stepper.stiffness(curv), end - time)
            state = flow_module._Rk4().step(stepper.evaluate, state, rhs, dt, 0)
            rhs, curv = stepper.evaluate(state)
            time = end if dt == end - time else time + dt
        current = support_from_coefficients(body.grid, evaluator.coefficients(state))
        found = direct_radii(current)
        radii.append((found.r_minus, found.r_plus))
    return radii


def _radii_error(traj, reference):
    final = traj.final.radii
    return max(abs(final.r_minus / reference[0] - 1.0), abs(final.r_plus / reference[1] - 1.0))


@pytest.mark.parametrize("axes", [(1.0, 1.2), (1.0, 1.6)])
def test_etdrk4_is_fourth_order_against_a_fine_rk4_reference(axes):
    # r_- and r_+ within 1e-8 relative of RK4 at c_safe 0.05 at the same
    # time (1.4e-10 and 6.7e-9 measured), and a halved step scale cuts the
    # error by about 2**4 (15.1 and 12.9 measured)
    body = make_ellipsoid(standard_grid(1, 32), axes)
    speed = parse_speed("pow_mean,alpha=2", 1)
    runs = [
        run_flow(body, speed, c_safe=c_safe, stop_fraction=0.5, snapshot_every=2)
        for c_safe in (DEFAULT_SAFETY, DEFAULT_SAFETY / 2)
    ]
    assert [traj.integrator for traj in runs] == ["etdrk4", "etdrk4"]
    ends = sorted(traj.final.time for traj in runs)
    reference = dict(zip(ends, _rk4_reference(body, speed, ends)))
    errors = [_radii_error(traj, reference[traj.final.time]) for traj in runs]
    assert errors[0] <= 1e-8
    assert errors[0] >= 12.0 * errors[1]


def test_contour_tables_are_exact_at_the_translation_and_growing_modes():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def closed_form(z):
        z = mpmath.mpf(z)
        e = mpmath.exp(z)
        return [
            e,
            mpmath.exp(z / 2),
            (mpmath.exp(z / 2) - 1) / z,
            (-4 - z + e * (4 - 3 * z + z**2)) / z**3,
            (2 + z + e * (z - 2)) / z**3,
            (-4 - 3 * z - z**2 + e * (4 - z)) / z**3,
        ]

    theta = DEFAULT_SAFETY * flow_module.ETD_SPACING**2
    z = theta * (1.0 - np.arange(129.0) ** 2)  # m = 0 grows, m = 1 translates
    tables = np.array(flow_module._etdrk4_tables(z))
    # z = 0: exp(z), exp(z/2) and the weights' limits, 1/2 and 1/6
    np.testing.assert_allclose(tables[:, 1], [1, 1, 1 / 2, 1 / 6, 1 / 6, 1 / 6], rtol=1e-15)
    growing = np.array([float(v) for v in closed_form(z[0])])
    np.testing.assert_allclose(tables[:, 0], growing, rtol=1e-15)
    # elsewhere the contour passes near 0 for z near -1, which costs ~1e-12
    for m in range(2, 129):
        exact = np.array([float(v) for v in closed_form(z[m])])
        np.testing.assert_allclose(tables[:, m], exact, rtol=1e-11, atol=1e-300)


def test_a_poisoned_curve_run_builds_one_table_set_per_halving(monkeypatch):
    # the tables are built once per run, then once for each halving a retry
    # needs; NaN radii still end the run as convexity_lost
    grid = standard_grid(1, 64)
    body = make_ellipsoid(grid, (1.0, 1.2))
    builds = []
    original_tables = flow_module._etdrk4_tables

    def counted_tables(z):
        builds.append(z)
        return original_tables(z)

    original_value = Speed.value
    calls = {"count": 0}

    def poisoned(self, kappa):
        calls["count"] += 1
        f = original_value(self, kappa)
        return np.full_like(f, np.nan) if calls["count"] > 40 else f

    monkeypatch.setattr(flow_module, "_etdrk4_tables", counted_tables)
    monkeypatch.setattr(Speed, "value", poisoned)
    traj = run_flow(body, make_speed("mean", 1), snapshot_every=1)
    assert traj.integrator == "etdrk4"
    assert traj.stop_reason == "convexity_lost"
    assert traj.retries == MAX_STEP_RETRIES + 1
    assert traj.steps > 0
    assert len(builds) == MAX_STEP_RETRIES + 1
    for halvings, z in enumerate(builds):
        np.testing.assert_array_equal(z, builds[0] * 0.5**halvings)
    assert np.all(np.isfinite(traj.final.body.coefficients))


def test_step_sizes_record_every_accepted_step(monkeypatch):
    # the record doubles when a run outgrows its first block
    body = make_ellipsoid(standard_grid(1, 16), (1.0, 1.2))
    speed = make_speed("mean", 1)
    whole = run_flow(body, speed, max_steps=10, snapshot_every=1)
    monkeypatch.setattr(flow_module, "STEP_RECORD", 3)
    grown = run_flow(body, speed, max_steps=10, snapshot_every=1)
    assert grown.step_sizes == whole.step_sizes
    dts = np.diff(whole.times())
    np.testing.assert_allclose(whole.step_sizes, [dts.min(), np.median(dts), dts.max()], rtol=1e-12)
    assert run_flow(body, speed, max_steps=0).step_sizes is None


@pytest.mark.parametrize("poison", [False, True])
def test_rhs_evaluations_count_the_synthesis_calls(poison, monkeypatch):
    # every evaluation synthesizes the fine-grid state once, failed ones too
    calls = {"state": 0, "value": 0}
    original_state = spectral.TruncatedEvaluator.state
    original_value = Speed.value

    def counted(self, spectrum):
        calls["state"] += 1
        return original_state(self, spectrum)

    def poisoned(self, kappa):
        calls["value"] += 1
        f = original_value(self, kappa)
        return np.full_like(f, np.nan) if poison and calls["value"] > 40 else f

    monkeypatch.setattr(spectral.TruncatedEvaluator, "state", counted)
    monkeypatch.setattr(Speed, "value", poisoned)
    body = make_ellipsoid(standard_grid(1, 16), (1.0, 1.2))
    traj = run_flow(body, make_speed("mean", 1), stop_fraction=0.5, snapshot_every=5)
    assert traj.rhs_evaluations == calls["state"]
    if poison:
        assert traj.stop_reason == "convexity_lost"
        assert traj.retries == MAX_STEP_RETRIES + 1
    else:
        assert traj.stop_reason == "target_radius" and traj.retries == 0
        assert traj.rhs_evaluations == 4 * traj.steps + 1


def test_rescaling_and_limit_point():
    grid = standard_grid(2, 8)
    speed = make_speed("mean", 2)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.4)
    estimate = estimate_collapse(traj)
    profile = rescaled_profile(traj.snapshots[-2], estimate)
    np.testing.assert_allclose(profile, 1.0, atol=1e-4)
    errors = limit_point_error(traj, estimate)
    assert np.max(errors) < 1e-6
    with pytest.raises(ValueError):
        collapse_radius(estimate, estimate.time + 1e-9)
    with pytest.raises(ValueError):
        sphere_radius_law(1.0, 1.0, speed)


def test_curve_flow_n1():
    grid = standard_grid(1, 16)
    speed = make_speed("mean", 1, alpha=2.0)
    traj = run_flow(make_sphere(grid, 1.0), speed, stop_fraction=0.5)
    assert traj.stop_reason == "target_radius"
    for snap in traj.snapshots:
        law = sphere_radius_law(1.0, snap.time, speed)
        assert snap.radii.r_minus == pytest.approx(law, rel=1e-6)
    # lifetime of the unit circle under kappa^2 is 1/3
    assert estimate_collapse(traj).time == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_ellipsoid_rounds_out():
    grid = standard_grid(2, 12)
    body = make_ellipsoid(grid, (1.0, 1.0, 1.15))
    traj = run_flow(body, make_speed("mean", 2), stop_fraction=0.35)
    assert traj.stop_reason == "target_radius"
    first = traj.snapshots[0].radii
    last = traj.final.radii
    assert last.ratio < first.ratio
    assert last.ratio < 1.02
    # collapse happens between the inscribed and circumscribed sphere lifetimes
    speed = make_speed("mean", 2)
    estimate = estimate_collapse(traj)
    assert sphere_lifetime(1.0, speed) < estimate.time < sphere_lifetime(1.15, speed)

"""Contraction of convex bodies by curvature-driven speeds.

The state is the support function at band limit L, carried as the complex
spectrum c_cos - i c_sin that the transforms read and write (shape (L + 1,)
on the circle, (L + 1, L + 1) indexed (m, l) on the sphere), so a
Runge-Kutta stage pays for no change of layout; it becomes a coefficient
vector only when a snapshot is stored.  The arithmetic is the same, so the
snapshots are bit-identical to stepping coefficient vectors.
Each right-hand side evaluation synthesizes the support values and the
entries of the radii matrix ``Hess s + s id`` on a finer grid of degree
F = floor(3L / 2), takes the principal curvatures there as its inverse
eigenvalues, applies the speed, and projects back to degree L.  By Orszag's
3/2 rule (J. Atmos. Sci. 28, 1971) that degree is the smallest on which a
product of two band-L fields projects back to band L exactly, so the
quadratic part of the curvature map does not alias; the smooth remainder is
damped spectrally.  Against a grid of degree 2L it takes 0.6 of the nodes
(2,960 against 4,900 at L = 24 on a surface); against one of degree 4L it
moved r_- and r_+ by at most 9e-8 relative at equal times on the reference
runs (pow_norm with alpha = 3 on the (1, 1.2, 1.6) ellipsoid at L = 16, to
half its inradius), 1/500 of that run's own band-limit error, its distance
from the same run at 2L.  That fine grid is
``spectral.smooth_grid``: its rings are the shortest even length of at least
2F + 2 with no prime factor above 5, so the real FFTs of every evaluation
run at their fast lengths (200 rather than 194 = 2 * 97 points at L = 64 on
a curve, 80 rather than 74 = 2 * 37 at L = 24 on a surface); the time step
scales with the body grid's node spacing, which keeps 2L + 2 points.  On the
sphere one evaluation makes one matmul and one inverse FFT for the synthesis
and one FFT and one matmul for the projection, into arrays the stepper owns.
The speeds depend on the principal curvatures alone, so a Runge-Kutta stage
builds nothing else.  Once per accepted state ``body.pinching_status`` and
the step rule's D are read off kappa's columns, in node vectors the
stepper owns.

The step size is dt = c_safe H**2 / D.  D is the largest
F' max(r_max**2, 1) / r_min**2 over the fine nodes: on a curve F' max(kappa**2,
1), at least the diffusion coefficient F' kappa**2 of the linearized flow.
H is a length in angle.

Every body steps with the exponential integrator ETDRK4 (Cox and Matthews
2002).  About the round n-sphere the flow's linearization is diagonal in
the spectrum, with multiplier (F' kappa**2 / n)(n - lambda) on a mode of
Laplace eigenvalue -lambda: m**2 on mode m of a curve, l (l + 1) on degree
l of a surface.  The stepper splits off the linear part (D / n)(n - lambda),
integrates it exactly, and treats the remainder with the scheme's four
stages; no mode limits the step.  On a curve the remainder's diffusion
coefficient F' kappa**2 - D is never positive, so it adds no stiffness; on
a surface the split is exact about the round sphere, which the flows
approach.  H is max(h, ``ETD_SPACING``), h the body grid's node spacing, so
the step stops shrinking with the band limit once h is finer (L >= 22): on
the (1, 1.2) ellipse down to half its
inradius it takes 386 steps at L = 32, 64 and 128, where RK4 takes 851,
3,304 and 13,013, and on the (1, 1, 1.1) ellipsoid under H**2 down to 0.9
of its inradius 63 at L = 24, 32 and 48, where RK4 takes 84, 144 and 314.
Since dt D = c_safe H**2 whatever the state, each mode's z = (dt D / n)(n -
lambda) is fixed for the run, so the scheme's phi-function tables are built
once per run, and once more for each halving a retried step needs, as the
32-point contour means of Kassam and Trefethen (2005).

A run stops on the first accepted step whose inradius is at most
``stop_fraction`` of the initial one, whatever ``snapshot_every`` is.  A
snapshot step solves its radii anyway; between snapshots no linear program
is solved while a bound rules the target out.  The inradius program is
1-Lipschitz in the largest change of a node value, and a band-limited
change is bounded at every point by its spectrum (``spectral.sup_bound``),
so the inradius stays above that of the last solve less that bound, with
``TARGET_SLACK`` for rounding.  Only a step whose bound reaches the target
synthesizes its node values and solves the inradius program alone
(``RadiiSolver.inradius``); if that reaches the target the step is stored
as the last snapshot, else it anchors the bound.  On one shared x86 core
the bound takes about 3 microseconds on a degree-64 curve and 8 on a
degree-24 surface, whose steps take about 190 and 780, and a run makes a
few such solves near its end.

Given ``rk4=True``, a body steps with classic fourth-order Runge-Kutta and
H = h instead, the reference the exponential steps are measured against.
The flows are parabolic, so stability, not accuracy, bounds its dt: the top
curve mode's decay rate times dt is at most c_safe pi**2 (L - 1) / (L + 1),
and ``c_safe`` may not exceed ``MAX_SAFETY`` = 2.785 / pi**2, the edge of
RK4's real stability interval over pi**2, whichever integrator steps.  The
default 0.25 puts that mode at 87% of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .body import (
    ConvexityLostError,
    CurvatureField,
    DEFAULT_CONVEXITY_TOL,
    SupportFunction,
    _curvature_from_radii_data,
    curvature,
    pinching_status,
    support_from_coefficients,
)
from .geometry import DirectRadii, MixedVolumes, RadiiSolver, direct_radii, mixed_volumes
from .speeds import Speed
from .spectral import TruncatedEvaluator, smooth_grid, sup_bound

__all__ = [
    "FlowSnapshot",
    "Trajectory",
    "run_flow",
    "CollapseEstimate",
    "estimate_collapse",
]

DEFAULT_SAFETY = 0.25
# Classic Runge-Kutta 4 is stable on the negative real axis down to about
# -2.785.  The step heuristic puts the top curve mode's decay rate times dt at
# c_safe * pi**2 * (L - 1) / (L + 1) < c_safe * pi**2, so a c_safe of at most
# 2.785 / pi**2 (about 0.282) keeps every mode inside that interval.
MAX_SAFETY = 2.785 / np.pi**2
# ETDRK4's length H is at least this angle, so dt D = 0.02 c_safe once the
# node spacing is finer (L >= 22).  At the default c_safe that keeps r_- and
# r_+ within 1e-8 relative of RK4 at c_safe 0.05 on the (1, 1.2) and
# (1, 1.6) ellipses at L = 32, 64 and 128, and within 2e-8 on the reference
# surfaces (1.4e-8 at most, pow_norm with alpha = 3 on the (1, 1.2, 1.6)
# ellipsoid at L = 16).
ETD_SPACING = 0.02**0.5
CONTOUR_POINTS = 32
MAX_STEP_RETRIES = 20
STEP_RECORD = 1 << 16
# The stop test's certificate between inradius solves: the inradius program
# is 1-Lipschitz in the largest change of a node value, which
# ``spectral.sup_bound`` bounds by B, so the inradius is at least r - (1 +
# TARGET_SLACK) B - TARGET_SLACK max|s| for the r and s of the last solve.
# The slack covers the rounding of B and of both node syntheses, and the
# program's own tolerance of 1e-13 max|s| (``geometry._FEAS_TOL``); B alone is
# attained by single-degree changes, to within a factor 1 + 2.2e-16.
TARGET_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class FlowSnapshot:
    """One stored state of a flow run under ``speed``.

    The radii, curvature, speed values and mixed volumes are computed the
    first time they are read and kept on the snapshot, so every monitor,
    writer and check that reads them shares one computation.  The snapshots
    of one run share ``radii_solver``, which warm-starts each radii solve
    from the previous one.  Reading ``radii`` solves the two radius
    programs only; its ``incenter`` and ``circumcenter`` are solved when
    first read, so the snapshots whose centres nobody reads never pay for
    them.
    """

    step: int
    time: float
    body: SupportFunction
    speed: Speed
    radii_solver: RadiiSolver

    @cached_property
    def radii(self) -> DirectRadii:
        return direct_radii(self.body, self.radii_solver)

    @cached_property
    def curv(self) -> CurvatureField:
        return curvature(self.body)

    @cached_property
    def speed_values(self) -> np.ndarray:
        """The speed at the grid nodes."""
        return self.speed.value(self.curv.kappa)

    @cached_property
    def volumes(self) -> MixedVolumes:
        return mixed_volumes(self.body, self.curv)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of one flow run plus how and why it stopped.

    ``stop_reason`` is one of ``target_radius`` (inradius fell below the
    requested fraction of its initial value), ``cone_exit`` (pinching left
    the admissible cone), ``convexity_lost`` (a step kept failing after the
    retry budget), or ``max_steps``.  ``rhs_evaluations`` counts the
    right-hand side evaluations, failed stages included; ``integrator`` is
    "rk4" or "etdrk4", and ``step_sizes`` holds the minimum, median and
    maximum accepted time step (None when no step was accepted).

    A trajectory loaded from a run directory has the defaults: ``stop_reason``
    "loaded" and None for every step counter; each snapshot's ``step`` is
    its index, because a stored run keeps its snapshots, not how they were
    stepped.
    """

    speed: Speed
    snapshots: tuple[FlowSnapshot, ...]
    stop_reason: str = "loaded"
    steps: int | None = None
    retries: int | None = None
    rhs_evaluations: int | None = None
    integrator: str | None = None
    step_sizes: tuple[float, float, float] | None = None

    @property
    def dimension(self) -> int:
        return self.snapshots[0].body.dimension

    @property
    def final(self) -> FlowSnapshot:
        return self.snapshots[-1]

    def times(self) -> np.ndarray:
        return np.array([snap.time for snap in self.snapshots])

    def r_minus(self) -> np.ndarray:
        return np.array([snap.radii.r_minus for snap in self.snapshots])

    def r_plus(self) -> np.ndarray:
        return np.array([snap.radii.r_plus for snap in self.snapshots])


class _Stepper:
    """Dealiased right-hand side evaluation for one (grid, speed) pair, on
    the band-L spectrum of ``TruncatedEvaluator``; ``evaluations`` counts
    the calls, the failed ones included.

    It owns its work arrays: every evaluation synthesizes into the same
    rows and projects into the same spectrum, and the step bookkeeping
    works in three node vectors.
    """

    def __init__(self, grid, speed: Speed, convexity_tol: float):
        self.grid = grid
        self.speed = speed
        self.convexity_tol = convexity_tol
        fine = smooth_grid(grid.dimension, 3 * grid.degree // 2)
        self.evaluator = TruncatedEvaluator(fine, grid.degree)
        self.evaluations = 0
        self._rows = np.empty((2 * grid.dimension, fine.node_count))
        self._projected = np.empty(self.evaluator.spectrum_shape, complex)
        self._work = np.empty((3, fine.node_count))

    def evaluate(self, spectrum: np.ndarray):
        """Curvature on the fine nodes and the spectrum of the projected
        speed deficit."""
        self.evaluations += 1
        rows = self.evaluator.state(spectrum, out=self._rows)
        curv = _curvature_from_radii_data(rows, self.convexity_tol)
        f = self.speed.value(curv.kappa)
        return -self.evaluator.project(f, out=self._projected), curv

    def stiffness(self, curv) -> float | None:
        """D = max F' max(r_max**2, 1) / r_min**2 over the fine nodes, the
        step being c_safe H**2 / D; None if ``pinching_status`` puts the
        curvatures outside the speed's pinching cone."""
        if not pinching_status(curv, self.speed.delta0, self._work).in_cone:
            return None
        kappa = curv.kappa
        k_min, k_max = kappa[:, 0], kappa[:, -1]
        a, b = self._work[:2]
        # as trace * max(1, (1 / k_min)**2) / (1 / k_max)**2, bit for bit
        trace = self.speed.trace_gradient(kappa)
        r2 = np.divide(1.0, k_min, out=a)
        r2 *= r2
        d = np.maximum(1.0, r2, out=a)
        d *= trace
        r2 = np.divide(1.0, k_max, out=b)
        r2 *= r2
        d /= r2
        return float(d.max())


class _Rk4:
    """Classic fourth-order Runge-Kutta."""

    name = "rk4"

    def step(self, evaluate, state, rhs, dt, halvings):
        """The state after one step of ``dt`` from ``state``, whose right-hand
        side is ``rhs``; ``halvings`` is not read."""
        k2, _ = evaluate(state + 0.5 * dt * rhs)
        k3, _ = evaluate(state + 0.5 * dt * k2)
        k4, _ = evaluate(state + dt * k3)
        return state + (dt / 6.0) * (rhs + 2.0 * k2 + 2.0 * k3 + k4)


def _etdrk4_tables(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """exp(z), exp(z / 2) and the ETDRK4 weights q, f1, f2, f3 of real z.

    q = (exp(z/2) - 1) / z, f1 = (-4 - z + exp(z)(4 - 3z + z**2)) / z**3,
    f2 = (2 + z + exp(z)(z - 2)) / z**3, f3 = (-4 - 3z - z**2 + exp(z)(4 - z))
    / z**3, each the mean over ``CONTOUR_POINTS`` points on the unit circle
    about z: the trapezoidal rule for Cauchy's integral, which avoids the
    cancellation of the formulas near z = 0, where they tend to 1/2, 1/6,
    1/6 and 1/6.
    """
    roots = np.exp(1j * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
    w = z[:, None] + roots
    ew = np.exp(w)
    w3 = w**3

    def mean(values):
        return values.mean(axis=1).real

    return (
        np.exp(z),
        np.exp(0.5 * z),
        mean((np.exp(0.5 * w) - 1.0) / w),
        mean((-4.0 - w + ew * (4.0 - 3.0 * w + w**2)) / w3),
        mean((2.0 + w + ew * (w - 2.0)) / w3),
        mean((-4.0 - 3.0 * w - w**2 + ew * (4.0 - w)) / w3),
    )


class _Etdrk4:
    """Cox-Matthews ETDRK4 on the band-L spectrum of an n-dimensional body,
    with linear part (D / n) (n - lambda) on a mode of Laplace eigenvalue
    -lambda (m**2 on the circle, l (l + 1) on the sphere) and dt D =
    ``theta`` before any halving.  On the sphere z depends on l alone, so its
    tables broadcast over m in the (m, l) spectrum."""

    name = "etdrk4"

    def __init__(self, dimension: int, degree: int, theta: float):
        k = np.arange(degree + 1.0)
        lam = k**2 if dimension == 1 else k * (k + 1.0)
        self.z = (theta / dimension) * (dimension - lam)
        self.tables = {}

    def step(self, evaluate, state, rhs, dt, halvings):
        """As ``_Rk4.step``, for a step halved ``halvings`` times from
        dt D = theta."""
        if halvings not in self.tables:
            z = self.z * 0.5**halvings
            e, e_half, q, f1, f2, f3 = _etdrk4_tables(z)
            # complex once here, as each product with the spectrum would cast
            # them; 2 f2 is exact, so the bits are those of the plain formulas
            weights = (e, e_half, f1, 2.0 * f2, f3)
            self.tables[halvings] = (z, q, *(w.astype(complex) for w in weights))
        z, q, e, e_half, f1, f2_twice, f3 = self.tables[halvings]
        linear = (z / dt).astype(complex)
        dt_q = (dt * q).astype(complex)

        def remainder(u):
            return evaluate(u)[0] - linear * u

        # in place; each product and sum has the operands of the scheme's
        # formulas, and IEEE products and sums commute, so the bits are theirs
        n_u = rhs - linear * state
        half = e_half * state
        a = dt_q * n_u
        a += half
        n_a = remainder(a)
        b = dt_q * n_a
        b += half
        n_b = remainder(b)
        c = 2.0 * n_b
        c -= n_u
        c *= dt_q
        c += e_half * a
        n_c = remainder(c)
        out = f1 * n_u
        n_a += n_b
        n_a *= f2_twice
        out += n_a
        out += f3 * n_c
        out *= dt
        out += e * state
        return out


def run_flow(
    body: SupportFunction,
    speed: Speed,
    *,
    c_safe: float = DEFAULT_SAFETY,
    stop_fraction: float = 0.2,
    snapshot_every: int = 10,
    max_steps: int = 200_000,
    convexity_tol: float = DEFAULT_CONVEXITY_TOL,
    rk4: bool = False,
) -> Trajectory:
    """Contract ``body`` under ``speed`` until the inradius hits
    ``stop_fraction`` times its initial value, on the first accepted step
    that does: the stop test of the module docstring runs on every step.

    Every body steps with ETDRK4; ``rk4=True`` steps with RK4 instead, the
    reference the exponential steps are measured against.  Every accepted
    step is screened against the speed's pinching cone; state that leaves it
    stops the run with ``cone_exit``.  A stage
    that loses convexity halves the step and retries, up to
    ``MAX_STEP_RETRIES`` halvings, after which the run stops with the last
    valid state and ``convexity_lost``.

    The initial body must be strictly convex; a non-convex input raises
    ConvexityLostError directly.  A ``stop_fraction`` outside (0, 1), a
    negative or non-finite ``convexity_tol``, a ``c_safe`` outside
    (0, ``MAX_SAFETY``], a ``snapshot_every`` below 1 or a negative
    ``max_steps`` raises ValueError.
    """
    if body.dimension != speed.dimension:
        raise ValueError(
            f"speed dimension {speed.dimension} does not match body dimension {body.dimension}"
        )
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be positive")
    if not 0.0 < c_safe <= MAX_SAFETY:
        raise ValueError(
            f"c_safe must lie in (0, {MAX_SAFETY:.6g}], the RK4 stability bound, got {c_safe!r}"
        )
    if not 0.0 < stop_fraction < 1.0:
        raise ValueError(f"stop_fraction must lie in (0, 1), got {stop_fraction!r}")
    if not 0.0 <= convexity_tol < np.inf:
        raise ValueError(
            f"convexity_tol must be a non-negative finite number, got {convexity_tol!r}"
        )
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps!r}")
    grid = body.grid
    stepper = _Stepper(grid, speed, convexity_tol)
    h_min = grid.min_spacing()
    if rk4:
        scale = c_safe * h_min**2
        integrator = _Rk4()
    else:
        scale = c_safe * max(h_min, ETD_SPACING) ** 2
        integrator = _Etdrk4(grid.dimension, grid.degree, scale)

    evaluator = stepper.evaluator
    state = evaluator.spectrum(body.coefficients)
    rhs, curv = stepper.evaluate(state)
    time = 0.0
    steps = 0
    total_retries = 0
    # Accepted step sizes in one block per run, doubled if a run outgrows it.
    # A list appended each step reallocates on the malloc heap between the
    # stages' large temporaries; on the degree-24 surface that cost 12% of a
    # run (in one process history, 8,000 page faults from heap trimming).
    step_sizes = np.empty(min(max_steps, STEP_RECORD))

    solver = RadiiSolver()

    def snapshot():
        current = support_from_coefficients(grid, evaluator.coefficients(state))
        return FlowSnapshot(steps, time, current, speed, solver)

    def solved(r_minus, current):
        """The state of an inradius solve on the body ``current`` and the
        floor of the stop test's certificate from it (see ``TARGET_SLACK``)."""
        return state, r_minus - TARGET_SLACK * float(np.max(np.abs(current.values)))

    snapshots = [FlowSnapshot(0, 0.0, body, speed, solver)]
    target = stop_fraction * snapshots[0].radii.r_minus
    solved_state, floor = solved(snapshots[0].radii.r_minus, body)
    stop_reason = None

    stiffness = stepper.stiffness(curv)
    if stiffness is None:
        stop_reason = "cone_exit"

    while stop_reason is None:
        if steps >= max_steps:
            stop_reason = "max_steps"
            break
        dt = scale / stiffness
        accepted = None
        for halvings in range(MAX_STEP_RETRIES + 1):
            try:
                candidate = integrator.step(stepper.evaluate, state, rhs, dt, halvings)
                accepted = (candidate,) + stepper.evaluate(candidate)
                break
            except ConvexityLostError:
                dt *= 0.5
                total_retries += 1
        if accepted is None:
            stop_reason = "convexity_lost"
            break

        state, rhs, curv = accepted
        if steps == step_sizes.size:
            step_sizes = np.concatenate([step_sizes, np.empty(steps)])
        step_sizes[steps] = dt
        time += dt
        steps += 1

        stiffness = stepper.stiffness(curv)
        if stiffness is None:
            stop_reason = "cone_exit"
            break
        if steps % snapshot_every:
            # between snapshots, solve the inradius only where the bound
            # cannot rule the target out, and store the state that reaches it
            if floor - (1.0 + TARGET_SLACK) * sup_bound(state - solved_state) > target:
                continue
            crossing = snapshot()
            r_minus = solver.inradius(crossing.body)
            if r_minus > target:
                solved_state, floor = solved(r_minus, crossing.body)
                continue
            snapshots.append(crossing)
        else:
            snapshots.append(snapshot())
        # at a crossing this solve starts from the inradius's optimal basis,
        # so it reads the same r_minus
        r_minus = snapshots[-1].radii.r_minus
        if r_minus <= target:
            stop_reason = "target_radius"
        solved_state, floor = solved(r_minus, snapshots[-1].body)

    if snapshots[-1].step != steps:
        snapshots.append(snapshot())

    accepted = step_sizes[:steps]
    return Trajectory(
        speed=speed,
        snapshots=tuple(snapshots),
        stop_reason=stop_reason,
        steps=steps,
        retries=total_retries,
        rhs_evaluations=stepper.evaluations,
        integrator=integrator.name,
        step_sizes=(
            (float(accepted.min()), float(np.median(accepted)), float(accepted.max()))
            if steps
            else None
        ),
    )


# ---------------------------------------------------------------------------
# collapse point
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CollapseEstimate:
    """Extrapolated collapse time and point of a contracting trajectory."""

    time: float
    point: np.ndarray
    alpha: float
    rate: float  # speed of the unit sphere, f(1, ..., 1)


def _tail(trajectory: Trajectory, tail_fraction: float) -> list[FlowSnapshot]:
    count = max(2, int(np.ceil(tail_fraction * len(trajectory.snapshots))))
    return list(trajectory.snapshots[-count:])


def estimate_collapse(trajectory: Trajectory, tail_fraction: float = 0.2) -> CollapseEstimate:
    """Fit the spherical collapse law to the tail of a trajectory.

    On a shrinking sphere r**(1+alpha) decays linearly at rate
    (1+alpha) f(1,...,1), so each late snapshot predicts the collapse time
    on its own; the least-squares fit of that line with fixed slope is the
    mean of the per-snapshot predictions.  The collapse point is the final
    incenter.
    """
    if len(trajectory.snapshots) < 2:
        raise ValueError("need at least two snapshots to extrapolate collapse")
    alpha = trajectory.speed.alpha
    rate = trajectory.speed.normalization
    tail = _tail(trajectory, tail_fraction)
    predictions = [
        snap.time + snap.radii.r_minus ** (1.0 + alpha) / ((1.0 + alpha) * rate)
        for snap in tail
    ]
    return CollapseEstimate(
        time=float(np.mean(predictions)),
        point=trajectory.final.radii.incenter.copy(),
        alpha=alpha,
        rate=rate,
    )

"""Contraction of convex bodies by curvature-driven speeds.

The state is the support function at band limit L, carried as the complex
spectrum c_cos - i c_sin that the transforms read and write (shape (L + 1,)
on the circle, (L + 1, L + 1) indexed (m, l) on the sphere), so a
Runge-Kutta stage pays for no change of layout; it becomes a coefficient
vector only when a snapshot is stored.  The arithmetic is the same, so the
snapshots are bit-identical to stepping coefficient vectors.
Each right-hand side evaluation synthesizes the support values and the
entries of the radii matrix ``Hess s + s id`` on a grid of twice the band
limit, takes the principal curvatures there as its inverse eigenvalues,
applies the speed, and projects back to degree L; the margin keeps the
quadratic part of the curvature map alias-free and damps the smooth
remainder spectrally.  That fine grid is ``spectral.smooth_grid``: its rings
are the shortest even length of at least 2F + 2 (F = 2L) with no prime factor
above 7, so the real FFTs that dominate a curve's evaluation run at their
fast lengths (270 rather than 258 = 2 * 3 * 43 points at L = 64); the time
step scales with the body grid's node spacing, which keeps 2L + 2 points.
The speeds depend on the principal curvatures alone, so a Runge-Kutta stage
builds nothing else; the symmetric functions that the pinching test reads
are computed for accepted states only.  Time stepping is classic
fourth-order Runge-Kutta under a parabolic step-size heuristic, dt =
c_safe h**2 / max(F' max(kappa**2, 1)) on a curve, with h the body grid's
node spacing.  The flows are parabolic, so stability, not accuracy, bounds
dt: the top curve mode's decay rate times dt is at most c_safe pi**2 (L - 1)
/ (L + 1), and ``c_safe`` may not exceed ``MAX_SAFETY`` = 2.785 / pi**2, the
edge of RK4's real stability interval over pi**2.  The default 0.25 puts
that mode at 87% of the interval.
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
from .spectral import TruncatedEvaluator, smooth_grid

__all__ = [
    "FlowSnapshot",
    "Trajectory",
    "run_flow",
    "CollapseEstimate",
    "estimate_collapse",
    "collapse_radius",
    "rescaled_profile",
    "sphere_lifetime",
]

DEFAULT_SAFETY = 0.25
# Classic Runge-Kutta 4 is stable on the negative real axis down to about
# -2.785.  The step heuristic puts the top curve mode's decay rate times dt at
# c_safe * pi**2 * (L - 1) / (L + 1) < c_safe * pi**2, so a c_safe of at most
# 2.785 / pi**2 (about 0.282) keeps every mode inside that interval.
MAX_SAFETY = 2.785 / np.pi**2
MAX_STEP_RETRIES = 20


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
    right-hand side evaluations, failed stages included; a run directory
    written before the count was kept loads with None.
    """

    speed: Speed
    snapshots: tuple[FlowSnapshot, ...]
    stop_reason: str
    steps: int
    retries: int
    rhs_evaluations: int | None

    @property
    def dimension(self) -> int:
        return self.snapshots[0].body.dimension

    @property
    def degree(self) -> int:
        return self.snapshots[0].body.grid.degree

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
    the calls, the failed ones included."""

    def __init__(self, grid, speed: Speed, convexity_tol: float):
        self.grid = grid
        self.speed = speed
        self.convexity_tol = convexity_tol
        fine = smooth_grid(grid.dimension, 2 * grid.degree)
        self.evaluator = TruncatedEvaluator(fine, grid.degree)
        self.evaluations = 0

    def evaluate(self, spectrum: np.ndarray):
        """Curvature on the fine nodes and the spectrum of the projected
        speed deficit."""
        self.evaluations += 1
        curv = _curvature_from_radii_data(self.evaluator.state(spectrum), self.convexity_tol)
        f = self.speed.value(curv.kappa)
        return -self.evaluator.project(f), curv

    def time_step(self, curv, h_min: float, c_safe: float) -> float:
        trace = self.speed.trace_gradient(curv.kappa)
        radii = 1.0 / curv.kappa
        r_max, r_min = radii[:, 0], radii[:, -1]
        stiffness = trace * np.maximum(1.0, r_max**2) / r_min**2
        return c_safe * h_min**2 / float(stiffness.max())


def run_flow(
    body: SupportFunction,
    speed: Speed,
    *,
    c_safe: float = DEFAULT_SAFETY,
    stop_fraction: float = 0.2,
    snapshot_every: int = 10,
    max_steps: int = 200_000,
    convexity_tol: float = DEFAULT_CONVEXITY_TOL,
) -> Trajectory:
    """Contract ``body`` under ``speed`` until the inradius hits
    ``stop_fraction`` times its initial value (checked at snapshot cadence).

    Every accepted step is screened against the speed's pinching cone; state
    that leaves it stops the run with ``cone_exit``.  A Runge-Kutta stage
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

    evaluator = stepper.evaluator
    state = evaluator.spectrum(body.coefficients)
    rhs, curv = stepper.evaluate(state)
    time = 0.0
    steps = 0
    total_retries = 0

    solver = RadiiSolver()

    def snapshot():
        current = support_from_coefficients(grid, evaluator.coefficients(state))
        return FlowSnapshot(steps, time, current, speed, solver)

    snapshots = [FlowSnapshot(0, 0.0, body, speed, solver)]
    target = stop_fraction * snapshots[0].radii.r_minus
    stop_reason = None

    if not pinching_status(curv, speed.delta0).in_cone:
        stop_reason = "cone_exit"

    while stop_reason is None:
        if steps >= max_steps:
            stop_reason = "max_steps"
            break
        dt = stepper.time_step(curv, h_min, c_safe)
        accepted = None
        for _ in range(MAX_STEP_RETRIES + 1):
            try:
                k1 = rhs
                k2, _ = stepper.evaluate(state + 0.5 * dt * k1)
                k3, _ = stepper.evaluate(state + 0.5 * dt * k2)
                k4, _ = stepper.evaluate(state + dt * k3)
                candidate = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                accepted = (candidate,) + stepper.evaluate(candidate)
                break
            except ConvexityLostError:
                dt *= 0.5
                total_retries += 1
        if accepted is None:
            stop_reason = "convexity_lost"
            break

        state, rhs, curv = accepted
        time += dt
        steps += 1

        if not pinching_status(curv, speed.delta0).in_cone:
            stop_reason = "cone_exit"
            break
        if steps % snapshot_every == 0:
            snapshots.append(snapshot())
            if snapshots[-1].radii.r_minus <= target:
                stop_reason = "target_radius"

    if snapshots[-1].step != steps:
        snapshots.append(snapshot())

    return Trajectory(
        speed=speed,
        snapshots=tuple(snapshots),
        stop_reason=stop_reason,
        steps=steps,
        retries=total_retries,
        rhs_evaluations=stepper.evaluations,
    )


# ---------------------------------------------------------------------------
# collapse point and self-similar rescaling
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


def collapse_radius(estimate: CollapseEstimate, time: float) -> float:
    """Radius of the comparison sphere collapsing at the estimated time."""
    remaining = estimate.time - time
    if remaining <= 0.0:
        raise ValueError(f"time {time} is not before the estimated collapse {estimate.time}")
    return float(((1.0 + estimate.alpha) * estimate.rate * remaining) ** (1.0 / (1.0 + estimate.alpha)))


def rescaled_profile(snapshot: FlowSnapshot, estimate: CollapseEstimate) -> np.ndarray:
    """Support values about the collapse point, normalized by the comparison
    sphere; a flow converging to a round point flattens these toward 1."""
    body = snapshot.body
    shift = body.grid.nodes @ estimate.point
    return (body.values - shift) / collapse_radius(estimate, snapshot.time)


# ---------------------------------------------------------------------------
# exact laws for spheres
# ---------------------------------------------------------------------------


def sphere_lifetime(radius: float, speed: Speed) -> float:
    """Collapse time of a sphere: r**(1+alpha) / ((1+alpha) f(1,...,1))."""
    return radius ** (1.0 + speed.alpha) / ((1.0 + speed.alpha) * speed.normalization)

"""Contraction of convex bodies by curvature-driven speeds.

The state is the coefficient vector of the support function at band limit L.
Each right-hand side evaluation synthesizes the support values and the
entries of the radii matrix ``Hess s + s id`` on a grid of twice the band
limit, takes the principal curvatures there as its inverse eigenvalues,
applies the speed, and projects back to degree L; the margin keeps the
quadratic part of the curvature map alias-free and damps the smooth
remainder spectrally.  The speeds depend on the principal curvatures alone,
so a Runge-Kutta stage builds nothing else; the symmetric functions that the
pinching test reads are computed for accepted states only.  Time stepping
is classic fourth-order Runge-Kutta under a parabolic step-size heuristic.
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
from .spectral import TruncatedEvaluator, standard_grid

__all__ = [
    "FlowSnapshot",
    "Trajectory",
    "run_flow",
    "CollapseEstimate",
    "estimate_collapse",
    "collapse_radius",
    "rescaled_profile",
    "limit_point_error",
    "sphere_lifetime",
    "sphere_radius_law",
]

DEFAULT_SAFETY = 0.2
MAX_STEP_RETRIES = 20


@dataclass(frozen=True, eq=False)
class FlowSnapshot:
    """One stored state of a flow run under ``speed``.

    The radii, curvature, speed values and mixed volumes are computed the
    first time they are read and kept on the snapshot, so every monitor,
    writer and check that reads them shares one computation.  The snapshots
    of one run share ``radii_solver``, which warm-starts each radii solve
    from the previous one.
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
    retry budget), or ``max_steps``.
    """

    speed: Speed
    snapshots: tuple[FlowSnapshot, ...]
    stop_reason: str
    steps: int
    retries: int

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
    """Dealiased right-hand side evaluation for one (grid, speed) pair."""

    def __init__(self, grid, speed: Speed, convexity_tol: float):
        self.grid = grid
        self.speed = speed
        self.convexity_tol = convexity_tol
        fine = standard_grid(grid.dimension, 2 * grid.degree)
        self.evaluator = TruncatedEvaluator(fine, grid.degree)

    def evaluate(self, coefficients: np.ndarray):
        """Curvature on the fine nodes and the projected speed deficit."""
        curv = _curvature_from_radii_data(
            self.evaluator.state(coefficients), self.convexity_tol
        )
        f = self.speed.value(curv.kappa)
        return -self.evaluator.project(f), curv

    def time_step(self, curv, h_min: float, c_safe: float) -> float:
        trace = self.speed.trace_gradient(curv.kappa)
        r_max = 1.0 / curv.kappa[:, 0]
        r_min = 1.0 / curv.kappa[:, -1]
        stiffness = trace * np.maximum(1.0, r_max**2) / r_min**2
        return c_safe * h_min**2 / float(np.max(stiffness))


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
    negative or non-finite ``convexity_tol``, a non-positive or non-finite
    ``c_safe``, a ``snapshot_every`` below 1 or a negative ``max_steps``
    raises ValueError.
    """
    if body.dimension != speed.dimension:
        raise ValueError(
            f"speed dimension {speed.dimension} does not match body dimension {body.dimension}"
        )
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be positive")
    if not 0.0 < c_safe < np.inf:
        raise ValueError("c_safe must be a positive finite number")
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

    coeffs = body.coefficients.copy()
    rhs, curv = stepper.evaluate(coeffs)
    time = 0.0
    steps = 0
    total_retries = 0

    solver = RadiiSolver()
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
                k2, _ = stepper.evaluate(coeffs + 0.5 * dt * k1)
                k3, _ = stepper.evaluate(coeffs + 0.5 * dt * k2)
                k4, _ = stepper.evaluate(coeffs + dt * k3)
                candidate = coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                accepted = (candidate,) + stepper.evaluate(candidate)
                break
            except ConvexityLostError:
                dt *= 0.5
                total_retries += 1
        if accepted is None:
            stop_reason = "convexity_lost"
            break

        coeffs, rhs, curv = accepted
        time += dt
        steps += 1

        if not pinching_status(curv, speed.delta0).in_cone:
            stop_reason = "cone_exit"
            break
        if steps % snapshot_every == 0:
            snap = FlowSnapshot(
                steps, time, support_from_coefficients(grid, coeffs), speed, solver
            )
            snapshots.append(snap)
            if snap.radii.r_minus <= target:
                stop_reason = "target_radius"

    if snapshots[-1].step != steps:
        snapshots.append(
            FlowSnapshot(steps, time, support_from_coefficients(grid, coeffs), speed, solver)
        )

    return Trajectory(
        speed=speed,
        snapshots=tuple(snapshots),
        stop_reason=stop_reason,
        steps=steps,
        retries=total_retries,
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


def limit_point_error(
    trajectory: Trajectory, estimate: CollapseEstimate, tail_fraction: float = 0.2
) -> np.ndarray:
    """Distance of each tail incenter from the collapse point, in units of
    the comparison radius at that snapshot's time."""
    return np.array(
        [
            float(np.linalg.norm(snap.radii.incenter - estimate.point))
            / collapse_radius(estimate, snap.time)
            for snap in _tail(trajectory, tail_fraction)
        ]
    )


# ---------------------------------------------------------------------------
# exact laws for spheres
# ---------------------------------------------------------------------------


def sphere_lifetime(radius: float, speed: Speed) -> float:
    """Collapse time of a sphere: r**(1+alpha) / ((1+alpha) f(1,...,1))."""
    return radius ** (1.0 + speed.alpha) / ((1.0 + speed.alpha) * speed.normalization)


def sphere_radius_law(radius: float, time: float, speed: Speed) -> float:
    """Radius of an initially round sphere after flowing for ``time``."""
    a, c = speed.alpha, speed.normalization
    remaining = radius ** (1.0 + a) - (1.0 + a) * c * time
    if remaining < 0.0:
        raise ValueError(f"time {time} exceeds the sphere lifetime")
    return float(remaining ** (1.0 / (1.0 + a)))

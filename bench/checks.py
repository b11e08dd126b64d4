"""Correctness checks on a contracting ellipsoid, from closed-form references.

Every reference value here is computed from the workload's inputs alone: the
semi-axes, the speed exponent, and the speed of the unit sphere.  Nothing is
taken from curvflow, so a fault in the program cannot move the yardstick.

For H**alpha (``pow_mean``) the unit sphere has every principal curvature 1,
so its speed is c = n**alpha: 4 for H**2 on surfaces, 1 on curves.  A sphere
of radius r then shrinks as r(t)**(1+alpha) = r**(1+alpha) - (1+alpha) c t.
By the comparison principle the body stays outside the sphere inscribed at
t = 0 (radius: the smallest semi-axis) and inside the circumscribed one (the
largest semi-axis), so those two laws bound the inradius from below and the
circumradius from above at every snapshot.

The ellipsoid is centrally symmetric, so its inradius is its smallest support
value, at the end of the shortest semi-axis a.  There the principal
curvatures are a / b**2 for each other semi-axis b, which fixes the rate at
which the inradius starts to fall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Slack for rounding.  At t = 0 the inradius equals the inner sphere's radius,
# so that comparison holds with equality up to rounding (about 1e-14 on the
# workloads); after the first step the margins are 1e-4 and more.
RADIUS_TOL = 1e-9
VOLUME_TOL = 1e-9
# The initial rate is read off the quadratic through the first three
# snapshots, within 0.2% of the exact rate on the workloads; a trajectory
# with times off by 10% misses it by 9%.
RATE_TOL = 1e-2


@dataclass(frozen=True)
class FlowObservation:
    """What one run of a workload produced, as read back from the program."""

    dimension: int
    semi_axes: tuple[float, ...]
    alpha: float
    stop_reason: str
    times: tuple[float, ...]
    r_minus: tuple[float, ...]
    r_plus: tuple[float, ...]
    volume0: float  # V_{n+1} of the first snapshot, in units of the unit ball
    collapse_time: float


@dataclass(frozen=True)
class RoundTripFiles:
    """What simulate, verify flow and analyze left behind for one config."""

    exit_codes: tuple[int, ...]
    snapshot_files: int
    series_rows: int
    snapshot_count: int  # as stored in summary.json


def unit_sphere_speed(dimension: int, alpha: float) -> float:
    """f(1, ..., 1) for H**alpha."""
    return float(dimension) ** alpha


def sphere_radius(radius: float, time: float, alpha: float, c: float) -> float:
    """Radius at ``time`` of a sphere of initial ``radius``; 0 once it has collapsed."""
    remaining = radius ** (1.0 + alpha) - (1.0 + alpha) * c * time
    return remaining ** (1.0 / (1.0 + alpha)) if remaining > 0.0 else 0.0


def sphere_lifetime(radius: float, alpha: float, c: float) -> float:
    return radius ** (1.0 + alpha) / ((1.0 + alpha) * c)


def initial_rate(times, values) -> float:
    """Derivative at times[0] of the quadratic through the first three points."""
    (t0, t1, t2), (v0, v1, v2) = times[:3], values[:3]
    return (
        v0 * (2 * t0 - t1 - t2) / ((t0 - t1) * (t0 - t2))
        + v1 * (t0 - t2) / ((t1 - t0) * (t1 - t2))
        + v2 * (t0 - t1) / ((t2 - t0) * (t2 - t1))
    )


def check_flow(obs: FlowObservation) -> list[tuple[str, str]]:
    """Failed checks as (name, message); an empty list means all passed."""
    failures = []
    alpha = obs.alpha
    c = unit_sphere_speed(obs.dimension, alpha)
    axes = sorted(obs.semi_axes)
    inner, outer = axes[0], axes[-1]

    if obs.stop_reason != "target_radius":
        failures.append(("stop_reason", f"stopped with {obs.stop_reason!r}, not 'target_radius'"))

    volume = math.prod(obs.semi_axes)
    if not abs(obs.volume0 - volume) <= VOLUME_TOL * volume:
        failures.append(("initial_volume", f"V_{obs.dimension + 1}(0) = {obs.volume0!r}, exact {volume!r}"))

    for t, r_in in zip(obs.times, obs.r_minus):
        low = sphere_radius(inner, t, alpha, c)
        if not r_in >= low - RADIUS_TOL * inner:
            failures.append(("inner_sphere", f"r_- = {r_in!r} below the inner sphere's {low!r} at t = {t!r}"))
            break
    for t, r_out in zip(obs.times, obs.r_plus):
        high = sphere_radius(outer, t, alpha, c)
        if not r_out <= high + RADIUS_TOL * outer:
            failures.append(("outer_sphere", f"r_+ = {r_out!r} above the outer sphere's {high!r} at t = {t!r}"))
            break

    exact = -(sum(inner / b**2 for b in axes[1:]) ** alpha)
    rate = initial_rate(obs.times, obs.r_minus)
    if not abs(rate - exact) <= RATE_TOL * abs(exact):
        failures.append(("initial_rate", f"r_- starts to fall at {rate!r}, exact {exact!r}"))

    first, last = sphere_lifetime(inner, alpha, c), sphere_lifetime(outer, alpha, c)
    if not first <= obs.collapse_time <= last:
        failures.append(
            ("collapse_time", f"collapse estimate {obs.collapse_time!r} outside [{first!r}, {last!r}]")
        )

    start = obs.r_plus[0] / obs.r_minus[0]
    end = obs.r_plus[-1] / obs.r_minus[-1]
    if not end < start:
        failures.append(("rounding", f"final r_+/r_- = {end!r} not below the initial {start!r}"))
    return failures


def check_roundtrip(files: RoundTripFiles) -> list[tuple[str, str]]:
    """Failed checks on the command-line outputs, as (name, message).

    The volume check of ``check_flow`` reads the first series.csv row here.
    """
    failures = []
    if any(code != 0 for code in files.exit_codes):
        failures.append(("exit_codes", f"exit codes {files.exit_codes}, expected all 0"))
    counts = (files.snapshot_files, files.series_rows, files.snapshot_count)
    if len(set(counts)) != 1:
        failures.append(
            ("snapshot_count", f"{counts[0]} snapshot files, {counts[1]} series rows, summary says {counts[2]}")
        )
    return failures

"""Helpers that only the tests use: closed-form sphere laws that the flow
tests compare trajectories with, random pinched bodies, and small wrappers
over the library's transforms and radii."""

from dataclasses import dataclass

import numpy as np

from curvflow.body import (
    ConvexityLostError,
    SupportFunction,
    pinching_status,
    support_from_coefficients,
)
from curvflow.geometry import diskant_bounds, direct_radii, mixed_volumes
from curvflow.shapes import default_cone_threshold, harmonic_index
from curvflow.spectral import SpectralField, SphereGrid, analyze


def sphere_lifetime(radius, speed):
    """Collapse time of a sphere: r**(1+alpha) / ((1+alpha) f(1,...,1))."""
    return radius ** (1.0 + speed.alpha) / ((1.0 + speed.alpha) * speed.normalization)


def collapse_radius(estimate, time):
    """Radius of the comparison sphere collapsing at the estimated time."""
    remaining = estimate.time - time
    if remaining <= 0.0:
        raise ValueError(f"time {time} is not before the estimated collapse {estimate.time}")
    return float(((1.0 + estimate.alpha) * estimate.rate * remaining) ** (1.0 / (1.0 + estimate.alpha)))


def rescaled_profile(snapshot, estimate):
    """Support values about the collapse point, normalized by the comparison
    sphere; a flow converging to a round point flattens these toward 1."""
    body = snapshot.body
    shift = body.grid.nodes @ estimate.point
    return (body.values - shift) / collapse_radius(estimate, snapshot.time)


def mean_radius(body):
    """Mean of the support function over the sphere."""
    return float(np.sum(body.grid.weights * body.values) / body.grid.sphere_area)


def field_from_values(grid, values):
    return SpectralField(grid, analyze(grid, values))


@dataclass(frozen=True)
class RadiusReport:
    """Direct LP radii combined with the Diskant sandwich."""

    r_minus: float
    r_plus: float
    diskant_lower: float
    diskant_upper: float


def radius_report(body):
    direct = direct_radii(body)
    bounds = diskant_bounds(mixed_volumes(body))
    return RadiusReport(direct.r_minus, direct.r_plus, bounds.lower, bounds.upper)


def random_pinched_body(
    grid: SphereGrid,
    rng: np.random.Generator,
    radius: float = 1.0,
    amplitude: float = 0.2,
    max_degree: int | None = None,
    delta0: float | None = None,
) -> SupportFunction:
    """Random convex body inside the pinching cone.

    Draws random coefficients on degrees >= 2 with a 1/(l(l+1)) falloff and
    halves the perturbation until the body is uniformly convex and pinched
    below ``delta0``.  Degree-1 terms are translations, so they stay zero.
    Band limit defaults to 2L/3 so degree-2 integrands of the result stay
    inside the quadrature's exactness range.
    """
    if max_degree is None:
        max_degree = max(2, (2 * grid.degree) // 3)
    max_degree = min(max_degree, grid.degree)
    if delta0 is None:
        delta0 = default_cone_threshold(grid.dimension)

    raw = np.zeros(grid.coefficient_count)
    for degree_l in range(2, max_degree + 1):
        orders = range(-degree_l, degree_l + 1) if grid.dimension == 2 else (0, -1)
        for order_m in orders:
            idx = harmonic_index(grid.dimension, degree_l, order_m)
            raw[idx] = rng.standard_normal() / (degree_l * (degree_l + 1))
    norm = np.linalg.norm(raw)
    if norm > 0:
        raw *= amplitude * radius / norm

    # exact constant coefficient keeps the stated band limit sharp
    constant = radius * np.sqrt(grid.sphere_area)
    for _ in range(60):
        coeffs = raw.copy()
        coeffs[0] += constant
        candidate = support_from_coefficients(grid, coeffs)
        try:
            status = pinching_status(candidate, delta0)
        except ConvexityLostError:
            status = None
        if status is not None and status.in_cone:
            return candidate
        raw *= 0.5
    raise RuntimeError("could not generate a pinched body; amplitude does not shrink into the cone")

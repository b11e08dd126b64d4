"""Constructors and a small text grammar for initial bodies."""

from __future__ import annotations

import re

import numpy as np

from . import body as bodymod
from .body import SupportFunction, support_from_coefficients, support_from_values
from .spectral import SphereGrid

__all__ = [
    "default_cone_threshold",
    "make_sphere",
    "make_ellipsoid",
    "make_perturbed_sphere",
    "harmonic_index",
    "resample",
    "parse_shape",
]


def default_cone_threshold(dimension: int) -> float:
    """Default pinching-cone threshold; curves are unconstrained."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if dimension == 1:
        return np.inf
    return 0.9 / (dimension * (dimension - 1))


def make_sphere(grid: SphereGrid, radius: float, center=None) -> SupportFunction:
    values = np.full(grid.node_count, float(radius))
    if center is not None:
        values = values + grid.nodes @ np.asarray(center, dtype=float)
    return support_from_values(grid, values)


def make_ellipsoid(grid: SphereGrid, semi_axes) -> SupportFunction:
    """Ellipsoid with the given semi-axes, centered at the origin.

    The support function sqrt(sum (a_i u_i)^2) is smooth but not
    band-limited, so the result is its spectral truncation on ``grid``.
    """
    axes = np.asarray(semi_axes, dtype=float)
    if axes.shape != (grid.dimension + 1,):
        raise ValueError(
            f"expected {grid.dimension + 1} semi-axes for dimension {grid.dimension}"
        )
    if np.any(axes <= 0):
        raise ValueError("semi-axes must be positive")
    values = np.sqrt(np.sum((grid.nodes * axes) ** 2, axis=1))
    return support_from_values(grid, values)


def harmonic_index(dimension: int, degree_l: int, order_m: int) -> int:
    """Coefficient index of the (l, m) basis function.

    Negative m selects the sine branch in both dimensions; on the circle the
    basis is cos/sin of l theta, so |m| must be at most 1 there.
    """
    if degree_l < 0:
        raise ValueError("harmonic degree must be nonnegative")
    if dimension == 1:
        if abs(order_m) > 1 or (degree_l == 0 and order_m != 0):
            raise ValueError(f"invalid circle harmonic ({degree_l}, {order_m})")
        if degree_l == 0:
            return 0
        return 2 * degree_l - 1 if order_m >= 0 else 2 * degree_l
    if abs(order_m) > degree_l:
        raise ValueError(f"invalid spherical harmonic ({degree_l}, {order_m})")
    return degree_l * degree_l + degree_l + order_m


def make_perturbed_sphere(grid: SphereGrid, radius: float, perturbations) -> SupportFunction:
    """Sphere plus unit-normalized harmonics: s = R + sum a * Y(l, m).

    ``perturbations`` is an iterable of (degree, order, amplitude); each
    amplitude lands directly on the orthonormal-basis coefficient.
    """
    coeffs = np.zeros(grid.coefficient_count)
    sphere = make_sphere(grid, radius)
    coeffs[: sphere.coefficients.size] = sphere.coefficients
    for degree_l, order_m, amplitude in perturbations:
        if degree_l > grid.degree:
            raise ValueError(
                f"harmonic degree {degree_l} exceeds grid band limit {grid.degree}"
            )
        coeffs[harmonic_index(grid.dimension, degree_l, order_m)] += amplitude
    return support_from_coefficients(grid, coeffs)


def resample(body: SupportFunction, grid: SphereGrid) -> SupportFunction:
    """Re-express on another grid by coefficient padding or truncation.

    The body itself on its own grid; on any other, its coefficients
    expanded on that grid's nodes.  Raising the band limit is exact;
    lowering it drops the tail.
    """
    if grid is body.grid:
        return body
    if grid.dimension != body.grid.dimension:
        raise ValueError("cannot resample across dimensions")
    coeffs = np.zeros(grid.coefficient_count)
    keep = min(grid.coefficient_count, body.coefficients.size)
    coeffs[:keep] = body.coefficients[:keep]
    return support_from_coefficients(grid, coeffs)


_HARMONIC_TERM = re.compile(
    r"^Y\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*\*\s*([-+0-9.eE]+)$"
)


# The body's scale (its mean support value, read off the degree-0
# coefficient: half the mean width, a sphere's radius) must lie in
# [2^-500, 2^500], about 3e-151 to 3e150, so that the scale squared and its
# reciprocal squared fit the float range with room to spare: the radii product
# of a surface and its reciprocal, the Gauss curvature, and for a curve the
# squared curvature that the pinching ratio divides by.
_SCALE_RANGE = (2.0**-500, 2.0**500)


# huge numbers overflow while the body is built; the final checks reject them
@np.errstate(over="ignore", invalid="ignore")
def parse_shape(text: str, grid: SphereGrid) -> SupportFunction:
    """Build a body from a shape description.

    Grammar::

        sphere R [+ Y(l,m)*amp ...]
        ellipsoid a b [c]
        snapshot PATH

    A description whose support function is not finite on every node (a
    NaN or infinite number, or one so large that the body overflows), or
    whose scale lies outside ``_SCALE_RANGE``, is rejected with ValueError.
    """
    text = text.strip()
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head == "sphere":
        parts = [p.strip() for p in rest.split("+")]
        if not parts or not parts[0]:
            raise ValueError("sphere needs a radius: 'sphere R'")
        radius = float(parts[0])
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        perturbations = []
        for term in parts[1:]:
            match = _HARMONIC_TERM.match(term)
            if match is None:
                raise ValueError(f"bad harmonic term {term!r}; expected Y(l,m)*amp")
            perturbations.append(
                (int(match.group(1)), int(match.group(2)), float(match.group(3)))
            )
        body = make_perturbed_sphere(grid, radius, perturbations)
    elif head == "ellipsoid":
        body = make_ellipsoid(grid, [float(p) for p in rest.split()])
    elif head == "snapshot":
        if not rest:
            raise ValueError("snapshot needs a file path")
        loaded, _ = bodymod.load_snapshot(rest)
        body = resample(loaded, grid)
    else:
        raise ValueError(f"unknown shape {head!r}; expected sphere, ellipsoid, or snapshot")
    if not (np.all(np.isfinite(body.coefficients)) and np.all(np.isfinite(body.values))):
        raise ValueError(f"shape {text!r} has a non-finite support function")
    scale = abs(body.coefficients[0]) / np.sqrt(grid.sphere_area)
    low, high = _SCALE_RANGE
    if not low <= scale <= high:
        raise ValueError(
            f"shape {text!r} has scale {scale:.6g} outside [2^-500, 2^500]; "
            "its radii product or that product's reciprocal would overflow"
        )
    return body

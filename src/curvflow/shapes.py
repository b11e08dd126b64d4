"""Constructors and a small text grammar for initial bodies."""

from __future__ import annotations

import re

import numpy as np

from . import body as bodymod
from .body import SupportFunction, pinching_status, support_from_coefficients, support_from_values
from .spectral import SphereGrid, coefficient_count, standard_grid

__all__ = [
    "default_cone_threshold",
    "make_sphere",
    "make_ellipsoid",
    "make_perturbed_sphere",
    "harmonic_index",
    "random_pinched_body",
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
        except bodymod.ConvexityLostError:
            status = None
        if status is not None and status.in_cone:
            return candidate
        raw *= 0.5
    raise RuntimeError("could not generate a pinched body; amplitude does not shrink into the cone")


def resample(body: SupportFunction, grid: SphereGrid) -> SupportFunction:
    """Re-express on another grid by coefficient padding or truncation.

    Raising the band limit is exact; lowering it drops the tail.
    """
    if grid.dimension != body.grid.dimension:
        raise ValueError("cannot resample across dimensions")
    if grid.degree == body.grid.degree:
        return SupportFunction(grid, body.field)
    coeffs = np.zeros(grid.coefficient_count)
    keep = min(grid.coefficient_count, body.coefficients.size)
    coeffs[:keep] = body.coefficients[:keep]
    return support_from_coefficients(grid, coeffs)


_HARMONIC_TERM = re.compile(
    r"^Y\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*\*\s*([-+0-9.eE]+)$"
)


# huge numbers overflow while the body is built; the final check rejects them
@np.errstate(over="ignore", invalid="ignore")
def parse_shape(text: str, grid: SphereGrid) -> SupportFunction:
    """Build a body from a shape description.

    Grammar::

        sphere R [+ Y(l,m)*amp ...]
        ellipsoid a b [c]
        snapshot PATH

    A description whose support function is not finite on every node (a
    NaN or infinite number, or one so large that the body overflows) is
    rejected with ValueError.
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
    return body

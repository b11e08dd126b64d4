"""Spectral calculus for smooth scalar fields on the unit circle and unit sphere.

Fields are stored as coefficient vectors over real orthonormal bases:

* ``dimension == 1``: Fourier modes ``1/sqrt(2*pi)``, ``cos(k*t)/sqrt(pi)``,
  ``sin(k*t)/sqrt(pi)`` for ``k = 1..L`` on the unit circle.
* ``dimension == 2``: real spherical harmonics ``Y_lm`` up to degree ``L``,
  built from Condon-Shortley associated Legendre functions (colatitude part)
  and ``cos/sin`` longitude factors.

Key concepts
------------
- The quadrature grid pairs Gauss-Legendre colatitudes (``L + 1`` nodes, which
  never touch the poles) with ``2L + 2`` equispaced longitudes, so products of
  two band-limited fields - spherical polynomials up to degree ``2L`` - are
  integrated exactly.  On the circle the analogue is a ``2L + 2``-point
  trapezoid rule, exact for trigonometric degree ``2L + 1``.
- Tangential derivatives are assembled in the orthonormal frame
  ``(e_theta, e_phi)`` from analytic derivatives of the basis functions;
  second and third colatitude derivatives come from the associated Legendre
  ODE rather than finite differences.
- Fields are evaluated only at the quadrature nodes.  The frame degenerates
  at the poles, which the Gauss-Legendre rings never touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import assoc_legendre_p_all, roots_legendre

__all__ = [
    "SphereGrid",
    "SpectralField",
    "standard_grid",
    "sphere_area",
    "analyze",
    "synthesize",
    "field_from_values",
    "field_from_coefficients",
    "coefficient_count",
    "tangential_derivatives",
    "third_derivatives",
]


def sphere_area(dimension: int) -> float:
    """Total measure of the unit n-sphere boundary: 2*pi (n=1) or 4*pi (n=2)."""
    if dimension == 1:
        return 2.0 * np.pi
    if dimension == 2:
        return 4.0 * np.pi
    raise ValueError(f"unsupported dimension {dimension}; expected 1 or 2")


def coefficient_count(dimension: int, degree: int) -> int:
    return 2 * degree + 1 if dimension == 1 else (degree + 1) ** 2


class SphereGrid:
    """Quadrature grid plus cached basis operators for one (dimension, degree).

    ``partial_matrix`` is the one store of basis matrices on the nodes, keyed
    by (band, d_theta, d_phi): synthesis uses the grid's own degree and
    ``TruncatedEvaluator`` a lower one.  The matrices live as long as the grid.

    Attributes
    ----------
    dimension : int
        Hypersurface dimension n (1 for curves in the plane, 2 for surfaces).
    degree : int
        Band limit L of the spectral basis.
    theta : ndarray, shape (M,)
        Colatitude (n=2) or angle (n=1) of each node.
    phi : ndarray or None, shape (M,)
        Longitude of each node (n=2 only).
    nodes : ndarray, shape (M, n+1)
        Unit direction vectors.
    weights : ndarray, shape (M,)
        Quadrature weights summing to the sphere area; exact for spherical
        polynomials up to the design degree 2L.
    """

    def __init__(self, dimension: int, degree: int):
        if dimension not in (1, 2):
            raise ValueError(f"unsupported dimension {dimension}; expected 1 or 2")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.dimension = dimension
        self.degree = degree
        self.design_degree = 2 * degree

        if dimension == 1:
            m = 2 * degree + 2
            self.theta = 2.0 * np.pi * np.arange(m) / m
            self.phi = None
            self.nodes = np.column_stack([np.cos(self.theta), np.sin(self.theta)])
            self.weights = np.full(m, 2.0 * np.pi / m)
        else:
            x, w = roots_legendre(degree + 1)
            theta_rings = np.arccos(x[::-1])  # ascending colatitude
            w_rings = w[::-1]
            n_phi = 2 * degree + 2
            phi_ring = 2.0 * np.pi * np.arange(n_phi) / n_phi
            theta = np.repeat(theta_rings, n_phi)
            phi = np.tile(phi_ring, degree + 1)
            st, ct = np.sin(theta), np.cos(theta)
            self.theta = theta
            self.phi = phi
            self.nodes = np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])
            self.weights = np.repeat(w_rings, n_phi) * (2.0 * np.pi / n_phi)

        self.node_count = self.theta.shape[0]
        self.coefficient_count = coefficient_count(dimension, degree)
        self.sphere_area = sphere_area(dimension)
        for arr in (self.theta, self.nodes, self.weights):
            arr.flags.writeable = False
        if self.phi is not None:
            self.phi.flags.writeable = False
        self._partials: dict[tuple[int, int, int], np.ndarray] = {}

    # -- basis operator matrices -------------------------------------------

    def partial_matrix(self, d_theta: int, d_phi: int = 0, degree: int | None = None) -> np.ndarray:
        """(M, K) matrix mapping band-``degree`` coefficients (by default the
        grid's degree) to the partial derivative d^a/dtheta^a d^b/dphi^b of
        the synthesized field at the grid nodes."""
        band = self.degree if degree is None else degree
        key = (band, d_theta, d_phi)
        if key not in self._partials:
            self._partials[key] = _partial_matrix(self, band, d_theta, d_phi)
        return self._partials[key]

    def frames(self) -> np.ndarray:
        """Orthonormal tangent frame at each node, shape (M, n, n+1)."""
        st, ct = np.sin(self.theta), np.cos(self.theta)
        if self.dimension == 1:
            return np.column_stack([-st, ct])[:, None, :]
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        e_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
        e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        return np.stack([e_theta, e_phi], axis=1)

    def min_spacing(self) -> float:
        """Minimal angular spacing of the colatitude/angle grid.

        This is the finest scale a degree-L field resolves and feeds the
        parabolic time-step heuristic.
        """
        if self.dimension == 1:
            return float(self.theta[1] - self.theta[0])
        rings = np.unique(np.round(self.theta, 14))
        return float(np.min(np.diff(rings)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SphereGrid(dimension={self.dimension}, degree={self.degree})"


@lru_cache(maxsize=32)
def standard_grid(dimension: int, degree: int) -> SphereGrid:
    """Shared grid instances so basis operators are built once per (n, L, band)."""
    return SphereGrid(dimension, degree)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A band-limited scalar field: coefficients plus cached node values."""

    grid: SphereGrid
    coefficients: np.ndarray
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (self.grid.coefficient_count,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, expected "
                f"({self.grid.coefficient_count},)"
            )
        object.__setattr__(self, "coefficients", coeffs)
        if self.values is None:
            object.__setattr__(self, "values", synthesize(self.grid, coeffs))
        for arr in (self.coefficients, self.values):
            arr.flags.writeable = False


def analyze(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Project node values onto the orthonormal basis.

    Exact (up to rounding) whenever the sampled function is band-limited to
    the grid's design margin, by quadrature exactness.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.node_count,):
        raise ValueError(
            f"value vector has shape {values.shape}, expected ({grid.node_count},)"
        )
    return grid.partial_matrix(0, 0).T @ (grid.weights * values)


def synthesize(grid: SphereGrid, coefficients: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector at the grid nodes."""
    coefficients = np.asarray(coefficients, dtype=float)
    return grid.partial_matrix(0, 0) @ coefficients


def field_from_values(grid: SphereGrid, values: np.ndarray) -> SpectralField:
    coeffs = analyze(grid, values)
    return SpectralField(grid, coeffs)


def field_from_coefficients(grid: SphereGrid, coefficients: np.ndarray) -> SpectralField:
    return SpectralField(grid, np.asarray(coefficients, dtype=float))


# ---------------------------------------------------------------------------
# basis construction
# ---------------------------------------------------------------------------


def _partial_matrix(grid: SphereGrid, degree: int, d_theta: int, d_phi: int) -> np.ndarray:
    """(M, K) matrix of band-``degree`` basis partials d^a/dtheta^a d^b/dphi^b
    at the grid nodes."""
    if grid.dimension == 1:
        return _circle_partial(degree, grid.theta, d_theta, d_phi)
    return _sphere_partial(degree, grid.theta, grid.phi, d_theta, d_phi)


def _trig_derivative(k, angle, order):
    """k**order and (dc, ds): d^order/dt^order (cos kt, sin kt) / k**order."""
    c, s = np.cos(k * angle), np.sin(k * angle)
    # derivative cycle: cos -> -sin -> -cos -> sin -> cos
    cycle = ((c, s), (-s, c), (-c, -s), (s, -c))
    return float(k) ** order, cycle[order % 4]


def _circle_partial(degree, theta, d_t, d_p):
    if d_p:
        raise ValueError("circle fields have no longitude derivative")
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    mat = np.zeros((theta.shape[0], 2 * degree + 1))
    if d_t == 0:
        mat[:, 0] = 1.0 / np.sqrt(2.0 * np.pi)
    for k in range(1, degree + 1):
        factor, (dc, ds) = _trig_derivative(k, theta, d_t)
        mat[:, 2 * k - 1] = factor * dc * inv_sqrt_pi
        mat[:, 2 * k] = factor * ds * inv_sqrt_pi
    return mat


def _sphere_partial(degree, theta, phi, d_t, d_p):
    theta_u, inv = np.unique(theta, return_inverse=True)
    st_u, ct_u = np.sin(theta_u), np.cos(theta_u)
    # Normalized associated Legendre values and z-derivative; theta derivatives
    # beyond the first follow from the Legendre ODE, which is better
    # conditioned than repeated d/dz near the ends of the interval.
    if d_t == 0:
        p_all = assoc_legendre_p_all(degree, degree, ct_u, norm=True)[0]
    else:
        p_all, dp_all = assoc_legendre_p_all(degree, degree, ct_u, norm=True, diff_n=1)
    # reindex to [l, m, point] with m >= 0 and fold in the 1/sqrt(2*pi)
    # longitude normalization so columns are orthonormal on the sphere
    d_theta = [p_all[:, : degree + 1, :] / np.sqrt(2.0 * np.pi)]
    if d_t >= 1:
        dp = dp_all[:, : degree + 1, :] / np.sqrt(2.0 * np.pi)
        d_theta.append(-st_u[None, None, :] * dp)
    if d_t >= 2:
        ls = np.arange(degree + 1)[:, None, None].astype(float)
        ms = np.arange(degree + 1)[None, :, None].astype(float)
        lam = ls * (ls + 1.0)
        inv_s2 = 1.0 / st_u**2
        cot = ct_u / st_u
        d_theta.append(
            -cot[None, None, :] * d_theta[1]
            + (ms**2 * inv_s2[None, None, :] - lam) * d_theta[0]
        )
        if d_t >= 3:
            d_theta.append(
                inv_s2[None, None, :] * d_theta[1]
                - cot[None, None, :] * d_theta[2]
                - 2.0 * ms**2 * (ct_u / st_u**3)[None, None, :] * d_theta[0]
                + (ms**2 * inv_s2[None, None, :] - lam) * d_theta[1]
            )

    mat = np.zeros((theta.shape[0], (degree + 1) ** 2))
    theta_part = d_theta[d_t]
    for order in range(degree + 1):
        if order == 0:
            cols = np.array([l * l + l for l in range(degree + 1)])
            if d_p == 0:
                mat[:, cols] = theta_part[:, 0, :][:, inv].T
            continue
        factor, (trig_c, trig_s) = _trig_derivative(order, phi, d_p)
        block = theta_part[order:, order, :][:, inv] * np.sqrt(2.0)
        cols_c = np.array([l * l + l + order for l in range(order, degree + 1)])
        cols_s = np.array([l * l + l - order for l in range(order, degree + 1)])
        mat[:, cols_c] = (factor * block * trig_c[None, :]).T
        mat[:, cols_s] = (factor * block * trig_s[None, :]).T
    return mat


# ---------------------------------------------------------------------------
# derivatives on the grid
# ---------------------------------------------------------------------------


def tangential_derivatives(field: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Covariant gradient and Hessian at the grid nodes.

    Returns
    -------
    gradient : ndarray, shape (M, n)
        Components in the orthonormal frame (e_theta[, e_phi]).
    hessian : ndarray, shape (M, n, n)
        Covariant Hessian with respect to the round metric, same frame.
    """
    grid = field.grid
    return _derivatives(grid.dimension, grid.theta, grid.partial_matrix, field.coefficients)


# angle partials (d_theta, d_phi) that _derivatives reads, per dimension; for
# surfaces in the argument order of _assemble_surface_state
_STATE_ORDERS = {1: ((1, 0), (2, 0)), 2: ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}


def _derivatives(dimension, theta, partial, c):
    """Frame gradient and covariant Hessian of coefficients ``c`` at angles
    ``theta``; ``partial(d_theta, d_phi)`` returns the basis-partial matrix."""
    p = [partial(*order) @ c for order in _STATE_ORDERS[dimension]]
    if dimension == 1:
        return p[0][:, None], p[1][:, None, None]
    return _assemble_surface_state(theta, *p)


def _assemble_surface_state(theta, p10, p01, p20, p11, p02):
    """Frame gradient and covariant Hessian from raw angle partials (n=2)."""
    st, ct = np.sin(theta), np.cos(theta)
    grad = np.stack([p10, p01 / st], axis=-1)
    h_tp = p11 / st - ct * p01 / st**2
    hess = np.empty((theta.shape[0], 2, 2))
    hess[:, 0, 0] = p20
    hess[:, 0, 1] = h_tp
    hess[:, 1, 0] = h_tp
    hess[:, 1, 1] = p02 / st**2 + ct / st * p10
    return grad, hess


class TruncatedEvaluator:
    """Evaluates and projects low-degree coefficient vectors on a finer grid.

    Evolving degree-S coefficients while sampling the (nonlinear) speed on a
    grid of roughly twice the band limit keeps the projected right-hand side
    alias-free.  Only the leading K(S) basis columns are built on the fine
    nodes, which is what makes production band limits affordable: the full
    fine-grid operator cache would be an order of magnitude larger.

    It holds no matrices: it reads band S from the fine grid's
    ``partial_matrix`` cache, so evaluators sharing a grid build them once.
    """

    def __init__(self, grid: SphereGrid, source_degree: int):
        if source_degree > grid.degree:
            raise ValueError(
                f"source degree {source_degree} exceeds grid degree {grid.degree}"
            )
        self.grid = grid
        self.source_degree = source_degree
        self.source_count = coefficient_count(grid.dimension, source_degree)
        for order in ((0, 0), *_STATE_ORDERS[grid.dimension]):
            self._partial(*order)

    def _partial(self, d_theta: int, d_phi: int = 0) -> np.ndarray:
        return self.grid.partial_matrix(d_theta, d_phi, self.source_degree)

    def state(self, coefficients: np.ndarray):
        """Values, frame gradient, and covariant Hessian at the fine nodes."""
        c = np.asarray(coefficients, dtype=float)
        if c.shape != (self.source_count,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, expected ({self.source_count},)"
            )
        grad, hess = _derivatives(self.grid.dimension, self.grid.theta, self._partial, c)
        return self._partial(0) @ c, grad, hess

    def project(self, values: np.ndarray) -> np.ndarray:
        """Leading source-degree coefficients of a fine-grid node vector.

        Exact for integrands band-limited to source degree plus the fine
        grid's design margin; the quadratic curvature nonlinearity stays
        inside that budget when the fine degree is twice the source degree.
        """
        values = np.asarray(values, dtype=float)
        return self._partial(0).T @ (self.grid.weights * values)


def third_derivatives(field: SpectralField) -> np.ndarray:
    """Covariant third derivative T[a,b,c] = (round) nabla_a Hess_bc at nodes.

    Only the surface case needs this (gradient-inequality diagnostics); for
    curves it is the plain third angle derivative.
    """
    grid = field.grid
    c = field.coefficients
    if grid.dimension == 1:
        return (grid.partial_matrix(3) @ c)[:, None, None, None]

    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    cot = ct / st
    p = {
        order: grid.partial_matrix(*order) @ c
        for order in _STATE_ORDERS[2] + ((3, 0), (2, 1), (1, 2), (0, 3))
    }
    _, hess = _assemble_surface_state(grid.theta, *(p[o] for o in _STATE_ORDERS[2]))
    h_tt, h_tp, h_pp = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]

    # frame derivatives D_a of the Hessian components (product rule on the
    # explicit sin/cos factors), then connection corrections from the
    # round-metric frame coefficients
    d1_h_tt = p[(3, 0)]
    d2_h_tt = p[(2, 1)] / st
    d1_h_tp = (
        p[(2, 1)] / st
        - 2.0 * ct / st**2 * p[(1, 1)]
        + (1.0 / st + 2.0 * ct**2 / st**3) * p[(0, 1)]
    )
    d2_h_tp = p[(1, 2)] / st**2 - ct / st**3 * p[(0, 2)]
    d1_h_pp = (
        p[(1, 2)] / st**2
        - 2.0 * ct / st**3 * p[(0, 2)]
        + ct / st * p[(2, 0)]
        - p[(1, 0)] / st**2
    )
    d2_h_pp = p[(0, 3)] / st**3 + ct / st**2 * p[(1, 1)]

    t = np.empty((grid.node_count, 2, 2, 2))
    t[:, 0, 0, 0] = d1_h_tt
    t[:, 0, 0, 1] = d1_h_tp
    t[:, 0, 1, 0] = d1_h_tp
    t[:, 0, 1, 1] = d1_h_pp
    t[:, 1, 0, 0] = d2_h_tt - 2.0 * cot * h_tp
    mixed = d2_h_tp - cot * h_pp + cot * h_tt
    t[:, 1, 0, 1] = mixed
    t[:, 1, 1, 0] = mixed
    t[:, 1, 1, 1] = d2_h_pp + 2.0 * cot * h_tp
    return t

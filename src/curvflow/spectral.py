"""Spectral calculus for smooth scalar fields on the unit circle and unit sphere.

Fields are stored as coefficient vectors over real orthonormal bases:

* ``dimension == 1``: Fourier modes ``1/sqrt(2*pi)``, ``cos(k*t)/sqrt(pi)``,
  ``sin(k*t)/sqrt(pi)`` for ``k = 1..L`` on the unit circle.
* ``dimension == 2``: real spherical harmonics ``Y_lm`` up to degree ``L``,
  built from Condon-Shortley associated Legendre functions (colatitude part)
  and ``cos/sin`` longitude factors.

Key concepts
------------
- The quadrature grid pairs Gauss-Legendre colatitudes (``L + 1`` nodes from
  ``numpy.polynomial.legendre.leggauss``, which never touch the poles) with
  ``2L + 2`` equispaced longitudes, so products of two band-limited fields -
  spherical polynomials up to degree ``2L`` - are integrated exactly.  On the
  circle the analogue is a ``2L + 2``-point trapezoid rule, exact for
  trigonometric degree ``2L + 1``.
- The colatitude factors are fully normalized associated Legendre functions,
  built on the rings by the sectoral recurrence in m and the three-term
  recurrence in l (Holmes & Featherstone 2002), vectorized over orders and
  rings; their first colatitude derivative couples neighbouring orders.
- Transforms are separable (Schaeffer 2013, arXiv:1202.6522): synthesis sums
  colatitude factors over ``l`` on each ring of equispaced longitudes, then
  makes one real inverse FFT along the rings (the circle is one ring);
  projection is the reverse.  Longitude derivatives multiply the ring
  spectra by ``(i m)**b``.
- The radii matrix ``R = Hess s + s id`` of a support function s, in the
  orthonormal frame ``(e_theta, e_phi)``, is built in ring-spectral space:
  the per-ring Legendre sums of s and its first two colatitude derivatives
  are combined with per-ring factors (``cot theta``, ``1/sin theta``) and
  ``(i m)**b`` multipliers, and one inverse FFT gives the rows of s and of
  the three distinct entries of R (on the circle ``r = s + s''`` is one
  ``1 - m**2`` multiplier).  General tangential derivatives (the gradient,
  the Hessian and the third covariant derivative) are assembled at the
  nodes from angle partials.  Second and third colatitude derivatives of
  the Legendre factors come from the associated Legendre ODE rather than
  finite differences.
- Fields are evaluated only at the quadrature nodes.  The frame degenerates
  at the poles, which the Gauss-Legendre rings never touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

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
    "radii_rows",
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
    """Quadrature grid plus cached transform tables for one (dimension, degree).

    The grid keeps one transform record per band, for as long as it lives:
    synthesis uses the grid's own degree and ``TruncatedEvaluator`` a lower
    one.  On the sphere a band-S record holds the normalized colatitude factors
    and their first three colatitude derivatives on each ring, 4 (L+1) (S+1)^2
    numbers; on the circle only O(S) multipliers.

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
    ring_size : int
        Equispaced nodes per longitude ring (the whole circle for n=1), 2L + 2;
        nodes are stored ring by ring.
    """

    def __init__(self, dimension: int, degree: int):
        if dimension not in (1, 2):
            raise ValueError(f"unsupported dimension {dimension}; expected 1 or 2")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.dimension = dimension
        self.degree = degree
        self.ring_size = n_phi = 2 * degree + 2

        if dimension == 1:
            self.theta = 2.0 * np.pi * np.arange(n_phi) / n_phi
            self.phi = None
            self.nodes = np.column_stack([np.cos(self.theta), np.sin(self.theta)])
            self.weights = np.full(n_phi, 2.0 * np.pi / n_phi)
        else:
            x, w = leggauss(degree + 1)
            theta_rings = np.arccos(x[::-1])  # ascending colatitude
            w_rings = w[::-1]
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
        self._bands: dict[int, _Band] = {}

    def _band(self, band: int) -> _Band:
        if band not in self._bands:
            self._bands[band] = _build_band(self, band)
        return self._bands[band]

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
        rings = self.theta if self.dimension == 1 else self.theta[:: self.ring_size]
        return float(np.min(np.diff(rings)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SphereGrid(dimension={self.dimension}, degree={self.degree})"


@lru_cache(maxsize=32)
def standard_grid(dimension: int, degree: int) -> SphereGrid:
    """Shared grid instances so transform tables are built once per (n, L, band)."""
    return SphereGrid(dimension, degree)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A band-limited scalar field: coefficients plus cached node values."""

    grid: SphereGrid
    coefficients: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        # synthesis rejects a coefficient vector of the wrong shape
        object.__setattr__(self, "values", synthesize(self.grid, coeffs))
        for arr in (self.coefficients, self.values):
            arr.flags.writeable = False


def analyze(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Project node values onto the orthonormal basis.

    Exact (up to rounding) whenever the sampled function is band-limited to
    the grid's design margin, by quadrature exactness.
    """
    return _project(grid, grid.degree, values)


def synthesize(grid: SphereGrid, coefficients: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector at the grid nodes."""
    return _synthesize(grid, grid.degree, coefficients, ((0, 0),))[0]


def field_from_values(grid: SphereGrid, values: np.ndarray) -> SpectralField:
    return SpectralField(grid, analyze(grid, values))


def field_from_coefficients(grid: SphereGrid, coefficients: np.ndarray) -> SpectralField:
    return SpectralField(grid, np.asarray(coefficients, dtype=float))


# ---------------------------------------------------------------------------
# the separable transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Band:
    """Transform record of one band S on one grid.

    ``cos_index``/``sin_index`` give the coefficient slot of the cosine and
    sine part of each (m, l) on the sphere, or of each k on the circle, with
    ``count`` (one past the end) where there is none.  ``table[a, m, ring, l]``
    is the a-th colatitude derivative of the normalized colatitude factor of
    Y_lm; on the circle ``table[k]`` is the basis normalization.  ``synth[b]``
    maps a ring spectrum to the ``irfft`` input of its b-th (circle: a-th)
    derivative.  ``ring`` holds ``cot theta``, ``1/sin theta`` and
    ``1/sin(theta)**2`` per ring as (3, rings, 1) columns (None on the circle).
    """

    count: int
    cos_index: np.ndarray
    sin_index: np.ndarray
    table: np.ndarray
    synth: np.ndarray
    ring: np.ndarray | None


def _build_band(grid: SphereGrid, band: int) -> _Band:
    count = coefficient_count(grid.dimension, band)
    m = np.arange(band + 1)
    # unscaled irfft(X)[k] = X_0 + 2 Re sum_m X_m exp(i m phi_k) for 0 < m < N/2
    weight = np.where(m == 0, 1.0, 0.5)
    if grid.dimension == 1:
        table = np.where(m == 0, 1.0 / np.sqrt(2.0 * np.pi), 1.0 / np.sqrt(np.pi))
        weight = weight * table
        cos_index = np.maximum(2 * m - 1, 0)
        sin_index = np.where(m == 0, count, 2 * m)
        ring = None
    else:
        mm, l = np.meshgrid(m, m, indexing="ij")
        cos_index = np.where(l >= mm, l * l + l + mm, count)
        sin_index = np.where((l >= mm) & (mm > 0), l * l + l - mm, count)
        theta = grid.theta[:: grid.ring_size]
        table = _colatitude_table(theta, band)
        csc = 1.0 / np.sin(theta)
        ring = np.stack([np.cos(theta) * csc, csc, csc * csc])[:, :, None]
    synth = np.stack([weight * 1j**b * m**b for b in range(4)])
    return _Band(count, cos_index, sin_index, table, synth, ring)


def _colatitude_table(theta, degree):
    """(4, m, ring, l) colatitude derivatives 0..3 of the normalized factor
    sqrt(2 - [m = 0]) * Pbar_lm(cos theta) / sqrt(2 pi) at ring colatitudes.

    Pbar_lm are the fully normalized associated Legendre functions (the
    integral of Pbar_lm^2 over [-1, 1] is 1) with the Condon-Shortley phase,
    from the standard recurrences (Holmes & Featherstone 2002, J. Geodesy 76,
    279-299): the sectoral seeds Pbar_mm = -sqrt((2m + 1) / 2m) sin(theta)
    Pbar_{m-1,m-1} from Pbar_00 = 1/sqrt(2), then for all orders and rings at
    once the three-term recurrence in l,

        Pbar_lm = a_lm (cos(theta) Pbar_{l-1,m} - b_lm Pbar_{l-2,m}),
        a_lm = sqrt((4l^2 - 1) / (l^2 - m^2)),
        b_lm = sqrt(((l - 1)^2 - m^2) / (4 (l - 1)^2 - 1)),

    so the table takes O(L) array operations.  The first derivative couples
    neighbouring orders and needs no division by sin(theta):

        2 dPbar_lm/dtheta = sqrt((l - m)(l + m + 1)) Pbar_{l,m+1}
                            - sqrt((l + m)(l - m + 1)) Pbar_{l,m-1},

    with Pbar_{l,-1} = -Pbar_{l,1}.  The second and third derivatives follow
    from the associated Legendre ODE, which is better conditioned than
    repeated d/dz near the ends of the interval.
    """
    st, ct = np.sin(theta), np.cos(theta)
    # p[l + 1, m] holds Pbar_lm on every ring; the row l = -1 and the column
    # m = degree + 1 stay zero, the recurrences' missing neighbours
    p = np.zeros((degree + 2, degree + 2, theta.shape[0]))
    k = np.arange(1.0, degree + 1.0)
    steps = -np.sqrt((2.0 * k + 1.0) / (2.0 * k))[:, None] * st
    ms = np.arange(degree + 1)
    p[ms + 1, ms] = np.cumprod(np.vstack([np.full_like(st, np.sqrt(0.5)), steps]), axis=0)
    for n in range(1, degree + 1):
        m2 = ms[:n] ** 2
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m2))[:, None]
        b = np.sqrt(((n - 1.0) ** 2 - m2) / (4.0 * (n - 1.0) ** 2 - 1.0))[:, None]
        p[n + 1, :n] = a * (ct * p[n, :n] - b * p[n - 1, :n])

    pbar = np.ascontiguousarray(p[1:].transpose(1, 2, 0))  # (m, ring, l), m to degree + 1
    l = ms[None, None, :]
    m = ms[:, None, None]
    up = np.sqrt(np.maximum((l - m) * (l + m + 1), 0))
    down = np.sqrt(np.maximum((l + m) * (l - m + 1), 0))
    lower = np.concatenate([-pbar[1:2], pbar[:degree]])  # Pbar_{l,m-1}
    scale = (np.where(ms == 0, 1.0, np.sqrt(2.0)) / np.sqrt(2.0 * np.pi))[:, None, None]
    d0 = pbar[: degree + 1] * scale
    d1 = 0.5 * (up * pbar[1:] - down * lower) * scale
    s = st[:, None]
    cot = (ct / st)[:, None]
    m2_s2 = (ms**2)[:, None, None] / s**2
    lam = ms * (ms + 1.0)
    d2 = -cot * d1 + (m2_s2 - lam) * d0
    d3 = d1 / s**2 - cot * d2 - 2.0 * m2_s2 * cot * d0 + (m2_s2 - lam) * d1
    return np.stack([d0, d1, d2, d3])


def _ring_spectra(grid, band, coefficients, count):
    """The band record and the ring spectra of band-``band`` coefficients:
    on the sphere those of their first ``count`` colatitude derivatives,
    shape (count, rings, m); on the circle the one spectrum, shape (m,)."""
    t = grid._band(band)
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (t.count,):
        raise ValueError(f"coefficient vector has shape {c.shape}, expected ({t.count},)")
    padded = np.append(c, 0.0)
    spectrum = padded[t.cos_index] - 1j * padded[t.sin_index]
    if grid.dimension == 1:
        return t, spectrum
    # the l-sums as real matmuls batched over m: far faster than einsum
    ring = t.table[:count] @ np.stack([spectrum.real, spectrum.imag], axis=-1)
    return t, (ring[..., 0] + 1j * ring[..., 1]).swapaxes(1, 2)


def _irfft(grid, spectra):
    """Node rows of a stack of ``irfft`` inputs, one row per leading index."""
    return np.fft.irfft(spectra, n=grid.ring_size, norm="forward").reshape(len(spectra), -1)


def _synthesize(grid, band, coefficients, orders):
    """Rows of node values of the partials d^a/dtheta^a d^b/dphi^b, one per
    (a, b) in ``orders``, of band-``band`` coefficients (circle: b = 0)."""
    a, b = (list(x) for x in zip(*orders))
    t, spectra = _ring_spectra(grid, band, coefficients, max(a) + 1)
    if grid.dimension == 1:
        return _irfft(grid, spectra * t.synth[a])
    return _irfft(grid, spectra[a] * t.synth[b, None])


def _radii_rows(grid, band, coefficients):
    """Node rows of a band-``band`` support function s and of its radii
    matrix R = Hess s + s id in the frame (e_theta[, e_phi]): (s, r) on the
    circle, (s, R_00, R_01, R_11) on the sphere.

    With p_ab the partial d^a/dtheta^a d^b/dphi^b of s,

        R_00 = p_20 + s,
        R_01 = (p_11 - cot(theta) p_01) / sin(theta),
        R_11 = p_02 / sin(theta)**2 + cot(theta) p_10 + s,

    and on the circle r = p_2 + s.  The theta factors are constant on each
    ring, so they scale the ring spectra of s, p_10 and p_20 before the one
    inverse FFT, and each phi-derivative is an (i m)**b multiplier.
    """
    t, spectra = _ring_spectra(grid, band, coefficients, 3)
    w, w_im, w_m2 = t.synth[:3]  # w_m2 = -w m**2
    if grid.dimension == 1:
        return _irfft(grid, spectra * np.stack([w, w + w_m2]))
    s, s_t, s_tt = spectra
    cot, csc, csc2 = t.ring
    r01 = (s_t - cot * s) * csc * w_im
    r11 = (s + cot * s_t) * w + s * csc2 * w_m2
    return _irfft(grid, np.stack([s * w, (s_tt + s) * w, r01, r11]))


def _project(grid, band, values):
    """Band-``band`` coefficients of node ``values`` by quadrature."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.node_count,):
        raise ValueError(f"value vector has shape {values.shape}, expected ({grid.node_count},)")
    t = grid._band(band)
    rings = np.fft.rfft((grid.weights * values).reshape(-1, grid.ring_size))[:, : band + 1]
    if grid.dimension == 1:
        h = rings[0] * t.table
    else:
        h = t.table[0].swapaxes(1, 2) @ np.stack([rings.real.T, rings.imag.T], axis=-1)
        h = h[..., 0] + 1j * h[..., 1]
    c = np.empty(t.count + 1)
    c[t.cos_index] = h.real
    c[t.sin_index] = -h.imag
    return c[:-1]


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
    p = _synthesize(grid, grid.degree, field.coefficients, _FRAME_ORDERS[grid.dimension])
    if grid.dimension == 1:
        return p[0][:, None], p[1][:, None, None]
    return _assemble_surface_state(grid.theta, *p)


def radii_rows(field: SpectralField) -> np.ndarray:
    """Node rows of a support function s and of its radii matrix
    R = Hess s + s id, shape (2, M) rows (s, r) on the circle and (4, M)
    rows (s, R_00, R_01, R_11) on the sphere, in the orthonormal frame
    (e_theta[, e_phi])."""
    return _radii_rows(field.grid, field.grid.degree, field.coefficients)


# angle partials (d_theta, d_phi) of the frame gradient and Hessian, per
# dimension; for surfaces in the argument order of _assemble_surface_state
_FRAME_ORDERS = {1: ((1, 0), (2, 0)), 2: ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}


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
    alias-free.

    It holds no tables: it reads band S from the fine grid's transform
    cache, so evaluators sharing a grid build them once.
    """

    def __init__(self, grid: SphereGrid, source_degree: int):
        if source_degree > grid.degree:
            raise ValueError(f"source degree {source_degree} exceeds grid degree {grid.degree}")
        self.grid = grid
        self.source_degree = source_degree
        self.source_count = coefficient_count(grid.dimension, source_degree)
        grid._band(source_degree)

    def state(self, coefficients: np.ndarray) -> np.ndarray:
        """Support values and radii-matrix entries at the fine nodes.

        Rows as in ``radii_rows``: (s, r) on the circle, (s, R_00, R_01,
        R_11) on the sphere, synthesized in ring-spectral space by one
        inverse FFT.
        """
        return _radii_rows(self.grid, self.source_degree, coefficients)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Leading source-degree coefficients of a fine-grid node vector.

        Exact for integrands band-limited to source degree plus the fine
        grid's design margin; the quadratic curvature nonlinearity stays
        inside that budget when the fine degree is twice the source degree.
        """
        return _project(self.grid, self.source_degree, values)


def third_derivatives(field: SpectralField) -> np.ndarray:
    """Covariant third derivative T[a,b,c] = (round) nabla_a Hess_bc at nodes.

    Only the surface case needs this (gradient-inequality diagnostics); for
    curves it is the plain third angle derivative.
    """
    grid = field.grid
    c = field.coefficients
    if grid.dimension == 1:
        return _synthesize(grid, grid.degree, c, ((3, 0),))[0][:, None, None, None]

    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    cot = ct / st
    orders = _FRAME_ORDERS[2] + ((3, 0), (2, 1), (1, 2), (0, 3))
    p = dict(zip(orders, _synthesize(grid, grid.degree, c, orders)))
    _, hess = _assemble_surface_state(grid.theta, *(p[o] for o in _FRAME_ORDERS[2]))
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

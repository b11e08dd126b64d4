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
  trigonometric degree ``2L + 1``.  A longer even ring is exact for more; the
  flow stepper's fine grid (``smooth_grid``) takes the shortest one of at
  least ``2L + 2`` points whose prime factors are all at most 5, because the
  real FFT is several times slower on lengths with a large prime factor
  (``2L + 2 = 194 = 2 * 97`` on the degree-96 fine grid of a degree-64
  curve) and slower on a radix-7 length than on a 5-smooth one a little
  longer.  Every other grid keeps ``2L + 2``, which sets the node spacing the
  time step is scaled by.
- A degree-F grid projects the product of two band-S fields back to band S
  exactly when 2F + 1 >= 3S, that is F >= ceil((3S - 1) / 2) = floor(3S / 2)
  (Orszag's 3/2 rule): the integrand against a band-S basis function has
  degree 3S.  The flow stepper's fine grid has that degree.
- The colatitude factors are fully normalized associated Legendre functions,
  built on the rings by the sectoral recurrence in m and the three-term
  recurrence in l (Holmes & Featherstone 2002), vectorized over orders and
  rings; their first colatitude derivative couples neighbouring orders.
- Transforms are separable (Schaeffer 2013, arXiv:1202.6522): synthesis sums
  colatitude factors over ``l`` on each ring of equispaced longitudes, then
  makes one real inverse FFT along the rings (the circle is one ring);
  projection is the reverse.  Longitude derivatives multiply the ring
  spectra by ``(i m)**b``.
- The support function s and its radii matrix ``R = Hess s + s id`` in the
  orthonormal frame ``(e_theta, e_phi)``, which the flow stepper
  synthesizes four times a step, take one pass: each band keeps one real
  table whose four slabs, summed over ``l`` against the spectrum by one
  matmul batched over ``m``, give the ring spectra of s, R_00, R_01 / i and
  R_11, and one inverse FFT gives their node rows.  The table is built once
  per band from the Legendre values and first colatitude derivatives, the
  per-ring factors (``cot theta``, ``1/sin theta``) and the ``(i m)**b``
  multipliers, with the associated Legendre ODE for the second derivative;
  its first slab serves plain synthesis and projection.
- The transforms read and write the complex spectrum c_cos - i c_sin of a
  band, shape (S + 1,) on the circle and (S + 1, S + 1) indexed (m, l) on
  the sphere, whose slots with no coefficient (the m = 0 sine part, l < m)
  read zero.  ``analyze``, ``synthesize`` and ``radii_rows`` convert
  coefficient vectors at their edge; ``TruncatedEvaluator`` works on
  spectra, so the flow stepper carries its state in that layout.
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
    "smooth_grid",
    "sphere_area",
    "analyze",
    "synthesize",
    "coefficient_count",
    "radii_rows",
    "sup_bound",
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
    one.  On the sphere a band-S record holds the radii table, 4 (L+1) (S+1)^2
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
        polynomials up to degree 2L + 1.
    ring_size : int
        Equispaced nodes per longitude ring (the whole circle for n=1); nodes
        are stored ring by ring.  2L + 2 unless given: the flow stepper's fine
        grid (``smooth_grid``) takes a longer, 5-smooth ring.
    """

    def __init__(self, dimension: int, degree: int, *, ring_size: int | None = None):
        if dimension not in (1, 2):
            raise ValueError(f"unsupported dimension {dimension}; expected 1 or 2")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if ring_size is None:
            ring_size = 2 * degree + 2
        elif not isinstance(ring_size, int) or ring_size % 2 or ring_size < 2 * degree + 2:
            raise ValueError(
                f"ring_size must be an even integer >= 2 * degree + 2 = {2 * degree + 2}, "
                f"got {ring_size!r}"
            )
        self.dimension = dimension
        self.degree = degree
        self.ring_size = n_phi = ring_size

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

    def min_spacing(self) -> float:
        """Minimal angular spacing of the colatitude/angle grid.

        This is the finest scale a degree-L field resolves and feeds the
        parabolic time-step heuristic.
        """
        rings = self.theta if self.dimension == 1 else self.theta[:: self.ring_size]
        return float(np.min(np.diff(rings)))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SphereGrid(dimension={self.dimension}, degree={self.degree}, "
            f"ring_size={self.ring_size})"
        )


@lru_cache(maxsize=32)
def standard_grid(dimension: int, degree: int) -> SphereGrid:
    """Shared grid instances so transform tables are built once per (n, L, band)."""
    return SphereGrid(dimension, degree)


@lru_cache(maxsize=32)
def smooth_grid(dimension: int, degree: int) -> SphereGrid:
    """Shared degree-``degree`` grids whose ring length is the smallest even
    number of at least 2L + 2 with no prime factor above 5: the flow
    stepper's fine grids, of degree floor(3S / 2) for a band-S body (the 3/2
    rule of the module docstring), on which the real FFTs cost least:
    pocketfft's radix-7 pass costs more than the few extra points of a
    5-smooth length.

    Kept apart from ``standard_grid``: the two differ whenever 2L + 2 has a
    prime factor above 5 (2L + 2 = 130 = 2 * 5 * 13 takes 144 at L = 64).
    """
    return SphereGrid(dimension, degree, ring_size=_smooth_ring_size(degree))


def _smooth_ring_size(degree: int) -> int:
    n = 2 * degree + 2
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 2


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A band-limited scalar field: coefficients plus cached node values.

    The body type of curvflow: a convex body is its support function, one
    such field (``body.SupportFunction`` names this class)."""

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

    @property
    def dimension(self) -> int:
        return self.grid.dimension


def analyze(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Project node values onto the orthonormal basis.

    Exact (up to rounding) whenever the sampled function is band-limited to
    the grid's design margin, by quadrature exactness.
    """
    return _coefficients(grid._band(grid.degree), _project(grid, grid.degree, values))


def synthesize(grid: SphereGrid, coefficients: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector at the grid nodes."""
    return _synthesize(grid, coefficients, 0)


# ---------------------------------------------------------------------------
# the separable transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Band:
    """Transform record of one band S on one grid.

    ``cos_index``/``sin_index`` give the coefficient slot of the cosine and
    sine part of each (m, l) on the sphere, or of each k on the circle, with
    ``count`` (one past the end) where there is none.  ``radii`` maps a
    spectrum to the ``irfft`` inputs of the support function s and its radii
    matrix: on the circle two multipliers, for s and r = s + s''; on the
    sphere one real (m, 4 rings, l) table whose four slabs give, summed over
    l against the spectrum, the ring spectra of s, R_00, R_01 / i and R_11
    (``_radii_table``).  Its first slab is the weighted Legendre values w P,
    which synthesis reads and projection reads divided by w.

    On the circle ``synth[b]`` maps a spectrum to the ``irfft`` input of its
    b-th angle derivative (b = 0, 1), and ``norm[k]`` is the basis
    normalization, which projection reads; both are None on the sphere.
    """

    count: int
    cos_index: np.ndarray
    sin_index: np.ndarray
    radii: np.ndarray
    synth: np.ndarray | None = None
    norm: np.ndarray | None = None


def _circle_normalization(band):
    return np.where(np.arange(band + 1) == 0, 1.0 / np.sqrt(2.0 * np.pi), 1.0 / np.sqrt(np.pi))


@lru_cache(maxsize=32)
def _degree_peaks(dimension: int, band: int) -> np.ndarray:
    """Per degree, the largest root sum of squares of its basis functions at
    one point: the normalization on the circle, sqrt((2l + 1) / 4 pi) on the
    sphere (Unsold's addition theorem)."""
    if dimension == 1:
        return _circle_normalization(band)
    return np.sqrt((2.0 * np.arange(band + 1.0) + 1.0) / (4.0 * np.pi))


def sup_bound(spectrum: np.ndarray) -> float:
    """A bound on |f| everywhere on the circle or sphere for the field f of a
    complex spectrum in ``TruncatedEvaluator``'s layout.

    Each degree adds the norm of its coefficients times its peak: on the
    circle |c_cos cos kt + c_sin sin kt| <= |c_cos - i c_sin|, and on the
    sphere Cauchy-Schwarz over m bounds degree l by its coefficient norm
    times sqrt(sum_m Y_lm(x)**2) = sqrt((2l + 1) / 4 pi).  A single mode or
    degree attains it at a point where its kernel peaks.
    """
    power = spectrum.real**2 + spectrum.imag**2
    if spectrum.ndim == 2:
        power = power.sum(axis=0)
    return float(np.sqrt(power) @ _degree_peaks(spectrum.ndim, spectrum.shape[-1] - 1))


def _build_band(grid: SphereGrid, band: int) -> _Band:
    count = coefficient_count(grid.dimension, band)
    m = np.arange(band + 1)
    # unscaled irfft(X)[k] = X_0 + 2 Re sum_m X_m exp(i m phi_k) for 0 < m < N/2
    weight = np.where(m == 0, 1.0, 0.5)
    if grid.dimension == 1:
        norm = _circle_normalization(band)
        w = weight * norm
        cos_index = np.maximum(2 * m - 1, 0)
        sin_index = np.where(m == 0, count, 2 * m)
        synth = np.stack([w * 1j**b * m**b for b in range(2)])
        return _Band(count, cos_index, sin_index, np.stack([w, w - w * m**2]), synth, norm)
    mm, l = np.meshgrid(m, m, indexing="ij")
    cos_index = np.where(l >= mm, l * l + l + mm, count)
    sin_index = np.where((l >= mm) & (mm > 0), l * l + l - mm, count)
    theta = grid.theta[:: grid.ring_size]
    lam = m * (m + 1.0)
    csc = 1.0 / np.sin(theta)
    ring = np.stack([np.cos(theta) * csc, csc, csc * csc])[:, :, None]
    radii = _radii_table(_colatitude_table(theta, band), lam, ring, weight)
    return _Band(count, cos_index, sin_index, radii)


def _radii_table(table, lam, ring, weight):
    """The (m, 4 rings, l) table of the radii rows from the two-slab Legendre
    ``table`` (P, dP = the colatitude factor and its first derivative), as the
    frame Hessian of one term P e^(i m phi) plus P on the diagonal, with
    q = m**2 / sin(theta)**2 and the weights w of ``synth[0]``:

        s     = w P,
        R_00  = w ((1 - l(l + 1) + q) P - cot(theta) dP),
        R_01  = i w m (dP - cot(theta) P) / sin(theta),
        R_11  = w (cot(theta) dP + (1 - q) P),

    R_00 taking d^2P/dtheta^2 from the associated Legendre ODE.  The slab of
    R_01 holds it divided by i.
    """
    p, dp = table
    m = np.arange(p.shape[0])[:, None, None]
    cot, csc, csc2 = ring
    out = np.empty((p.shape[0], 4, *p.shape[1:]))
    s, r00, r01, r11 = out.transpose(1, 0, 2, 3)
    # each slab written in place, R_01's first holding cot(theta) dP
    np.multiply(dp, cot, out=r01)
    np.multiply(p, 1.0 - m * m * csc2, out=r11)
    r11 += r01
    np.multiply(p, 2.0 - lam, out=r00)  # R_00 + R_11 = w (2 - l(l + 1)) P
    r00 -= r11
    np.multiply(p, cot, out=r01)
    np.subtract(dp, r01, out=r01)
    r01 *= m * csc
    s[...] = p
    out *= weight[:, None, None, None]
    return out.reshape(p.shape[0], -1, p.shape[2])


def _colatitude_table(theta, degree):
    """(2, m, ring, l) colatitude derivatives 0 and 1 of the normalized factor
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

    with Pbar_{l,-1} = -Pbar_{l,1}.  ``_radii_table`` takes the second
    derivative from the associated Legendre ODE.
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
    return np.stack([d0, d1])


# the coefficient that a missing (m, l) slot reads
_ZERO = np.zeros(1)


def _spectrum(t, coefficients):
    """The complex spectrum c_cos - i c_sin of the coefficients of band record
    ``t``: shape (m,) on the circle, (m, l) on the sphere.  The slots with no
    coefficient (the m = 0 sine part, and l < m on the sphere) read zero."""
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (t.count,):
        raise ValueError(f"coefficient vector has shape {c.shape}, expected ({t.count},)")
    padded = np.concatenate((c, _ZERO))
    return padded[t.cos_index] - 1j * padded[t.sin_index]


def _coefficients(t, spectrum):
    """The coefficient vector of a band-``t`` spectrum, the inverse of ``_spectrum``."""
    c = np.empty(t.count + 1)
    c[t.cos_index] = spectrum.real
    c[t.sin_index] = -spectrum.imag
    return c[:-1]


def _irfft(grid, spectra, out=None):
    """Node rows of a stack of ``irfft`` inputs, one row per leading index,
    written into the C-contiguous (rows, nodes) array ``out`` if one is given."""
    if out is None:
        return np.fft.irfft(spectra, n=grid.ring_size, norm="forward").reshape(len(spectra), -1)
    np.fft.irfft(spectra, n=grid.ring_size, norm="forward", out=out.reshape(*spectra.shape[:-1], -1))
    return out


def _synthesize(grid, coefficients, order):
    """Node values of degree-L coefficients, or on the circle of their
    ``order``-th angle derivative (order 0 or 1); on the sphere (order 0
    only) the weighted Legendre values, the first slab of the radii table,
    are summed alone."""
    t = grid._band(grid.degree)
    spectrum = _spectrum(t, coefficients)
    if grid.dimension == 1:
        return _irfft(grid, (spectrum * t.synth[order])[None])[0]
    ring = t.radii[:, : grid.degree + 1] @ spectrum.view(float).reshape(*spectrum.shape, 2)
    return _irfft(grid, ring.view(complex).T)[0]


def _radii_rows(grid, band, spectrum, out=None):
    """Node rows of the support function s with band-``band`` spectrum
    ``spectrum`` and of its radii matrix R = Hess s + s id in the frame
    (e_theta[, e_phi]), by one inverse FFT: (s, r) on the circle, where
    r = s + s'' is one ``1 - m**2`` multiplier, and (s, R_00, R_01, R_11) on
    the sphere, whose ring spectra are one matmul of the band's radii table
    with the spectrum, batched over m.  The rows are written into ``out``
    if it is given."""
    t = grid._band(band)
    if grid.dimension == 1:
        return _irfft(grid, spectrum * t.radii, out)
    # the ring spectra, zero-padded to the irfft's input length: the matmul
    # writes them, as real and imaginary parts, through a (m, row and ring,
    # 2) view, from the float view of the spectrum
    rings = grid.degree + 1
    rows = np.empty((4, rings, grid.ring_size // 2 + 1), complex)
    rows[..., band + 1 :] = 0.0
    sums = rows.view(float).reshape(4 * rings, -1, 2)[:, : band + 1].swapaxes(0, 1)
    np.matmul(t.radii, spectrum.view(float).reshape(*spectrum.shape, 2), out=sums)
    rows[2, :, : band + 1] *= 1j  # the table holds R_01 / i
    return _irfft(grid, rows, out)


def _project(grid, band, values, out=None):
    """The band-``band`` spectrum of node ``values`` by quadrature, written
    into the C-contiguous complex array ``out`` if one is given; its slots
    with no coefficient read zero."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.node_count,):
        raise ValueError(f"value vector has shape {values.shape}, expected ({grid.node_count},)")
    t = grid._band(band)
    weighted = grid.weights * values
    if grid.dimension == 1:
        return np.multiply(np.fft.rfft(weighted)[: band + 1], t.norm, out=out)
    if out is None:
        out = np.empty((band + 1, band + 1), complex)
    rings = np.fft.rfft(weighted.reshape(-1, grid.ring_size))[:, : band + 1]
    # (m, ring, 2) real and imaginary parts: the float view of the contiguous
    # transposed spectra; the table is zero for l < m, and its first slab,
    # w P, over w (1 or 1/2) is exactly P
    parts = np.ascontiguousarray(rings.T).view(float).reshape(band + 1, -1, 2)
    spectrum = out.view(float).reshape(band + 1, -1, 2)
    np.matmul(t.radii[:, : rings.shape[0]].swapaxes(1, 2), parts, out=spectrum)
    spectrum[1:] *= 2.0
    return out


# ---------------------------------------------------------------------------
# the radii matrix on the grid
# ---------------------------------------------------------------------------


def radii_rows(field: SpectralField) -> np.ndarray:
    """Node rows of a support function s and of its radii matrix
    R = Hess s + s id, shape (2, M) rows (s, r) on the circle and (4, M)
    rows (s, R_00, R_01, R_11) on the sphere, in the orthonormal frame
    (e_theta[, e_phi])."""
    grid = field.grid
    return _radii_rows(grid, grid.degree, _spectrum(grid._band(grid.degree), field.coefficients))


class TruncatedEvaluator:
    """Evaluates and projects low-degree fields on a finer grid.

    Evolving degree-S fields while sampling the (nonlinear) speed on a grid
    of degree at least floor(3S / 2) keeps the quadratic part of the
    projected right-hand side alias-free.  ``state`` and ``project`` work on
    the band-S complex spectrum c_cos - i c_sin, shape (S + 1,) on the
    circle and (S + 1, S + 1) indexed (m, l) on the sphere, so a time stepper
    can carry its state in the transforms' own layout, and write into arrays
    the caller owns when given ``out``; ``spectrum`` and ``coefficients``
    convert from and to coefficient vectors.

    It holds no tables: it reads band S from the fine grid's transform
    cache, so evaluators sharing a grid build them once.
    """

    def __init__(self, grid: SphereGrid, source_degree: int):
        if source_degree > grid.degree:
            raise ValueError(f"source degree {source_degree} exceeds grid degree {grid.degree}")
        self.grid = grid
        self.source_degree = source_degree
        self.source_count = coefficient_count(grid.dimension, source_degree)
        band = grid._band(source_degree)
        self.spectrum_shape = band.cos_index.shape

    def spectrum(self, coefficients: np.ndarray) -> np.ndarray:
        """The complex spectrum of source-degree coefficients."""
        return _spectrum(self.grid._band(self.source_degree), coefficients)

    def coefficients(self, spectrum: np.ndarray) -> np.ndarray:
        """The source-degree coefficient vector of a spectrum."""
        return _coefficients(self.grid._band(self.source_degree), spectrum)

    def state(self, spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Support values and radii-matrix entries at the fine nodes.

        Rows as in ``radii_rows``: (s, r) on the circle, (s, R_00, R_01,
        R_11) on the sphere, synthesized in ring-spectral space by one
        inverse FFT, into ``out`` (a C-contiguous float array of that shape)
        if it is given.
        """
        if spectrum.shape != self.spectrum_shape:
            raise ValueError(
                f"spectrum has shape {spectrum.shape}, expected {self.spectrum_shape}"
            )
        return _radii_rows(self.grid, self.source_degree, spectrum, out)

    def project(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The source-degree spectrum of a fine-grid node vector, written into
        ``out`` (a C-contiguous complex array of the spectrum's shape) if it
        is given.

        Exact for integrands band-limited to the source degree plus the fine
        grid's design margin F: the Gauss rule of F + 1 rings integrates
        polynomials of degree 2F + 1 and a ring of at least 2F + 2 points
        trigonometric degree 2F + 1.  A product of two source-degree fields
        projected on degree S has degree 3S, so F >= (3S - 1) / 2 makes its
        projection exact (Orszag's 3/2 rule).
        """
        return _project(self.grid, self.source_degree, values, out)

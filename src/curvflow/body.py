"""Convex bodies represented by band-limited support functions.

A smooth, uniformly convex body in R^(n+1) is stored through its support
function s sampled spectrally on the unit n-sphere.  The radii-of-curvature
matrix ``R = Hess s + s * id`` (covariant Hessian with respect to the round
metric, orthonormal frame) has the principal radii of curvature as
eigenvalues; positivity of R is exactly uniform convexity, and the inverse
eigenvalues are the principal curvatures of the boundary hypersurface.

The Gauss-map embedding recovers boundary points as ``X = s u + grad s``,
with outward normal u at X.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .spectral import (
    SphereGrid,
    SpectralField,
    analyze,
    field_from_coefficients,
    radii_rows,
    standard_grid,
    tangential_derivatives,
)

__all__ = [
    "ConvexityLostError",
    "SupportFunction",
    "CurvatureField",
    "EmbeddingSample",
    "PinchingStatus",
    "support_from_values",
    "support_from_coefficients",
    "curvature",
    "embed",
    "pinching_status",
    "steiner_point",
    "recenter",
    "translate",
    "save_snapshot",
    "load_snapshot",
    "snapshot_to_text",
    "snapshot_from_text",
]

SNAPSHOT_FORMAT = "curvflow.snapshot"

# Relative floor on the smallest radii eigenvalue before a body is rejected
# as no longer uniformly convex; guards against spectral ringing
# masquerading as nonconvexity.
DEFAULT_CONVEXITY_TOL = 1e-8


class ConvexityLostError(RuntimeError):
    """Raised when the radii matrix stops being safely positive definite."""

    def __init__(self, node_index: int, eigenvalue: float, scale: float):
        self.node_index = node_index
        self.eigenvalue = eigenvalue
        self.scale = scale
        super().__init__(
            f"radii matrix not positive definite: eigenvalue {eigenvalue:.6e} "
            f"at node {node_index} (body scale {scale:.6e})"
        )


@dataclass(frozen=True, eq=False)
class SupportFunction:
    """A support function on the standard grid: the body's full state."""

    grid: SphereGrid
    field: SpectralField

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def coefficients(self) -> np.ndarray:
        return self.field.coefficients

    def mean_radius(self) -> float:
        return float(np.sum(self.grid.weights * self.values) / self.grid.sphere_area)


def support_from_values(grid: SphereGrid, values: np.ndarray) -> SupportFunction:
    if not np.all(np.isfinite(values)):
        raise ValueError("support function is non-finite on some node")
    return SupportFunction(grid, SpectralField(grid, analyze(grid, values)))


def support_from_coefficients(grid: SphereGrid, coefficients: np.ndarray) -> SupportFunction:
    return SupportFunction(grid, field_from_coefficients(grid, coefficients))


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """Pointwise curvature data of a support function at the grid nodes.

    ``kappa`` holds principal curvatures sorted ascending per node; it is
    the field's only state.  The symmetric functions are computed from it on
    first read and kept, so a caller that needs only ``kappa`` (a
    Runge-Kutta stage) never pays for them.  ``radii_sigma[:, k]`` is the
    k-th elementary symmetric function of the principal radii (so
    ``radii_sigma[:, n]`` is the Gauss-chart area element det R).
    ``elementary[:, k]`` is the normalized mean E_k = sigma_k(kappa) / C(n, k),
    so E_k = 1 on the unit sphere.
    """

    kappa: np.ndarray

    # kappa is (M, n) with n <= 2: working on whole columns avoids numpy's
    # slow loops over a short last axis
    @cached_property
    def radii_sigma(self) -> np.ndarray:
        return np.column_stack(_elementary_symmetric(1.0 / self.kappa))

    @cached_property
    def elementary(self) -> np.ndarray:
        n = self.kappa.shape[1]
        sigma = _elementary_symmetric(self.kappa)
        return np.column_stack([sigma_k / comb(n, k) for k, sigma_k in enumerate(sigma)])

    @cached_property
    def mean(self) -> np.ndarray:
        """Sum of the principal curvatures."""
        return sum(self.kappa.T)

    @cached_property
    def traceless_norm2(self) -> np.ndarray:
        """Squared norm of the traceless part of the second fundamental form."""
        average = self.mean / self.kappa.shape[1]
        return sum((k - average) ** 2 for k in self.kappa.T)

    @property
    def area_element(self) -> np.ndarray:
        return self.radii_sigma[:, -1]


def _elementary_symmetric(x):
    """Columns sigma_0 .. sigma_n of the elementary symmetric functions of
    the n columns of ``x``."""
    sigma = [np.ones(x.shape[0])]
    for column in x.T:
        sigma = [sigma[0], *(a + column * b for a, b in zip(sigma[1:], sigma)), column * sigma[-1]]
    return sigma


def _curvature_from_radii_data(rows, convexity_tol):
    """CurvatureField from node rows (s, radii-matrix entries), laid out as
    ``spectral.radii_rows`` gives them: (s, r) or (s, R_00, R_01, R_11)."""
    s = rows[0]
    scale = max(float(np.mean(np.abs(s))), np.finfo(float).tiny)
    if len(rows) == 2:
        r = rows[1]
        bad = ~(r > convexity_tol * scale)  # NaN radii count as lost convexity
        if np.any(bad):
            i = int(np.argmin(r))
            raise ConvexityLostError(i, float(r[i]), scale)
        return CurvatureField((1.0 / r)[:, None])

    # the radii matrix in units of a power of two at the body's scale, so that
    # its squares cannot overflow; scaling by a power of two is exact, so every
    # result below equals the unscaled formula's bit for bit
    unit = np.ldexp(1.0, np.frexp(scale)[1])
    inv = 1.0 / unit
    r00, r01, r11 = rows[1:] * inv
    half_tr = 0.5 * (r00 + r11)
    disc = np.sqrt((0.5 * (r00 - r11)) ** 2 + r01 * r01)
    r_small = half_tr - disc
    bad = ~(r_small > convexity_tol * scale * inv)
    if np.any(bad):
        i = int(np.argmin(r_small))
        raise ConvexityLostError(i, float(r_small[i] * unit), scale)
    return CurvatureField(np.column_stack([inv / (half_tr + disc), inv / r_small]))  # ascending


def curvature(body: SupportFunction, convexity_tol: float = DEFAULT_CONVEXITY_TOL) -> CurvatureField:
    """Principal curvatures and derived symmetric functions at the grid nodes.

    The radii matrix comes from ``spectral.radii_rows``, the synthesis the
    flow's stepper makes on its fine grid, here at the body's own degree.

    Raises
    ------
    ConvexityLostError
        If the smallest radii eigenvalue at any node falls below
        ``convexity_tol`` times the body scale.
    """
    return _curvature_from_radii_data(radii_rows(body.field), convexity_tol)


@dataclass(frozen=True, eq=False)
class EmbeddingSample:
    points: np.ndarray
    normals: np.ndarray
    support: np.ndarray


def embed(body: SupportFunction) -> EmbeddingSample:
    """Boundary points X = s u + grad s with outward normal u."""
    grad, _ = tangential_derivatives(body.field)
    frames = body.grid.frames()
    grad_ambient = np.einsum("pa,pax->px", grad, frames)
    points = body.values[:, None] * body.grid.nodes + grad_ambient
    return EmbeddingSample(points=points, normals=body.grid.nodes, support=body.values)


@dataclass(frozen=True)
class PinchingStatus:
    max_ratio: float
    argmax_node: int
    mean_positive: bool
    in_cone: bool


def pinching_status(body_or_curv, delta0: float) -> PinchingStatus:
    """Worst traceless-to-mean curvature ratio and cone membership."""
    curv = body_or_curv if isinstance(body_or_curv, CurvatureField) else curvature(body_or_curv)
    mean_positive = bool(np.all(curv.mean > 0.0))
    if not mean_positive:
        return PinchingStatus(np.inf, int(np.argmin(curv.mean)), False, False)
    ratio = curv.traceless_norm2 / curv.mean**2
    i = int(np.argmax(ratio))
    max_ratio = float(ratio[i])
    return PinchingStatus(max_ratio, i, True, max_ratio < delta0)


# ---------------------------------------------------------------------------
# recentering
# ---------------------------------------------------------------------------


def steiner_point(body: SupportFunction) -> np.ndarray:
    """Curvature-free center: (n+1)/|S^n| times the first moment of s."""
    grid = body.grid
    n_amb = grid.dimension + 1
    return n_amb / grid.sphere_area * (grid.weights * body.values) @ grid.nodes


def translate(body: SupportFunction, offset: np.ndarray) -> SupportFunction:
    """Support function of the body translated by ``offset``."""
    offset = np.asarray(offset, dtype=float)
    return support_from_values(body.grid, body.values + body.grid.nodes @ offset)


def recenter(body: SupportFunction, point: np.ndarray | None = None):
    """Move the origin to ``point`` (default: the Steiner point).

    Returns the recentered body and the point used; subtracting the degree-1
    component of s is exactly the Steiner choice.
    """
    p = steiner_point(body) if point is None else np.asarray(point, dtype=float)
    return translate(body, -p), p


# ---------------------------------------------------------------------------
# snapshot serialization
# ---------------------------------------------------------------------------


def snapshot_to_text(body: SupportFunction, time: float) -> str:
    record = {
        "format": SNAPSHOT_FORMAT,
        "version": 1,
        "dimension": body.grid.dimension,
        "degree": body.grid.degree,
        "time": float(time),
        "coefficients": [float(c) for c in body.coefficients],
    }
    return json.dumps(record, indent=1)


def snapshot_from_text(text: str) -> tuple[SupportFunction, float]:
    record = json.loads(text)
    if record.get("format") != SNAPSHOT_FORMAT:
        raise ValueError("not a support-function snapshot")
    if record.get("version") != 1:
        raise ValueError(f"unsupported snapshot version {record.get('version')!r}")
    grid = standard_grid(int(record["dimension"]), int(record["degree"]))
    coeffs = np.asarray(record["coefficients"], dtype=float)
    time = float(record["time"])
    # json reads NaN and Infinity, and overflows a number such as 1e400 to inf
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("snapshot has non-finite coefficients")
    if not np.isfinite(time):
        raise ValueError(f"snapshot has non-finite time {time!r}")
    return support_from_coefficients(grid, coeffs), time


def save_snapshot(body: SupportFunction, time: float, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snapshot_to_text(body, time))
        fh.write("\n")


def load_snapshot(path) -> tuple[SupportFunction, float]:
    with open(path, "r", encoding="utf-8") as fh:
        return snapshot_from_text(fh.read())

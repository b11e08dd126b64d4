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

import numpy as np

from .spectral import (
    SphereGrid,
    SpectralField,
    analyze,
    field_from_coefficients,
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

    ``kappa`` holds principal curvatures sorted ascending per node.
    ``radii_sigma[:, k]`` is the k-th elementary symmetric function of the
    principal radii (so ``radii_sigma[:, n]`` is the Gauss-chart area
    element det R).  ``elementary[:, k]`` is the normalized mean
    E_k = sigma_k(kappa) / C(n, k), so E_k = 1 on the unit sphere.
    """

    kappa: np.ndarray
    radii_sigma: np.ndarray
    elementary: np.ndarray
    mean: np.ndarray
    traceless_norm2: np.ndarray

    @property
    def area_element(self) -> np.ndarray:
        return self.radii_sigma[:, -1]


def _curvature_from_radii_data(dimension, s, hess, convexity_tol):
    """Assemble a CurvatureField given support values and frame Hessians."""
    m = s.shape[0]
    scale = max(float(np.mean(np.abs(s))), np.finfo(float).tiny)
    if dimension == 1:
        r = hess[:, 0, 0] + s
        bad = ~(r > convexity_tol * scale)  # NaN radii count as lost convexity
        if np.any(bad):
            i = int(np.argmin(r))
            raise ConvexityLostError(i, float(r[i]), scale)
        kappa = (1.0 / r)[:, None]
        sigma = np.column_stack([np.ones(m), r])
        elementary = np.column_stack([np.ones(m), kappa[:, 0]])
        mean = kappa[:, 0]
        return CurvatureField(
            kappa=kappa,
            radii_sigma=sigma,
            elementary=elementary,
            mean=mean,
            traceless_norm2=np.zeros(m),
        )

    # the radii matrix in units of a power of two at the body's scale, so that
    # its squares cannot overflow; scaling by a power of two is exact, so every
    # result below equals the unscaled formula's bit for bit
    unit = np.ldexp(1.0, np.frexp(scale)[1])
    inv = 1.0 / unit
    r00 = (hess[:, 0, 0] + s) * inv
    r01 = hess[:, 0, 1] * inv
    r11 = (hess[:, 1, 1] + s) * inv
    half_tr = 0.5 * (r00 + r11)
    det = r00 * r11 - r01 * r01
    disc = np.sqrt(np.maximum((0.5 * (r00 - r11)) ** 2 + r01 * r01, 0.0))
    r_small = half_tr - disc
    bad = ~(r_small > convexity_tol * scale * inv)
    if np.any(bad):
        i = int(np.argmin(r_small))
        raise ConvexityLostError(i, float(r_small[i] * unit), scale)
    r_large = half_tr + disc

    kappa = np.column_stack([inv / r_large, inv / r_small])  # ascending
    sigma = np.column_stack([np.ones(m), half_tr * (2.0 * unit), det * (unit * unit)])
    mean = half_tr / det * (2.0 * inv)  # sum of curvatures
    gauss = (inv * inv) / det
    norm2 = mean * mean - 2.0 * gauss
    traceless = norm2 - 0.5 * mean * mean
    elementary = np.column_stack([np.ones(m), 0.5 * mean, gauss])
    return CurvatureField(
        kappa=kappa,
        radii_sigma=sigma,
        elementary=elementary,
        mean=mean,
        traceless_norm2=np.maximum(traceless, 0.0),
    )


def curvature(body: SupportFunction, convexity_tol: float = DEFAULT_CONVEXITY_TOL) -> CurvatureField:
    """Principal curvatures and derived symmetric functions at the grid nodes.

    Raises
    ------
    ConvexityLostError
        If the smallest radii eigenvalue at any node falls below
        ``convexity_tol`` times the body scale.
    """
    _, hess = tangential_derivatives(body.field)
    return _curvature_from_radii_data(body.dimension, body.values, hess, convexity_tol)


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

"""Convex bodies represented by band-limited support functions.

A smooth, uniformly convex body in R^(n+1) is stored through its support
function s sampled spectrally on the unit n-sphere.  The radii-of-curvature
matrix ``R = Hess s + s * id`` (covariant Hessian with respect to the round
metric, orthonormal frame) has the principal radii of curvature as
eigenvalues; positivity of R is exactly uniform convexity, and the inverse
eigenvalues are the principal curvatures of the boundary hypersurface.

The body type is ``spectral.SpectralField`` itself, named ``SupportFunction``
here: a body is its support function's field, with no state beside it.
``elementary_symmetric`` is the one kernel for sigma_0 .. sigma_n; the
curvature field, the speeds and the Maclaurin suite all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    SphereGrid,
    SpectralField,
    analyze,
    coefficient_count,
    radii_rows,
    standard_grid,
)

__all__ = [
    "ConvexityLostError",
    "SupportFunction",
    "CurvatureField",
    "PinchingStatus",
    "elementary_symmetric",
    "support_from_values",
    "support_from_coefficients",
    "curvature",
    "pinching_status",
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


# a body is the spectral field of its support function: its full state
SupportFunction = SpectralField


def support_from_values(grid: SphereGrid, values: np.ndarray) -> SupportFunction:
    if not np.all(np.isfinite(values)):
        raise ValueError("support function is non-finite on some node")
    return SupportFunction(grid, analyze(grid, values))


def support_from_coefficients(grid: SphereGrid, coefficients: np.ndarray) -> SupportFunction:
    return SupportFunction(grid, coefficients)


def elementary_symmetric(x) -> list[np.ndarray]:
    """sigma_0 .. sigma_n of the n entries along the last axis of ``x``, one
    array each, by the recursion that appends one entry at a time:
    sigma_k <- sigma_k + x_i sigma_(k-1)."""
    x = np.asarray(x, dtype=float)
    sigma = [np.ones(x.shape[:-1])]
    for i in range(x.shape[-1]):
        column = x[..., i]
        sigma = [sigma[0], *(a + column * b for a, b in zip(sigma[1:], sigma)), column * sigma[-1]]
    return sigma


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """Pointwise curvature data of a support function at the grid nodes.

    ``kappa`` holds principal curvatures sorted ascending per node; it is
    the field's only state.  The symmetric functions are computed from it on
    first read and kept, so a caller that needs only ``kappa`` (a
    Runge-Kutta stage) never pays for them.  ``radii_sigma[:, k]`` is the
    k-th elementary symmetric function of the principal radii (so
    ``radii_sigma[:, n]`` is the Gauss-chart area element det R).
    """

    kappa: np.ndarray

    # kappa is (M, n) with n <= 2: working on whole columns avoids numpy's
    # slow loops over a short last axis
    @cached_property
    def radii_sigma(self) -> np.ndarray:
        return np.column_stack(elementary_symmetric(1.0 / self.kappa))

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


_TINY = np.finfo(float).tiny
_HALF_DIAGONAL = np.array([[0.5], [1.0], [0.5]])


def _curvature_from_radii_data(rows, convexity_tol):
    """CurvatureField from node rows (s, radii-matrix entries), laid out as
    ``spectral.radii_rows`` gives them: (s, r) or (s, R_00, R_01, R_11).

    On the sphere it works in the radii-matrix rows in place and leaves them
    overwritten; s is only read."""
    s = rows[0]
    # np.mean's own arithmetic, without its Python wrapper
    scale = max(float(np.add.reduce(np.abs(s)) / s.size), _TINY)
    if len(rows) == 2:
        r = rows[1]
        if not r.min() > convexity_tol * scale:  # NaN radii count as lost convexity
            i = int(np.argmin(r))
            raise ConvexityLostError(i, float(r[i]), scale)
        return CurvatureField((1.0 / r)[:, None])

    # the radii matrix in units of a power of two at the body's scale, so that
    # its squares cannot overflow, with the diagonal halved; scaling by a power
    # of two is exact, so every result below equals the unscaled formula's bit
    # for bit.  kappa is ascending, each column contiguous: the speeds and the
    # step rule read it column by column.
    unit = np.ldexp(1.0, np.frexp(scale)[1])
    inv = 1.0 / unit
    r00, r01, r11 = radii = rows[1:]
    radii *= inv * _HALF_DIAGONAL
    kappa = np.empty((2, s.size))
    # the eigenvalues half_tr -+ disc, disc = sqrt((R_00 - R_11)**2 / 4 + R_01**2)
    half_tr = np.add(r00, r11, out=kappa[0])
    disc = np.subtract(r00, r11, out=r00)
    disc *= disc
    r01 *= r01
    disc += r01
    np.sqrt(disc, out=disc)
    r_small = np.subtract(half_tr, disc, out=r11)
    if not r_small.min() > convexity_tol * scale * inv:
        i = int(np.argmin(r_small))
        raise ConvexityLostError(i, float(r_small[i] * unit), scale)
    half_tr += disc
    np.divide(inv, half_tr, out=kappa[0])
    np.divide(inv, r_small, out=kappa[1])
    return CurvatureField(kappa.T)


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
    return _curvature_from_radii_data(radii_rows(body), convexity_tol)


@dataclass(frozen=True)
class PinchingStatus:
    max_ratio: float
    argmax_node: int
    mean_positive: bool
    in_cone: bool


def pinching_status(body_or_curv, delta0: float, work: np.ndarray | None = None) -> PinchingStatus:
    """Worst traceless-to-mean curvature ratio and cone membership.

    The ratio is ``traceless_norm2 / mean**2`` of ``CurvatureField``, bit for
    bit, read off kappa's columns in one pass through the three node vectors
    ``work`` (allocated if not given), so that the flow's stepper screens
    every accepted state in arrays it owns.  The state is in the cone if H > 0
    at every node and the worst ratio is below ``delta0``; a NaN fails both.
    """
    curv = body_or_curv if isinstance(body_or_curv, CurvatureField) else curvature(body_or_curv)
    kappa = curv.kappa
    n = kappa.shape[1]
    if work is None:
        work = np.empty((3, len(kappa)))
    h = np.add(kappa[:, 0], kappa[:, 1], out=work[0]) if n == 2 else kappa[:, 0]
    i = int(np.argmin(h))
    if not h[i] > 0.0:  # argmin finds the first NaN
        return PinchingStatus(np.inf, i, False, False)
    if n == 1 and h.max() < np.inf:
        # a curve's one curvature has no traceless part: the ratio is 0 everywhere
        return PinchingStatus(0.0, 0, True, 0.0 < delta0)
    average = np.divide(h, n, out=work[1])
    ratio = np.subtract(kappa[:, 0], average, out=work[2])
    ratio *= ratio
    if n == 2:
        d = np.subtract(kappa[:, 1], average, out=work[1])
        d *= d
        ratio += d
    ratio /= np.multiply(h, h, out=work[1])
    i = int(np.argmax(ratio))
    max_ratio = float(ratio[i])
    return PinchingStatus(max_ratio, i, True, max_ratio < delta0)


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
    # no indent: json's C encoder serves only unindented output;
    # snapshot_from_text reads the older indented files alike
    return json.dumps(record)


_NUMBER_TYPES = {int, float}


def snapshot_from_text(text: str) -> tuple[SupportFunction, float]:
    """The body and time of a snapshot; ValueError if the text is not a
    snapshot object with integer ``dimension`` and ``degree``, a list of
    ``coefficients`` of the degree's count, and a ``time``, all finite."""
    record = json.loads(text)
    if not isinstance(record, dict) or record.get("format") != SNAPSHOT_FORMAT:
        raise ValueError("not a support-function snapshot")
    if record.get("version") != 1:
        raise ValueError(f"unsupported snapshot version {record.get('version')!r}")
    missing = [k for k in ("dimension", "degree", "coefficients", "time") if k not in record]
    if missing:
        raise ValueError(f"snapshot lacks {', '.join(missing)}")
    dimension, degree, values = record["dimension"], record["degree"], record["coefficients"]
    for key, value in (("dimension", dimension), ("degree", degree)):
        if type(value) is not int:
            raise ValueError(f"snapshot {key} must be an integer, got {value!r}")
    if type(record["time"]) not in _NUMBER_TYPES:
        raise ValueError(f"snapshot time must be a number, got {record['time']!r}")
    if not isinstance(values, list) or not set(map(type, values)) <= _NUMBER_TYPES:
        raise ValueError("snapshot coefficients must be a list of numbers")
    # checked before the grid is built, whose size the degree sets
    if len(values) != coefficient_count(dimension, degree):
        raise ValueError(
            f"snapshot has {len(values)} coefficients, degree {degree} needs "
            f"{coefficient_count(dimension, degree)}"
        )
    grid = standard_grid(dimension, degree)
    coeffs = np.asarray(values, dtype=float)
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

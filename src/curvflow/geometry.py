"""Integral geometry of convex bodies given spectrally.

Normalized mixed volumes V_0, ..., V_{n+1} are scaled so that the ball of
radius rho has V_k = rho**k: V_1 is half the mean width, V_n is surface
area over the sphere's, V_{n+1} is volume over the unit ball's.  Every V_k
with 1 <= k <= n is computed along two independent quadrature routes and
cross-checked; their agreement is a strong self-test of the curvature
pipeline:

  * radii route   (0 <= k <= n):    average of sigma_k(radii) / C(n, k)
  * support route (1 <= k <= n+1):  average of s sigma_{k-1}(radii) / C(n, k-1)

Inradius and circumradius come from small linear programs over the sampled
support values, and Diskant-type bounds sandwich them using only the mixed
volumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.optimize import linprog

from .body import CurvatureField, SupportFunction, curvature

__all__ = [
    "MixedVolumes",
    "mixed_volumes_radii",
    "mixed_volumes_support",
    "mixed_volumes",
    "DirectRadii",
    "direct_radii",
    "DiskantBounds",
    "diskant_bounds",
    "RadiusReport",
    "radius_report",
    "GeomboundResult",
    "geombound_check",
    "ek_comparison_margin",
    "volume_decay_rate",
]

# agreement demanded of the two quadrature routes on every call
ROUTE_CHECK_TOL = 1e-6
# slack for the Alexandrov-Fenchel witness inequalities
AF_WITNESS_TOL = 1e-9


def _mean(grid, values: np.ndarray) -> float:
    return float(np.sum(grid.weights * values) / grid.sphere_area)


def mixed_volumes_radii(body: SupportFunction, curv: CurvatureField | None = None) -> np.ndarray:
    """V_0..V_n from the principal radii alone (origin-independent)."""
    if curv is None:
        curv = curvature(body)
    n = body.dimension
    out = np.empty(n + 1)
    for k in range(n + 1):
        out[k] = _mean(body.grid, curv.radii_sigma[:, k]) / comb(n, k)
    return out


def mixed_volumes_support(body: SupportFunction, curv: CurvatureField | None = None) -> np.ndarray:
    """V_1..V_{n+1} weighting the radii against the support values."""
    if curv is None:
        curv = curvature(body)
    n = body.dimension
    out = np.empty(n + 1)
    for k in range(1, n + 2):
        integrand = body.values * curv.radii_sigma[:, k - 1]
        out[k - 1] = _mean(body.grid, integrand) / comb(n, k - 1)
    return out


@dataclass(frozen=True)
class MixedVolumes:
    """Both quadrature routes plus their average as the canonical value."""

    radii_route: np.ndarray  # V_0..V_n
    support_route: np.ndarray  # V_1..V_{n+1}
    canonical: np.ndarray  # V_0..V_{n+1}

    @property
    def dimension(self) -> int:
        return self.canonical.size - 2

    @property
    def iso_ratio(self) -> float:
        """V_1**(n+1) / V_{n+1}: at least 1, equality only for balls."""
        n = self.dimension
        return float(self.canonical[1] ** (n + 1) / self.canonical[n + 1])

    def agreement_error(self) -> float:
        """Worst relative mismatch of the two routes on the shared range."""
        a = self.radii_route[1:]
        b = self.support_route[:-1]
        return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)))


def mixed_volumes(
    body: SupportFunction,
    curv: CurvatureField | None = None,
    check_tol: float = ROUTE_CHECK_TOL,
) -> MixedVolumes:
    """Cross-checked mixed volumes; canonical values average the two routes.

    Raises
    ------
    RuntimeError
        If the routes disagree beyond ``check_tol`` relative, or if the
        Alexandrov-Fenchel witness inequalities V_1 >= sqrt(V_2) and
        V_n <= V_1**n fail beyond tolerance: both signal a broken
        curvature pipeline, not a property of the body.
    """
    if curv is None:
        curv = curvature(body)
    n = body.dimension
    a = mixed_volumes_radii(body, curv)
    b = mixed_volumes_support(body, curv)
    canonical = np.empty(n + 2)
    canonical[0] = a[0]
    canonical[1 : n + 1] = 0.5 * (a[1:] + b[: n])
    canonical[n + 1] = b[n]
    mv = MixedVolumes(radii_route=a, support_route=b, canonical=canonical)

    err = mv.agreement_error()
    if not err <= check_tol:
        raise RuntimeError(
            f"mixed-volume routes disagree by {err:.3e} relative (tolerance {check_tol:.1e})"
        )
    v = canonical
    if v[n] > v[1] ** n * (1.0 + AF_WITNESS_TOL):
        raise RuntimeError(f"Alexandrov-Fenchel witness failed: V_n = {v[n]} > V_1^n = {v[1]**n}")
    if n >= 1 and v[1] ** 2 < v[2] * (1.0 - AF_WITNESS_TOL):
        raise RuntimeError(f"Alexandrov-Fenchel witness failed: V_1^2 = {v[1]**2} < V_2 = {v[2]}")
    return mv


@dataclass(frozen=True)
class DirectRadii:
    r_minus: float
    r_plus: float
    incenter: np.ndarray
    circumcenter: np.ndarray

    @property
    def ratio(self) -> float:
        return self.r_plus / self.r_minus


def direct_radii(body: SupportFunction) -> DirectRadii:
    """Largest inscribed and smallest enclosing ball via linear programs.

    Sampling the support constraint at the grid nodes only, the inradius is
    a slight overestimate and the circumradius a slight underestimate; both
    converge at the grid's resolution.  The solver is deterministic, so
    repeated calls are bit-identical.
    """
    nodes = body.grid.nodes
    s = body.values
    m, d = nodes.shape
    free = [(None, None)] * d + [(0.0, None)]

    # inradius: max t with <c, u> + t <= s(u) at all nodes
    res_in = linprog(
        c=np.append(np.zeros(d), -1.0),
        A_ub=np.column_stack([nodes, np.ones(m)]),
        b_ub=s,
        bounds=free,
        method="highs",
    )
    if not res_in.success:
        raise RuntimeError(f"inradius LP failed: {res_in.message}")

    # circumradius: min t with s(u) - <c, u> <= t at all nodes
    res_out = linprog(
        c=np.append(np.zeros(d), 1.0),
        A_ub=np.column_stack([-nodes, -np.ones(m)]),
        b_ub=-s,
        bounds=free,
        method="highs",
    )
    if not res_out.success:
        raise RuntimeError(f"circumradius LP failed: {res_out.message}")

    return DirectRadii(
        r_minus=float(res_in.x[-1]),
        r_plus=float(res_out.x[-1]),
        incenter=res_in.x[:-1].copy(),
        circumcenter=res_out.x[:-1].copy(),
    )


@dataclass(frozen=True)
class DiskantBounds:
    lower: float  # inradius is at least this
    upper: float  # circumradius is at most this
    clamped: bool


def diskant_bounds(mv: MixedVolumes) -> DiskantBounds:
    """Sandwich the in/circumradius using mixed volumes only.

    With the body rescaled to unit V_{n+1} (scale lambda), the inradius is
    bounded below through V_n and the circumradius above through V_1.  The
    radicands vanish exactly on balls, so roundoff-level values (below
    1e-12, negatives included) are treated as zero before the fractional
    root amplifies them; strictly negative ones also set the flag.
    """
    volumes = mv.canonical
    n = mv.dimension
    lam = volumes[n + 1] ** (1.0 / (n + 1))
    vn = volumes[n] / lam**n
    v1 = volumes[1] / lam

    rad_n = vn ** ((n + 1) / n) - 1.0
    rad_1 = v1 ** ((n + 1) / n) - 1.0
    clamped = bool(rad_n < 0.0 or rad_1 < 0.0)
    rad_n = rad_n if rad_n >= 1e-12 else 0.0
    rad_1 = rad_1 if rad_1 >= 1e-12 else 0.0

    lower = lam * (vn ** (1.0 / n) - rad_n ** (1.0 / (n + 1)))
    denom = v1 ** (1.0 / n) - rad_1 ** (1.0 / (n + 1))
    upper = lam / denom if denom > 0.0 else np.inf
    return DiskantBounds(lower=float(lower), upper=float(upper), clamped=clamped)


@dataclass(frozen=True)
class RadiusReport:
    """Direct LP radii combined with the Diskant sandwich."""

    r_minus: float
    r_plus: float
    incenter: np.ndarray
    circumcenter: np.ndarray
    diskant_lower: float
    diskant_upper: float

    @property
    def ratio(self) -> float:
        return self.r_plus / self.r_minus


def radius_report(body: SupportFunction, curv: CurvatureField | None = None) -> RadiusReport:
    direct = direct_radii(body)
    bounds = diskant_bounds(mixed_volumes(body, curv))
    return RadiusReport(
        r_minus=direct.r_minus,
        r_plus=direct.r_plus,
        incenter=direct.incenter,
        circumcenter=direct.circumcenter,
        diskant_lower=bounds.lower,
        diskant_upper=bounds.upper,
    )


@dataclass(frozen=True)
class GeomboundResult:
    """Empirical roundness thresholds from a sequence of radius pairs."""

    r_plus: np.ndarray
    ratio: np.ndarray
    thresholds: dict[float, float]  # rho -> largest safe circumradius
    ratio_monotone: bool


def geombound_check(r_plus, ratio, rho_grid) -> GeomboundResult:
    """Largest circumradius threshold under which observed shapes are round.

    For each rho, reports the largest C such that every observed snapshot
    with r_+ < C satisfied r_+ <= (1 + rho) r_-; that is the smallest r_+
    among violating snapshots, or +inf when none violates.  Monotonicity of
    the ratio along shrinking r_+ is reported, never assumed.
    """
    r_plus = np.asarray(r_plus, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    thresholds = {}
    for rho in rho_grid:
        violating = ratio > 1.0 + rho
        thresholds[float(rho)] = float(np.min(r_plus[violating])) if np.any(violating) else np.inf
    order = np.argsort(r_plus)[::-1]  # shrinking circumradius
    monotone = bool(np.all(np.diff(ratio[order]) <= 1e-12))
    return GeomboundResult(
        r_plus=r_plus, ratio=ratio, thresholds=thresholds, ratio_monotone=monotone
    )


def ek_comparison_margin(curv: CurvatureField, k: int, ell: int, eps: float) -> float:
    """Worst value of E_k - (1 + eps) E_ell**(k/ell) over the nodes.

    This is the smallest constant that makes the comparison hold on the
    body; it is reported raw, never clamped at zero.
    """
    n = curv.elementary.shape[1] - 1
    if not (1 <= k < ell <= n):
        raise ValueError("need 1 <= k < ell <= n")
    values = curv.elementary[:, k] - (1.0 + eps) * curv.elementary[:, ell] ** (k / ell)
    return float(np.max(values))


def volume_decay_rate(
    body: SupportFunction, curv: CurvatureField, speed_values: np.ndarray
) -> float:
    """Instantaneous decrease rate of V_{n+1} when the support function
    falls at ``speed_values`` on the grid nodes."""
    n = body.dimension
    return (n + 1) * _mean(body.grid, speed_values * curv.area_element)

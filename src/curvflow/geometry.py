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
volumes.  Both programs read max t subject to <c, u_i> + t <= b_i at every
node u_i, with b = s for the inradius and b = -s for the circumradius
(r_+ = -t, circumcentre -c).  A dense dual simplex solves them: a basis is
dual-feasible exactly when the origin lies in the convex hull of its nodes,
which depends on the grid alone, so ``RadiiSolver`` starts each snapshot of a
run from the previous snapshot's optimal basis.  The centre it reports is
canonical, whatever vertex the pivots reach: with t fixed at its optimum,
each coordinate in turn is the midpoint of its range over the optimal
centres that share the coordinates fixed before it.  Those centre ranges
take 2d programs against the radius's one, and most readers want only the
radii, so a centre is solved the first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .body import CurvatureField, SupportFunction, curvature
from .spectral import SphereGrid

__all__ = [
    "MixedVolumes",
    "mixed_volumes_radii",
    "mixed_volumes_support",
    "mixed_volumes",
    "DirectRadii",
    "RadiiSolver",
    "direct_radii",
    "DiskantBounds",
    "diskant_bounds",
    "GeomboundResult",
    "geombound_check",
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


# a constraint violated by less than this, relative to the largest |b_i| or
# |z_k|, counts as satisfied: rounding of the residuals stays below it
_FEAS_TOL = 1e-13
_PIVOT_TOL = 1e-11  # smallest entry the ratio test pivots on
_TIE_TOL = 1e-13  # ratios closer than this tie in the ratio test
_DUAL_TOL = 1e-9  # a dual value below -_DUAL_TOL marks a basis as not dual-feasible
# a basis whose condition estimate exceeds this is replaced by the cold start:
# its rounding would swamp _FEAS_TOL (the radii runs' bases stay below 200)
_MAX_CONDITION = 1e6
# pivots without progress in the objective before Bland's rule takes over
_STALL_PIVOTS = 8
# pivots one program may take before it counts as failed
_MAX_PIVOTS = 10_000
# relative slack of the optimal face whose coordinate ranges fix the centre
_FACE_SLACK = 1e-12
# the centre's box, in units of the largest face bound; the face never reaches it
_BOX = 1e3

# vertices of a regular simplex about the origin, keyed by ambient dimension
_SIMPLEX = {
    2: np.array([[0.0, 1.0], [-0.5 * np.sqrt(3.0), -0.5], [0.5 * np.sqrt(3.0), -0.5]]),
    3: np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    / np.sqrt(3.0),
}


def _usable_inverse(sub: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Inverse of a basis matrix, or None when it is singular, ill-conditioned
    or not dual-feasible for the objective g (rounding allowed for)."""
    try:
        inv = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        return None
    condition = np.abs(sub).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    if not (condition <= _MAX_CONDITION and (inv.T @ g).min() >= -_DUAL_TOL):
        return None
    return inv


class RadiiSolver:
    """Dual simplex for the radii programs of one run, warm-started across calls.

    Each program is max g.z subject to A z <= b.  Whether a basis is
    dual-feasible depends on A and g only, that is on the grid, so the optimal
    basis of one call, kept with its inverse, is a valid start for the next
    call on the same grid, and a solve takes a few pivots.  The cold start for
    a radius takes the nodes nearest a regular simplex's vertices; for a
    centre range it takes the centre's box.  A singular, ill-conditioned or
    dual-infeasible basis is replaced by the cold start, and Bland's rule takes
    over once the objective stalls.  The bases are kept for the last grid seen
    and belong to this object alone; ``radii_solves``, ``target_solves``,
    ``pivots`` and ``restarts`` count its work: its ``radii`` calls,
    ``inradius`` calls, simplex pivots and cold starts.

    ``radii`` runs the two radius programs only.  The 2d centre-range programs
    of each centre run when the returned ``DirectRadii`` is first asked for
    that centre, on whatever grid the solver has moved to since: a read on
    another grid moves the solver back, as ``radii`` would.
    """

    def __init__(self):
        self._grid = None
        self._bases: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.radii_solves = 0
        self.target_solves = 0
        self.pivots = 0
        self.restarts = 0

    def _set_grid(self, grid) -> None:
        nodes = grid.nodes
        m, d = nodes.shape
        self._grid = grid
        self._bases = {}
        self._ball_rows = np.column_stack([nodes, np.ones(m)])
        self._ball_objective = np.eye(d + 1)[d]
        self._ball_cold = np.argmax(nodes @ _SIMPLEX[d].T, axis=0)
        # centre ranges: the nodes, then the box rows e_0..e_{d-1}, -e_0..-e_{d-1};
        # the lower end of coordinate j maximizes -c_j, the upper end c_j
        self._face_rows = np.vstack([nodes, np.eye(d), -np.eye(d)])
        self._face_programs = []
        for j in range(d):
            for side, row in ((0, m + d + j), (1, m + j)):
                cold = np.array([row] + [m + k for k in range(d) if k != j])
                self._face_programs.append((j, side, self._face_rows[row], cold))

    def radii(self, body: SupportFunction) -> DirectRadii:
        """Both radii of ``body``; its centres are solved on first read."""
        self.radii_solves += 1
        s = body.values
        t_in = self._inradius(body)
        t_out = self._program("circumradius", -s)
        return DirectRadii(r_minus=t_in, r_plus=-t_out, solver=self, grid=body.grid, support=s)

    def inradius(self, body: SupportFunction) -> float:
        """The inradius of ``body`` alone, the one program a flow's stop test
        needs; it shares its warm start with ``radii``, so a ``radii`` call
        on the same body next reads the same value."""
        self.target_solves += 1
        return self._inradius(body)

    def _inradius(self, body: SupportFunction) -> float:
        if body.grid is not self._grid:
            self._set_grid(body.grid)
        s = body.values
        if not np.all(np.isfinite(s)):
            raise RuntimeError("inradius LP failed: non-finite support values")
        t_in = self._program("inradius", s)
        if not t_in >= 0.0:
            raise RuntimeError(f"inradius LP failed: the node half-spaces hold no ball (t = {t_in})")
        return t_in

    def _program(self, label: str, b: np.ndarray) -> float:
        """Optimal t of max t s.t. <c, u_i> + t <= b_i."""
        d = self._grid.nodes.shape[1]
        scale = float(np.max(np.abs(b))) or 1.0
        z = self._simplex(
            label, (label,), self._ball_rows, b, self._ball_objective, self._ball_cold, scale
        )
        return float(z[d])

    def _centre(self, label: str, grid, b: np.ndarray, t: float) -> np.ndarray:
        """Canonical centre of the program ``_program(label, b)`` solved with
        optimum ``t`` on ``grid``; read-only."""
        if grid is not self._grid:
            self._set_grid(grid)
        m, d = grid.nodes.shape
        scale = float(np.max(np.abs(b))) or 1.0

        # the optimal centres, thickened by a slack that a translation keeps;
        # each coordinate in turn is the midpoint of its range within the
        # slice the earlier ones fix, so the centre is itself optimal
        slack = max(_FACE_SLACK * abs(t), 2.0 * _FEAS_TOL * scale)
        face = b - t + slack
        face = np.concatenate([face, np.full(2 * d, _BOX * float(np.max(np.abs(face))))])
        ends = np.empty((2, d))
        for j, side, g, cold in self._face_programs:
            key = (label, j, side)
            z = self._simplex(label, key, self._face_rows, face, g, cold, scale)
            basis = self._bases[key][0]
            if np.any((basis[basis >= m] - m) % d >= j):  # the box of a coordinate not yet fixed
                raise RuntimeError(f"{label} LP failed: the optimal centres are unbounded")
            ends[side, j] = z[j]
            if side == 1:
                middle = 0.5 * (ends[0, j] + ends[1, j])
                face[m + j], face[m + d + j] = middle + slack, slack - middle
        centre = 0.5 * (ends[0] + ends[1])
        centre.flags.writeable = False
        return centre

    def _simplex(self, label, key, rows, b, g, cold, scale) -> np.ndarray:
        """Maximize g.z subject to rows z <= b, from the stored basis for
        ``key`` or else ``cold``; stores the optimal basis, returns z.  A
        constraint counts as violated beyond rounding of the larger of
        ``scale`` and the entries of z."""
        basis, inv = self._bases.get(key, (cold, None))
        best, stall, bland = np.inf, 0, False
        for _ in range(_MAX_PIVOTS):
            if inv is None:
                inv = _usable_inverse(rows[basis], g)
                if inv is None:
                    if np.array_equal(basis, cold):
                        raise RuntimeError(f"{label} LP failed: the cold-start basis is unusable")
                    basis = cold
                    best, stall, bland = np.inf, 0, False
                    self.restarts += 1
                    continue
            z = inv @ b[basis]
            residual = b - rows @ z
            residual[basis] = 0.0  # tight by construction, whatever the rounding
            tol = _FEAS_TOL * max(scale, float(np.max(np.abs(z))))
            violated = np.flatnonzero(residual < -tol)
            if violated.size == 0:
                self._bases[key] = (basis, inv)
                return z
            value = float(g @ z)
            stall = 0 if value < best - tol else stall + 1
            best = min(best, value)
            bland = bland or stall >= _STALL_PIVOTS
            enter = violated[0] if bland else violated[np.argmin(residual[violated])]
            w = inv.T @ rows[enter]
            eligible = np.flatnonzero(w > _PIVOT_TOL)
            if eligible.size == 0:
                raise RuntimeError(f"{label} LP failed: the program is infeasible")
            ratio = np.maximum((inv.T @ g)[eligible], 0.0) / w[eligible]
            ties = eligible[ratio <= ratio.min() + _TIE_TOL]
            leave = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(w[ties])]
            basis = basis.copy()
            basis[leave] = enter
            inv = None
            self.pivots += 1
        raise RuntimeError(f"{label} LP failed: no optimal basis after {_MAX_PIVOTS} pivots")


@dataclass(frozen=True, eq=False)
class DirectRadii:
    """Inradius and circumradius of one body, with their canonical centres.

    The radii are solved when the record is made.  Each centre is solved the
    first time it is read, by ``solver`` from ``grid`` and the read-only
    ``support`` values the radii came from, and kept, so a reader of the
    radii alone never pays for the centres.  A centre read therefore raises
    the "optimal centres are unbounded" RuntimeError that an eager solve
    would have raised with the radii.
    """

    r_minus: float
    r_plus: float
    solver: RadiiSolver = field(repr=False)
    grid: SphereGrid = field(repr=False)
    support: np.ndarray = field(repr=False)

    @property
    def ratio(self) -> float:
        return self.r_plus / self.r_minus

    @cached_property
    def incenter(self) -> np.ndarray:
        return self.solver._centre("inradius", self.grid, self.support, self.r_minus)

    @cached_property
    def circumcenter(self) -> np.ndarray:
        centre = -self.solver._centre("circumradius", self.grid, -self.support, -self.r_plus)
        centre.flags.writeable = False
        return centre


def direct_radii(body: SupportFunction, solver: RadiiSolver | None = None) -> DirectRadii:
    """Largest inscribed and smallest enclosing ball via linear programs.

    Sampling the support constraint at the grid nodes only, the inradius is
    a slight overestimate and the circumradius a slight underestimate; both
    converge at the grid's resolution.  ``solver`` carries warm-start bases
    from earlier calls on the same grid; without one the programs start cold.
    The radii are the programs' optimal values and the centres canonical, so
    any start gives the same result up to rounding, and the same sequence of
    calls gives bit-identical results.

    Only the radii are solved here; each centre is solved on its first read
    (see ``DirectRadii``).  A body whose node half-spaces hold no ball raises
    RuntimeError at once; unbounded optimal centres raise it on the first
    read of that centre.
    """
    return (solver if solver is not None else RadiiSolver()).radii(body)


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
class GeomboundResult:
    """Empirical roundness thresholds from a sequence of radius pairs."""

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
    return GeomboundResult(thresholds=thresholds, ratio_monotone=monotone)


def volume_decay_rate(
    body: SupportFunction, curv: CurvatureField, speed_values: np.ndarray
) -> float:
    """Instantaneous decrease rate of V_{n+1} when the support function
    falls at ``speed_values`` on the grid nodes."""
    n = body.dimension
    return (n + 1) * _mean(body.grid, speed_values * curv.area_element)

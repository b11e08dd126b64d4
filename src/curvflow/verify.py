"""Property suites and trajectory monitors.

Two layers live here.  The lemma suites stress the pointwise curvature
inequalities on random samples spanning the pinching cone, boundary cases
included, and report a worst margin with a witness.  The monitors consume a
flow trajectory (or a single body) and check the quantities that the
contraction theory says must stay one-signed: the pinching quantity Z_sigma,
the time-interior speed bound, the enclosed-point expansion margin, the
gradient inequality, and the exact volume-decay identity.

``diagnostics_record`` computes each per-snapshot monitor value once.
Monitors never assert; they return reports.  ``flow_checks`` alone judges
them against the tolerances below, for ``simulate`` and ``verify flow`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .body import SupportFunction, elementary_symmetric
from .flow import CollapseEstimate, Trajectory, estimate_collapse
from .geometry import volume_decay_rate
from .shapes import resample
from .spectral import (
    _synthesize,
    analyze,
    standard_grid,
    tangential_derivatives,
    third_derivatives,
)

__all__ = [
    "LEMMA_MARGIN_TOL",
    "LemmaReport",
    "lemma_pinch_suite",
    "lemma_cest_suite",
    "lemma_traceless_suite",
    "lemma_maclaurin_suite",
    "run_lemma_suites",
    "GradientInequalityReport",
    "gradient_margins",
    "gradient_inequality_monitor",
    "CurveResidualReport",
    "curve_evolution_residual",
    "VolumeDecayReport",
    "volume_decay_check",
    "TsoReport",
    "DiagnosticsRecord",
    "diagnostics_record",
    "kappa_gap_table",
    "Check",
    "flow_checks",
    "Z_SIGMA_TOL",
    "TSO_TOL",
    "ENCLOSED_POINT_TOL",
    "VOLUME_DECAY_TOL",
    "CURVE_RESIDUAL_TOL",
]

# a sample counts as a violation only below this margin
LEMMA_MARGIN_TOL = 1e-12

# The tolerances of the trajectory verdicts of ``flow_checks``.
# Z_sigma may exceed 0 by this multiple of sigma * max(H)**2 (rounding).
Z_SIGMA_TOL = 1e-10
# The interior speed bound may be exceeded by this relative amount (plus
# 1e-12 absolute).
TSO_TOL = 1e-9
# The enclosed-point margin may fall this far below 0.
ENCLOSED_POINT_TOL = -1e-8
# Relative error of the central-difference volume decay rate.
VOLUME_DECAY_TOL = 1e-2
# Largest curve evolution residual over the equation's right-hand side at
# the same snapshot.  On a resolved run the residual is the error of a
# three-point time stencil at the snapshot cadence, so it grows with the
# square of the snapshot spacing: on criterion 12's (1, 1.2) ladder (every
# 2nd step, to half the inradius) it is at most 1.6e-3 under RK4 and 6.7e-3
# under ETDRK4 at L = 32 to 128, and at every 10th step to a fifth of the
# inradius at most 0.144 (pow_mean alpha = 3 on the (1, 1.6) ellipse).  At
# L = 16 that ellipse reads 0.16 to 0.95, because the band limit does not
# resolve its curvature.  A corrupted snapshot or a blown-up step reads far
# above the tolerance.
CURVE_RESIDUAL_TOL = 0.25


# ---------------------------------------------------------------------------
# lemma suites


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one randomized inequality suite."""

    lemma: str
    dimension: int
    samples: int
    violations: int
    worst_margin: float
    worst_witness: np.ndarray
    tolerance: float = LEMMA_MARGIN_TOL

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({self.violations} violations)"
        return (
            f"{self.lemma} n={self.dimension}: {state}, "
            f"{self.samples} samples, worst margin {self.worst_margin:.3e}"
        )


def _sample_kappa_batch(
    n: int, samples: int, rng: np.random.Generator, pinch_cap: bool
) -> np.ndarray:
    """Curvature tuples kappa = (H/n)(1 + rho xi) spanning the cone.

    xi is a random traceless unit vector and rho runs from 0 up to the
    positivity boundary (additionally the pinching boundary when
    ``pinch_cap``); every eighth sample saturates the cap, and a block of
    deterministic extremal directions (one low entry, the rest equal) is
    appended because those saturate the pinching bounds exactly.
    """
    xi = rng.standard_normal((samples, n))
    xi -= xi.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(xi, axis=1)
    small = norms < 1e-12
    xi[small] = 0.0
    norms[small] = 1.0
    xi /= norms[:, None]

    # stay strictly inside kappa > 0
    cap = (1.0 - 1e-9) / np.maximum(-xi.min(axis=1), 1e-12)
    if pinch_cap:
        cap = np.minimum(cap, n * np.sqrt((1.0 - 1e-9) / (n * (n - 1))))
    frac = rng.uniform(0.0, 1.0, samples)
    frac[::8] = 1.0

    total = n * 10.0 ** rng.uniform(-0.5, 0.5, samples)
    kappa = (total[:, None] / n) * (1.0 + (frac * cap)[:, None] * xi)

    extremal = np.ones((n - 1)) if n > 1 else np.ones(0)
    ext_dir = np.concatenate(([-(n - 1.0)], extremal)) / np.sqrt(n * (n - 1.0))
    ext_cap = (1.0 - 1e-9) / (ext_dir[0] * -1.0)
    if pinch_cap:
        ext_cap = min(ext_cap, n * np.sqrt((1.0 - 1e-9) / (n * (n - 1))))
    extra = [np.ones(n)]
    for f in (0.25, 0.5, 0.75, 0.9, 1.0):
        extra.append(1.0 + f * ext_cap * ext_dir)
    kappa = np.vstack([kappa, np.array(extra)])
    return np.sort(kappa, axis=1)


def _pinch_quantities(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (H, eps, root) with eps the squared traceless ratio."""
    n = kappa.shape[1]
    h = kappa.sum(axis=1)
    traceless = np.sum((kappa - h[:, None] / n) ** 2, axis=1)
    eps = traceless / h**2
    root = np.sqrt(n * (n - 1) * eps)
    return h, eps, root


def _root_oracle_check(n: int, eps: np.ndarray) -> None:
    """Cross-check the bound factors 1 +/- sqrt(n(n-1)eps) via np.roots.

    The factors are the roots of z^2 - 2z + (1 - n(n-1)eps); computing them
    through the companion-matrix eigenvalue route guards the closed form
    against a transcription slip.
    """
    for e in np.atleast_1d(eps):
        roots = np.sort(np.roots([1.0, -2.0, 1.0 - n * (n - 1) * e]).real)
        closed = np.array([1.0 - np.sqrt(n * (n - 1) * e), 1.0 + np.sqrt(n * (n - 1) * e)])
        if np.max(np.abs(roots - closed)) > 1e-10 * max(1.0, abs(e)):
            raise RuntimeError(
                f"pinch bound factors disagree with the root oracle at eps={e!r}"
            )


def _report(lemma: str, n: int, kappa: np.ndarray, margins: np.ndarray) -> LemmaReport:
    worst = int(np.argmin(margins))
    return LemmaReport(
        lemma=lemma,
        dimension=n,
        samples=kappa.shape[0],
        violations=int(np.count_nonzero(margins < -LEMMA_MARGIN_TOL)),
        worst_margin=float(margins[worst]),
        worst_witness=kappa[worst].copy(),
    )


def _require_surface(n: int) -> None:
    if n < 2:
        raise ValueError("lemma suites need dimension >= 2")


def lemma_pinch_suite(n: int, samples: int = 100_000) -> LemmaReport:
    """Two-sided principal-curvature bounds from the traceless ratio.

    Every kappa with H > 0 must satisfy
    (1 - sqrt(n(n-1)eps)) H/n <= kappa_i <= (1 + sqrt(n(n-1)eps)) H/n
    with eps = |A-circ|^2 / H^2; the margin is the smaller of the two slacks.
    """
    _require_surface(n)
    rng = np.random.default_rng(0)
    kappa = _sample_kappa_batch(n, samples, rng, pinch_cap=True)
    h, eps, root = _pinch_quantities(kappa)

    lo = (1.0 - root) * h / n
    hi = (1.0 + root) * h / n
    margins = np.minimum(
        (kappa - lo[:, None]).min(axis=1), (hi[:, None] - kappa).min(axis=1)
    )

    grid = np.linspace(0.0, (1.0 - 1e-9) / (n * (n - 1)), 33)
    _root_oracle_check(n, np.append(grid, eps[np.argmin(margins)]))
    return _report("pinch", n, kappa, margins)


def _cest_sides(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LHS and RHS of the cubic pinching estimate, per sample."""
    n = kappa.shape[1]
    h, eps, root = _pinch_quantities(kappa)
    cubes = np.sum(kappa**3, axis=1)
    norm2 = np.sum(kappa**2, axis=1)
    lhs = n * cubes - (1.0 + n * eps) * h * norm2
    rhs = eps * (1.0 + n * eps) * (1.0 - root) * h**3
    return lhs, rhs


def lemma_cest_suite(n: int, samples: int = 100_000) -> LemmaReport:
    """Lower bound for n sum kappa^3 - (1 + n eps) H |A|^2 inside the cone."""
    _require_surface(n)
    rng = np.random.default_rng(1)
    kappa = _sample_kappa_batch(n, samples, rng, pinch_cap=True)
    lhs, rhs = _cest_sides(kappa)
    return _report("cest", n, kappa, lhs - rhs)


def lemma_traceless_suite(n: int, samples: int = 100_000) -> LemmaReport:
    """|A-circ|^2 = |A|^2 - H^2/n = (1/n) sum_{i<j} (kappa_i - kappa_j)^2."""
    _require_surface(n)
    rng = np.random.default_rng(2)
    kappa = _sample_kappa_batch(n, samples, rng, pinch_cap=False)
    h = kappa.sum(axis=1)
    direct = np.sum(kappa**2, axis=1) - h**2 / n
    diffs = kappa[:, :, None] - kappa[:, None, :]
    pairwise = 0.5 * np.sum(diffs**2, axis=(1, 2)) / n
    scale = np.maximum(np.sum(kappa**2, axis=1), 1.0)
    margins = -np.abs(direct - pairwise) / scale
    return _report("traceless", n, kappa, margins)


def lemma_maclaurin_suite(n: int, samples: int = 100_000) -> LemmaReport:
    """Chain E_1 >= E_2^(1/2) >= ... >= E_n^(1/n) for positive curvatures."""
    _require_surface(n)
    rng = np.random.default_rng(3)
    kappa = _sample_kappa_batch(n, samples, rng, pinch_cap=False)
    sigma = elementary_symmetric(kappa)
    powers = np.empty((kappa.shape[0], n))
    for k in range(1, n + 1):
        powers[:, k - 1] = (sigma[k] / comb(n, k)) ** (1.0 / k)
    margins = np.min(powers[:, :-1] - powers[:, 1:], axis=1)
    return _report("maclaurin", n, kappa, margins)


def run_lemma_suites(
    dimensions=(2, 3, 4), samples: int = 100_000
) -> tuple[LemmaReport, ...]:
    """All four suites across the given dimensions."""
    for n in dimensions:
        _require_surface(n)  # before any suite runs
    reports = []
    for n in dimensions:
        reports.append(lemma_pinch_suite(n, samples))
        reports.append(lemma_cest_suite(n, samples))
        reports.append(lemma_traceless_suite(n, samples))
        reports.append(lemma_maclaurin_suite(n, samples))
    return tuple(reports)


# ---------------------------------------------------------------------------
# gradient inequality on a single surface


@dataclass(frozen=True)
class GradientInequalityReport:
    """Pointwise margins of the curvature-gradient inequalities (n = 2).

    ``margin_full`` is the minimum of |grad A|^2 - (3/(n+2)) |grad H|^2 over
    the nodes; ``margin_traceless`` the minimum of
    |grad A-circ|^2 - (2(n-1)/3n) |grad A|^2.  ``scale`` is max |grad A|^2.
    The verdict compares against ``tol_disc``, a discretization-error
    estimate from recomputing at half the band limit.
    """

    margin_full: float
    margin_traceless: float
    scale: float
    tol_disc: float
    coarse_margin_full: float | None
    coarse_margin_traceless: float | None
    verdict: str


def _gradient_terms(body: SupportFunction) -> tuple[np.ndarray, np.ndarray]:
    """Node arrays (|grad A|^2, |grad H|^2) in the induced metric (n = 2).

    Everything is pulled back to the Gauss chart: with R the radii matrix,
    the induced metric in the orthonormal round frame is G = R R, the second
    fundamental form is R itself, and round derivatives of R get corrected
    by the Levi-Civita difference tensor of G before contracting.
    """
    grad, hess = tangential_derivatives(body)
    t3 = third_derivatives(body)
    s = body.values
    eye = np.eye(2)

    r_mat = hess + s[:, None, None] * eye
    d_r = t3 + grad[:, :, None, None] * eye

    r_inv = np.linalg.inv(r_mat)
    g_inv = r_inv @ r_inv

    # grad G = (grad R) R + R (grad R), then the difference tensor
    # Delta^d_ab = (1/2) G^{de} (D_a G_be + D_b G_ae - D_e G_ab)
    d_g = np.einsum("mabe,mec->mabc", d_r, r_mat) + np.einsum(
        "mbe,maec->mabc", r_mat, d_r
    )
    term = d_g + np.einsum("mbae->mabe", d_g) - np.einsum("meab->mabe", d_g)
    delta = 0.5 * np.einsum("mde,mabe->mdab", g_inv, term)

    # covariant derivative of the second fundamental form
    t_r = (
        d_r
        - np.einsum("meab,mec->mabc", delta, r_mat)
        - np.einsum("meac,mbe->mabc", delta, r_mat)
    )
    t1 = np.einsum("mad,mbe,mcf,mabc,mdef->m", g_inv, g_inv, g_inv, t_r, t_r)

    # H = tr(R^-1) differentiates through the inverse
    d_h = -np.einsum("mbc,macd,mdb->ma", r_inv, d_r, r_inv)
    t2 = np.einsum("mab,ma,mb->m", g_inv, d_h, d_h)
    return t1, t2


def gradient_margins(body: SupportFunction) -> tuple[float, float, float]:
    """``GradientInequalityReport``'s margin_full, margin_traceless and scale
    on ``body``'s own grid (n = 2)."""
    n = body.grid.dimension
    t1, t2 = _gradient_terms(body)
    full = t1 - (3.0 / (n + 2)) * t2
    traceless = (t1 - t2 / n) - (2.0 * (n - 1) / (3.0 * n)) * t1
    return float(full.min()), float(traceless.min()), float(t1.max())


def gradient_inequality_monitor(body: SupportFunction) -> GradientInequalityReport:
    """Check the pointwise gradient inequalities on one surface (n = 2).

    The same margins are recomputed at half the band limit; their change is
    the discretization tolerance.  A margin that is negative beyond it but
    still improving under refinement is reported ``inconclusive`` rather
    than ``violated``.
    """
    if body.grid.dimension != 2:
        raise ValueError("gradient inequality monitor needs a surface (n = 2)")
    margin_full, margin_traceless, scale = gradient_margins(body)

    coarse_full = coarse_traceless = None
    if body.grid.degree >= 8:
        coarse = resample(body, standard_grid(2, body.grid.degree // 2))
        coarse_full, coarse_traceless, _ = gradient_margins(coarse)
        tol_disc = max(
            abs(margin_full - coarse_full),
            abs(margin_traceless - coarse_traceless),
            1e-12 * max(scale, 1.0),
        )
    else:
        tol_disc = 1e-8 * max(scale, 1.0)

    if margin_full >= -tol_disc and margin_traceless >= -tol_disc:
        verdict = "holds"
    elif coarse_full is None or min(margin_full, margin_traceless) > min(
        coarse_full, coarse_traceless
    ):
        verdict = "inconclusive"
    else:
        verdict = "violated"
    return GradientInequalityReport(
        margin_full=margin_full,
        margin_traceless=margin_traceless,
        scale=scale,
        tol_disc=tol_disc,
        coarse_margin_full=coarse_full,
        coarse_margin_traceless=coarse_traceless,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# evolution-equation residuals


def _three_point_weights(t0: float, t1: float, t2: float) -> tuple[float, float, float]:
    """Weights of the nonuniform central difference for d/dt at t1."""
    h1, h2 = t1 - t0, t2 - t1
    return (
        -h2 / (h1 * (h1 + h2)),
        (h2 - h1) / (h1 * h2),
        h1 / (h2 * (h1 + h2)),
    )


@dataclass(frozen=True)
class CurveResidualReport:
    """Sup-norm residuals of the curve evolution equation at interior times.

    ``rates`` is the sup norm of the equation's right-hand side at the same
    snapshots, the size of D_t kappa that each residual is judged against.
    """

    times: np.ndarray
    residuals: np.ndarray
    rates: np.ndarray

    @property
    def relative(self) -> np.ndarray:
        return self.residuals / self.rates


def _angle_derivative(grid, values: np.ndarray) -> np.ndarray:
    """d/dtheta at the nodes of the degree-L projection of circle node values."""
    return _synthesize(grid, analyze(grid, values), 1)


def curve_evolution_residual(trajectory: Trajectory) -> CurveResidualReport:
    """Residual of the curvature law D_t kappa = F_ss + kappa^2 F on curves.

    The material derivative combines a nonuniform three-point time stencil at
    fixed normal angle with the tangential drift (F_theta / r) kappa_theta
    of the Gauss parametrization.  Needs at least three snapshots, else the
    cadence is too coarse to conclude anything.
    """
    if trajectory.dimension != 1:
        raise ValueError("evolution residuals are defined for curves only")
    snaps = trajectory.snapshots
    if len(snaps) < 3:
        raise ValueError("snapshot cadence too coarse: need at least three snapshots")

    grid = snaps[0].body.grid

    kappas, rhs = [], []
    for snap in snaps:
        kappa = snap.curv.kappa[:, 0]
        r = 1.0 / kappa
        f_vals = snap.speed_values
        drift = _angle_derivative(grid, f_vals) / r
        f_ss = _angle_derivative(grid, drift) / r
        kappas.append(kappa)
        rhs.append(f_ss + kappa**2 * f_vals - drift * _angle_derivative(grid, kappa))

    times = trajectory.times()
    out_t, out_res = [], []
    for i in range(1, len(snaps) - 1):
        w0, w1, w2 = _three_point_weights(times[i - 1], times[i], times[i + 1])
        dt_kappa = w0 * kappas[i - 1] + w1 * kappas[i] + w2 * kappas[i + 1]
        out_t.append(times[i])
        out_res.append(float(np.max(np.abs(dt_kappa - rhs[i]))))
    return CurveResidualReport(
        times=np.array(out_t),
        residuals=np.array(out_res),
        rates=np.array([float(np.max(np.abs(r))) for r in rhs[1:-1]]),
    )


@dataclass(frozen=True)
class VolumeDecayReport:
    """Central-difference dV/dt against the exact decay integral."""

    times: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray

    @property
    def rel_errors(self) -> np.ndarray:
        return np.abs(self.measured - self.predicted) / np.abs(self.predicted)

    @property
    def max_rel_error(self) -> float:
        return float(self.rel_errors.max())


def volume_decay_check(trajectory: Trajectory) -> VolumeDecayReport:
    """Check dV_{n+1}/dt = -(n+1)/|S^n| * integral of F det R.

    V_{n+1} comes from the quadrature mixed volumes; the time derivative is
    the nonuniform three-point stencil at interior snapshots.
    """
    snaps = trajectory.snapshots
    if len(snaps) < 3:
        raise ValueError("need at least three snapshots for a central difference")
    times = trajectory.times()
    volumes = np.array([s.volumes.canonical[-1] for s in snaps])
    rates = np.array([-volume_decay_rate(s.body, s.curv, s.speed_values) for s in snaps])
    out_t, measured, predicted = [], [], []
    for i in range(1, len(snaps) - 1):
        w0, w1, w2 = _three_point_weights(times[i - 1], times[i], times[i + 1])
        out_t.append(times[i])
        measured.append(w0 * volumes[i - 1] + w1 * volumes[i] + w2 * volumes[i + 1])
        predicted.append(rates[i])
    return VolumeDecayReport(
        times=np.array(out_t),
        measured=np.array(measured),
        predicted=np.array(predicted),
    )


# ---------------------------------------------------------------------------
# the per-snapshot monitor record


@dataclass(frozen=True)
class TsoReport:
    """Interior speed bound anchored at one snapshot.

    Monitoring runs from ``t0_index`` until the support over the anchor's
    incenter stops dominating half the anchor inradius; crossing that line
    aborts the monitor with a witness (an abort is a lost precondition, not
    a violated bound).  The monitored values are the record's ``q_max`` and
    ``q_bound`` columns over ``DiagnosticsRecord.tso_window``.
    """

    t0_index: int
    origin: np.ndarray
    r0: float
    sigma: float
    c_tilde: float
    aborted: bool
    abort_index: int | None
    abort_witness: tuple[int, float] | None


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Every trajectory monitor's values for one run, snapshot-aligned.

    Array fields have one entry per snapshot.  ``q_max`` and ``q_bound``
    are NaN before the anchor index and from a Tso abort on;
    ``smoczyk_min`` is NaN before the anchor index only.
    """

    times: np.ndarray
    h_max: np.ndarray
    f_min: np.ndarray
    f_max: np.ndarray
    pinch_max: np.ndarray  # max |A-circ|^2 / H^2
    z_sigma_max: np.ndarray  # max (|A-circ|^2 - sigma H^2)
    q_max: np.ndarray  # max F / (2<X - origin, u> - r0)
    q_bound: np.ndarray
    smoczyk_min: np.ndarray  # min <X - origin, u> + (1 + alpha)(t - t0) F
    sigma: float
    lambda_hat: float | None
    speed_exponent: float | None
    expected_exponent: float
    collapse: CollapseEstimate | None
    tso: TsoReport

    @property
    def tso_window(self) -> slice:
        """The snapshots the interior speed bound monitored: from the anchor
        up to the abort, or to the last snapshot."""
        stop = self.tso.abort_index
        return slice(self.tso.t0_index, len(self.times) if stop is None else stop)

    @property
    def tso_violated(self) -> bool:
        """Whether q_max exceeds q_bound by more than TSO_TOL (relative, plus
        1e-12 absolute) at a monitored snapshot."""
        q_max, q_bound = self.q_max[self.tso_window], self.q_bound[self.tso_window]
        with np.errstate(invalid="ignore"):
            return bool(np.any(q_max > q_bound * (1.0 + TSO_TOL) + 1e-12))


def diagnostics_record(
    trajectory: Trajectory,
    sigma: float,
    t0_index: int = 0,
) -> DiagnosticsRecord:
    """Every trajectory monitor's values, each computed once per snapshot.

    Per snapshot: the worst pinching ratio, Z_sigma and max H; the speed's
    extremes; and, from the anchor snapshot ``t0_index`` on, with the origin
    moved to the anchor incenter and r0 the anchor inradius, the interior
    speed bound Q = F / (2<X, u> - r0) and the enclosed-point margin
    <X, u> + (1 + alpha)(t - t0) F.  The Tso comparison constant
    c = alpha (1 - sqrt(n(n-1) s)) / (n (1 + sqrt(n(n-1) s))) takes s, the
    worst pinching ratio from the anchor on.

    lambda_hat is minus the slope of log(max pinch ratio) against
    log(max H / h0) over snapshots where max H has reached its initial
    supremum h0; fewer than five usable snapshots (the round case) leave it
    None.  ``speed_exponent`` is the slope of log(min F) against
    log(T - t) over the last 30% of the snapshots before the estimated
    collapse time T; the theory pins it at ``expected_exponent`` =
    -alpha/(1+alpha), and fewer than five tail snapshots leave it None.
    """
    speed = trajectory.speed
    n, alpha = speed.dimension, speed.alpha
    snaps = trajectory.snapshots
    if not 0 <= t0_index < len(snaps):
        raise IndexError("anchor snapshot index out of range")
    count = len(snaps)
    times = trajectory.times()

    pinch, z_sigma, h_max, f_min, f_max = (np.empty(count) for _ in range(5))
    for i, snap in enumerate(snaps):
        curv, f_vals = snap.curv, snap.speed_values
        pinch[i] = (curv.traceless_norm2 / curv.mean**2).max()
        z_sigma[i] = (curv.traceless_norm2 - sigma * curv.mean**2).max()
        h_max[i] = curv.mean.max()
        f_min[i] = f_vals.min()
        f_max[i] = f_vals.max()

    lambda_hat = None
    h0 = h_max[0]
    # requiring a genuinely nonzero ratio keeps round bodies out of the fit
    mask = (h_max >= h0) & (pinch > 1e-12)
    if np.count_nonzero(mask) >= 5:
        slope = np.polyfit(np.log(h_max[mask] / h0), np.log(pinch[mask]), 1)[0]
        lambda_hat = float(-slope)

    anchor = snaps[t0_index]
    origin = np.asarray(anchor.radii.incenter, dtype=float)
    r0 = float(anchor.radii.r_minus)
    t0 = anchor.time
    tso_sigma = np.max(pinch[t0_index:])
    root = np.sqrt(n * (n - 1) * tso_sigma) if n > 1 else 0.0
    if root >= 1.0:
        raise ValueError("measured pinching too large for the comparison constant")
    c_tilde = alpha * (1.0 - root) / (n * (1.0 + root))
    flat_bound = (2.0 * (1.0 + alpha) / c_tilde) ** alpha * r0 ** -(1.0 + alpha)
    decay_front = ((1.0 + alpha) * c_tilde / (2.0 * alpha)) ** (-alpha / (1.0 + alpha)) / r0

    q_max, q_bound, smoczyk_min = (np.full(count, np.nan) for _ in range(3))
    abort_index = abort_witness = None
    for i in range(t0_index, count):
        snap = snaps[i]
        stilde = snap.body.values - snap.body.grid.nodes @ origin
        smoczyk_min[i] = np.min(stilde + (1.0 + alpha) * (snap.time - t0) * snap.speed_values)
        if abort_witness is not None:
            continue
        denom = 2.0 * stilde - r0
        worst = int(np.argmin(denom))
        if denom[worst] <= 0.0:
            abort_index, abort_witness = i, (worst, float(denom[worst]))
            continue
        q_max[i] = np.max(snap.speed_values / denom)
        dt = snap.time - t0
        decay = np.inf if dt <= 0.0 else decay_front * dt ** (-alpha / (1.0 + alpha))
        q_bound[i] = max(flat_bound, decay)

    tso = TsoReport(
        t0_index=t0_index,
        origin=origin,
        r0=r0,
        sigma=float(tso_sigma),
        c_tilde=float(c_tilde),
        aborted=abort_witness is not None,
        abort_index=abort_index,
        abort_witness=abort_witness,
    )

    collapse = estimate_collapse(trajectory) if count >= 2 else None
    speed_exponent = None
    keep = np.zeros(count, dtype=bool)
    keep[-max(int(np.ceil(0.3 * count)), 1) :] = True
    if collapse is not None:
        keep &= times < collapse.time
        if np.count_nonzero(keep) >= 5:
            slope = np.polyfit(np.log(collapse.time - times[keep]), np.log(f_min[keep]), 1)[0]
            speed_exponent = float(slope)

    return DiagnosticsRecord(
        times=times,
        h_max=h_max,
        f_min=f_min,
        f_max=f_max,
        pinch_max=pinch,
        z_sigma_max=z_sigma,
        q_max=q_max,
        q_bound=q_bound,
        smoczyk_min=smoczyk_min,
        sigma=float(sigma),
        lambda_hat=lambda_hat,
        speed_exponent=speed_exponent,
        expected_exponent=-alpha / (1.0 + alpha),
        collapse=collapse,
        tso=tso,
    )


def kappa_gap_table(trajectory: Trajectory, eps_grid) -> np.ndarray:
    """The worst kappa_max - (1 + eps) kappa_min over the run, per eps."""
    eps_grid = np.asarray(tuple(eps_grid), dtype=float)
    gaps = np.empty((len(trajectory.snapshots), eps_grid.size))
    for i, snap in enumerate(trajectory.snapshots):
        lo, hi = snap.curv.kappa[:, 0], snap.curv.kappa[:, -1]
        gaps[i] = np.max(hi[None, :] - (1.0 + eps_grid)[:, None] * lo[None, :], axis=1)
    return gaps.max(axis=0)


# ---------------------------------------------------------------------------
# verdicts

# what ``verify flow`` prints before each verdict, and the name of its worst value
_CHECK_LABELS = {
    "z_sigma": ("Z_sigma stays negative", "worst"),
    "interior_speed_bound": ("interior speed bound", "worst relative slack"),
    "enclosed_point": ("enclosed-point margin", "worst"),
    "volume_decay": ("volume decay identity", "worst relative error"),
    "curve_residual": ("curve evolution residual", "worst relative"),
}


@dataclass(frozen=True)
class Check:
    """One monitor's verdict, "ok", "FAIL" or "not applicable", and the line
    ``verify flow`` prints for it.  ``worst`` and ``tol`` are None where no
    verdict applies (``note`` is then the line) or no snapshot was monitored."""

    name: str
    verdict: str
    worst: float | None = None
    tol: float | None = None
    note: str = ""

    def line(self) -> str:
        if self.verdict == "not applicable":
            return self.note
        label, measure = _CHECK_LABELS[self.name]
        margin = "no snapshot monitored"
        if self.worst is not None:
            margin = f"{measure} {self.worst:.3e}, tol {self.tol:.3e}"
        return f"{label}: {self.verdict} ({margin}){self.note}"


def _judged(name: str, ok, worst, tol: float, note: str = "") -> Check:
    worst, tol = (None, None) if worst is None else (float(worst), float(tol))
    return Check(name, "ok" if ok else "FAIL", worst, tol, note)


def flow_checks(trajectory: Trajectory, record: DiagnosticsRecord) -> tuple[Check, ...]:
    """The verdict on each monitor of ``record``, in the order ``verify flow``
    prints them; the volume decay identity and the curve residual need three
    snapshots, and the curve residual applies to curves alone."""
    z_sigma = record.z_sigma_max
    if trajectory.dimension == 1:
        # a curve's one curvature has no traceless part, so Z_sigma is
        # -sigma H**2 at every node of every run: a check that cannot fail
        checks = [Check("z_sigma", "not applicable", note="Z_sigma: not applicable on a curve")]
    elif z_sigma[0] < 0.0:
        tol = Z_SIGMA_TOL * record.sigma * np.max(record.h_max) ** 2
        checks = [_judged("z_sigma", np.all(z_sigma <= tol), np.max(z_sigma), tol)]
    else:
        note = "Z_sigma not negative initially; sign preservation not applicable"
        checks = [Check("z_sigma", "not applicable", note=note)]
    # tso_violated allows q_max TSO_TOL above the bound; the bound is inf
    # at the anchor itself, where the slack is 1
    q_max, q_bound = record.q_max[record.tso_window], record.q_bound[record.tso_window]
    slack = 1.0 - np.max(q_max / q_bound) if q_max.size else None
    note = " (aborted at validity edge)" if record.tso.aborted else ""
    checks.append(_judged("interior_speed_bound", not record.tso_violated, slack, TSO_TOL, note))
    worst, tol = np.nanmin(record.smoczyk_min), ENCLOSED_POINT_TOL
    checks.append(_judged("enclosed_point", worst >= tol, worst, tol))
    if len(trajectory.snapshots) >= 3:
        worst, tol = volume_decay_check(trajectory).max_rel_error, VOLUME_DECAY_TOL
        checks.append(_judged("volume_decay", worst <= tol, worst, tol))
        if trajectory.dimension == 1:
            worst = np.max(curve_evolution_residual(trajectory).relative)
            tol = CURVE_RESIDUAL_TOL
            checks.append(_judged("curve_residual", worst <= tol, worst, tol))
    return tuple(checks)

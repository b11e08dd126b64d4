"""Contraction speeds: symmetric functions of principal curvature.

Every speed is homogeneous of degree ``alpha > 1`` and normalized so that
``f(1, ..., 1) = n**alpha``; the unit n-sphere then contracts with speed
``n**alpha`` regardless of the choice of f.  Built-in families:

    pow_mean        (kappa_1 + ... + kappa_n)**alpha
    pow_Ek:k        (n**k E_k)**(alpha/k),  E_k the normalized elementary mean
    pow_gauss       pow_Ek with k = n  (Gauss curvature power)
    pow_norm        n**(alpha/2) (kappa_1**2 + ... + kappa_n**2)**(alpha/2)

A speed also records the pinching threshold delta0 of the cone on which it
is used; flows monitor the ratio |A0|^2 / H^2 against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .shapes import default_cone_threshold

__all__ = [
    "Speed",
    "make_speed",
    "parse_speed",
    "estimate_mu",
    "check_conditions",
    "verify_derivative_bounds",
    "ConditionCheck",
    "ConditionReport",
    "DerivativeBoundReport",
    "elementary_symmetric",
]

DEFAULT_ALPHA = 2.0


def elementary_symmetric(kappa: np.ndarray, k: int) -> np.ndarray:
    """Elementary symmetric polynomial sigma_k along the last axis."""
    n = kappa.shape[-1]
    if k < 0:
        return np.zeros(kappa.shape[:-1])
    if k == 0:
        return np.ones(kappa.shape[:-1])
    total = np.zeros(kappa.shape[:-1])
    for subset in combinations(range(n), k):
        total += np.prod(kappa[..., subset], axis=-1)
    return total


def _sigma_without(kappa: np.ndarray, k: int, i: int) -> np.ndarray:
    """sigma_k of the entries with index i removed."""
    others = [j for j in range(kappa.shape[-1]) if j != i]
    return elementary_symmetric(kappa[..., others], k)


def _sigma_without_pair(kappa: np.ndarray, k: int, i: int, j: int) -> np.ndarray:
    """sigma_k of the entries with indices i and j removed."""
    others = [t for t in range(kappa.shape[-1]) if t != i and t != j]
    return elementary_symmetric(kappa[..., others], k)


@dataclass(frozen=True)
class Speed:
    kind: str  # "mean" | "ek" | "norm"
    dimension: int
    alpha: float
    delta0: float
    k: int | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"speed dimension must be at least 1, got {self.dimension}")
        if not 1.0 < self.alpha < np.inf:
            raise ValueError("speed exponent alpha must be a finite number above 1")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float64(self.dimension) ** self.alpha):
                raise ValueError(f"speed exponent alpha={self.alpha:g} overflows n**alpha")
        if not self.delta0 > 0.0:
            raise ValueError("cone threshold delta0 must be positive")
        if self.kind == "ek":
            if self.k is None or not 1 <= self.k <= self.dimension:
                raise ValueError(f"pow_Ek degree k must lie in 1..{self.dimension}")
        elif self.k is not None:
            raise ValueError(f"speed kind {self.kind!r} takes no degree")
        if self.kind not in ("mean", "ek", "norm"):
            raise ValueError(f"unknown speed kind {self.kind!r}")

    @property
    def normalization(self) -> float:
        """Speed on the unit sphere: f(1, ..., 1) = n**alpha."""
        return float(self.dimension) ** self.alpha

    def describe(self) -> str:
        if self.kind == "mean":
            base = "pow_mean"
        elif self.kind == "norm":
            base = "pow_norm"
        else:
            base = f"pow_Ek:{self.k}"
        return f"{base},alpha={self.alpha:g},delta0={self.delta0:g}"

    def value(self, kappa: np.ndarray) -> np.ndarray:
        kappa = np.asarray(kappa, dtype=float)
        n, a = self.dimension, self.alpha
        if self.kind == "mean":
            return np.sum(kappa, axis=-1) ** a
        if self.kind == "norm":
            return n ** (a / 2.0) * np.sum(kappa**2, axis=-1) ** (a / 2.0)
        k = self.k
        ek = elementary_symmetric(kappa, k) / comb(n, k)
        return (float(n) ** k * ek) ** (a / k)

    def gradient(self, kappa: np.ndarray) -> np.ndarray:
        """Partial derivatives of f in the principal curvatures.

        These are the eigenvalues of the linearized operator, so ellipticity
        on the cone is exactly their positivity.
        """
        kappa = np.asarray(kappa, dtype=float)
        n, a = self.dimension, self.alpha
        if self.kind == "mean":
            h = np.sum(kappa, axis=-1)
            return np.repeat((a * h ** (a - 1.0))[..., None], n, axis=-1)
        if self.kind == "norm":
            q = np.sum(kappa**2, axis=-1)
            front = n ** (a / 2.0) * a * q ** (a / 2.0 - 1.0)
            return front[..., None] * kappa
        k = self.k
        scaled = float(n) ** k / comb(n, k)
        base = scaled * elementary_symmetric(kappa, k)  # = n^k E_k
        front = (a / k) * base ** (a / k - 1.0) * scaled
        grad = np.empty_like(kappa)
        for i in range(n):
            grad[..., i] = front * _sigma_without(kappa, k - 1, i)
        return grad

    def trace_gradient(self, kappa: np.ndarray) -> np.ndarray:
        return np.sum(self.gradient(kappa), axis=-1)

    def hessian(self, kappa: np.ndarray) -> np.ndarray:
        """Second partials of f in the principal curvatures, shape (..., n, n)."""
        kappa = np.asarray(kappa, dtype=float)
        n, a = self.dimension, self.alpha
        shape = kappa.shape[:-1]
        if self.kind == "mean":
            h = np.sum(kappa, axis=-1)
            block = a * (a - 1.0) * h ** (a - 2.0)
            return np.broadcast_to(block[..., None, None], shape + (n, n)).copy()
        if self.kind == "norm":
            q = np.sum(kappa**2, axis=-1)
            front = n ** (a / 2.0) * a
            outer = kappa[..., :, None] * kappa[..., None, :]
            eye = np.eye(n).reshape((1,) * len(shape) + (n, n))
            return front * (
                (a - 2.0) * q[..., None, None] ** (a / 2.0 - 2.0) * outer
                + q[..., None, None] ** (a / 2.0 - 1.0) * eye
            )
        k = self.k
        scaled = float(n) ** k / comb(n, k)
        base = scaled * elementary_symmetric(kappa, k)
        partial = np.empty(shape + (n,))
        for i in range(n):
            partial[..., i] = _sigma_without(kappa, k - 1, i)
        first = (
            (a / k)
            * (a / k - 1.0)
            * base[..., None, None] ** (a / k - 2.0)
            * scaled**2
            * partial[..., :, None]
            * partial[..., None, :]
        )
        front = (a / k) * base ** (a / k - 1.0) * scaled
        second = np.zeros(shape + (n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    second[..., i, j] = _sigma_without_pair(kappa, k - 2, i, j)
        return first + front[..., None, None] * second


def make_speed(
    kind: str,
    dimension: int,
    alpha: float = DEFAULT_ALPHA,
    delta0: float | None = None,
    k: int | None = None,
) -> Speed:
    if delta0 is None:
        delta0 = default_cone_threshold(dimension)
    if kind == "gauss":
        kind, k = "ek", dimension
    return Speed(kind=kind, dimension=dimension, alpha=float(alpha), delta0=float(delta0), k=k)


_BASE_NAMES = {"pow_mean": "mean", "pow_Ek": "ek", "pow_gauss": "gauss", "pow_norm": "norm"}
_OPTION = re.compile(r"^(alpha|delta0)=([-+0-9.eE]+|inf)$")


def parse_speed(text: str, dimension: int) -> Speed:
    """Parse ``name[:k][,alpha=<real>][,delta0=<real>]``."""
    parts = [p.strip() for p in text.strip().split(",")]
    head = parts[0]
    if ":" in head:
        head, _, k_text = head.partition(":")
        try:
            k = int(k_text)
        except ValueError:
            raise ValueError(f"bad speed degree {k_text!r}") from None
    else:
        k = None
    if head not in _BASE_NAMES:
        raise ValueError(f"unknown speed {head!r}; expected one of {sorted(_BASE_NAMES)}")
    kind = _BASE_NAMES[head]
    if kind == "ek" and k is None:
        raise ValueError("pow_Ek needs an explicit degree, e.g. pow_Ek:2")
    if kind != "ek" and k is not None:
        raise ValueError(f"{head} takes no degree suffix")

    options = {}
    for part in parts[1:]:
        match = _OPTION.match(part)
        if match is None:
            raise ValueError(f"bad speed option {part!r}; expected alpha=... or delta0=...")
        options[match.group(1)] = float(match.group(2))
    return make_speed(
        kind,
        dimension,
        alpha=options.get("alpha", DEFAULT_ALPHA),
        delta0=options.get("delta0"),
        k=k,
    )


def _unit_frobenius(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat)


def _sample_cone_point(
    n: int, delta0: float, rng: np.random.Generator, total: float, fraction: float
) -> np.ndarray:
    """Positive curvature tuple with sum ``total`` whose pinching sits at
    ``fraction`` of the admissible range (delta0 and positivity both cap it)."""
    xi = rng.standard_normal(n)
    xi -= xi.mean()
    norm = np.linalg.norm(xi)
    if norm < 1e-12:
        return np.full(n, total / n)
    xi /= norm
    rho_max = 0.99 / max(-float(xi.min()), 1e-12)
    if np.isfinite(delta0):
        rho_max = min(rho_max, n * np.sqrt(delta0))
    return np.sort((total / n) * (1.0 + fraction * rho_max * xi))


def _cone_samples(speed: Speed, samples: int, rng: np.random.Generator) -> np.ndarray:
    n = speed.dimension
    points = [np.full(n, t) for t in (0.5, 1.0, 2.0)]
    for _ in range(samples):
        total = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        if n == 1:
            points.append(np.array([total]))
        else:
            points.append(_sample_cone_point(n, speed.delta0, rng, total, rng.uniform(0.0, 0.98)))
    return np.array(points)


def estimate_mu(speed: Speed, rng: np.random.Generator, samples: int = 64, step: float = 1e-4) -> float:
    """Numerically bound the curvature of f near the umbilic ray.

    Returns the largest observed second directional derivative of
    ``A -> f(eigenvalues(A))`` over unit-trace cone points A and
    unit-Frobenius symmetric directions B, via central second differences.
    Structured directions (pure trace, traceless units) are always probed
    so that quadratic speeds report their exact constant.
    """
    n = speed.dimension

    def f_of_matrix(mat: np.ndarray) -> float:
        return float(speed.value(np.linalg.eigvalsh(mat)))

    # base points: umbilic, mildly pinched, and near the pinching boundary of
    # the cone; the estimate must dominate the whole cone for the Taylor
    # envelopes checked downstream, not just a neighborhood of the umbilic ray
    bases = [np.eye(n) / n]
    for _ in range(8):
        kappa = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=n)
        kappa /= kappa.sum()
        bases.append(np.diag(np.sort(kappa)))
    if n > 1:
        for _ in range(8):
            for fraction in (0.5, 0.95):
                kappa = _sample_cone_point(n, speed.delta0, rng, 1.0, fraction)
                bases.append(np.diag(kappa))

    directions = [_unit_frobenius(np.eye(n))]
    for i in range(n - 1):
        d = np.zeros(n)
        d[i], d[i + 1] = 1.0, -1.0
        directions.append(_unit_frobenius(np.diag(d)))
    off = np.zeros((n, n))
    off[0, 1] = off[1, 0] = 1.0
    directions.append(_unit_frobenius(off))
    for _ in range(samples):
        b = rng.standard_normal((n, n))
        directions.append(_unit_frobenius(b + b.T))

    best = 0.0
    for a in bases:
        f0 = f_of_matrix(a)
        for b in directions:
            second = (f_of_matrix(a + step * b) - 2.0 * f0 + f_of_matrix(a - step * b)) / step**2
            best = max(best, abs(second))
    return best


# ---------------------------------------------------------------------------
# admissibility screening
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    worst_error: float
    witness: tuple[float, ...]


@dataclass(frozen=True)
class ConditionReport:
    speed: str
    sample_count: int
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[ConditionCheck]:
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        lines = [f"speed {self.speed}: {'ok' if self.passed else 'FAILED'}"]
        for check in self.checks:
            tag = "ok" if check.passed else "FAIL"
            lines.append(f"  {check.name:<14} {tag:>4}  worst={check.worst_error:.3e}")
            if not check.passed:
                lines.append(f"    at kappa = {check.witness}")
        return "\n".join(lines)


def check_conditions(
    speed: Speed, samples: int = 256, rng: np.random.Generator | None = None
) -> ConditionReport:
    """Screen a speed against the structural requirements of the flow class.

    Each check runs over random in-cone curvature tuples and records the
    worst case with the tuple that achieved it:

      positivity      f > 0                          (worst = -min f)
      normalization   f(1,...,1) = n**alpha           (relative error)
      monotonicity    every df/dkappa_i > 0, so the  (worst = -min partial)
                      linearized flow is parabolic
      homogeneity     f(t k) = t**alpha f(k), t=1/2,2 (relative error)
      euler           sum k_i df/dk_i = alpha f       (relative error)
      gradient_fd     analytic gradient vs central    (relative error,
                      differences, step 1e-6 |kappa|   tolerance 1e-5)
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, a = speed.dimension, speed.alpha
    pts = _cone_samples(speed, samples, rng)
    f = speed.value(pts)
    grad = speed.gradient(pts)
    checks = []

    def record(name: str, errors: np.ndarray, passed: bool, tol: float | None = None):
        idx = int(np.argmax(errors))
        if tol is not None:
            passed = bool(errors[idx] <= tol)
        checks.append(
            ConditionCheck(name, passed, float(errors[idx]), tuple(pts[idx]))
        )

    record("positivity", -f, bool(np.min(f) > 0.0))
    norm_err = abs(speed.value(np.ones(n)) - speed.normalization) / speed.normalization
    checks.append(ConditionCheck("normalization", norm_err <= 1e-12, float(norm_err), (1.0,) * n))
    record("monotonicity", -np.min(grad, axis=-1), bool(np.min(grad) > 0.0))

    hom_err = np.zeros(len(pts))
    for t in (0.5, 2.0):
        hom_err = np.maximum(hom_err, np.abs(speed.value(t * pts) - t**a * f) / (t**a * f))
    record("homogeneity", hom_err, False, tol=1e-10)

    euler_err = np.abs(np.sum(pts * grad, axis=-1) - a * f) / (a * f)
    record("euler", euler_err, False, tol=1e-10)

    fd_err = np.zeros(len(pts))
    steps = 1e-6 * np.linalg.norm(pts, axis=-1)
    for i in range(n):
        shift = np.zeros(n)
        shift[i] = 1.0
        fd = (
            speed.value(pts + steps[:, None] * shift) - speed.value(pts - steps[:, None] * shift)
        ) / (2.0 * steps)
        scale = np.maximum(np.abs(grad[:, i]), 1e-300)
        fd_err = np.maximum(fd_err, np.abs(fd - grad[:, i]) / scale)
    record("gradient_fd", fd_err, False, tol=1e-5)

    return ConditionReport(speed=speed.describe(), sample_count=len(pts), checks=tuple(checks))


@dataclass(frozen=True)
class DerivativeBoundReport:
    mu: float
    sample_count: int
    gradient_margin: float
    value_margin: float
    gradient_witness: tuple[float, ...]
    value_witness: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.gradient_margin >= -1e-9 and self.value_margin >= -1e-9


def verify_derivative_bounds(
    speed: Speed, mu: float, samples: int = 512, rng: np.random.Generator | None = None
) -> DerivativeBoundReport:
    """Check the near-umbilic envelopes that the pinching analysis leans on.

    With H the curvature sum and |A0| the norm of the traceless part, every
    partial df/dkappa_i must lie within mu H**(alpha-2) |A0| of the round
    value alpha H**(alpha-1), and f itself within (mu/2) H**(alpha-2) |A0|**2
    of H**alpha.  Margins are the smallest slack observed over random cone
    samples, normalized by the round value; a margin below -1e-9 means mu is
    too small for this speed on its cone.
    """
    if rng is None:
        rng = np.random.default_rng(1)
    n, a = speed.dimension, speed.alpha
    pts = _cone_samples(speed, samples, rng)

    h = np.sum(pts, axis=-1)
    traceless = np.linalg.norm(pts - h[:, None] / n, axis=-1)
    f = speed.value(pts)
    grad = speed.gradient(pts)

    mid = a * h ** (a - 1.0)
    halfwidth = mu * h ** (a - 2.0) * traceless
    grad_slack = (
        np.minimum(
            np.min(grad - (mid - halfwidth)[:, None], axis=-1),
            np.min((mid + halfwidth)[:, None] - grad, axis=-1),
        )
        / mid
    )
    value_slack = (0.5 * mu * h ** (a - 2.0) * traceless**2 - np.abs(f - h**a)) / h**a

    gi, vi = int(np.argmin(grad_slack)), int(np.argmin(value_slack))
    return DerivativeBoundReport(
        mu=float(mu),
        sample_count=len(pts),
        gradient_margin=float(grad_slack[gi]),
        value_margin=float(value_slack[vi]),
        gradient_witness=tuple(pts[gi]),
        value_witness=tuple(pts[vi]),
    )

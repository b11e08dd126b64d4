"""Command-line front end: shape building, simulation, verification, analysis.

Outputs are deterministic: floats are serialized with repr (shortest
round-trip form), CSVs always use "\\n" newlines, and JSON keys are sorted,
so rerunning a command over the same inputs reproduces files byte for byte.

Exit codes: 0 success, 2 failed precondition (bad config, shape outside the
cone), 3 the flow left the pinching cone, 4 a numerical failure or a
verification violation, 5 an I/O problem, 6 a run cut off by ``max_steps``
(its outputs are written).
"""

import os


def _cap_threads() -> None:
    # must happen before numpy loads its BLAS; the package __init__ imports
    # submodules lazily for exactly this reason
    value = os.environ.get("CURVFLOW_THREADS")
    if value:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ):
            os.environ.setdefault(var, value)


_cap_threads()

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .body import (
    ConvexityLostError,
    load_snapshot,
    pinching_status,
    save_snapshot,
)
from .flow import FlowSnapshot, Trajectory, estimate_collapse, run_flow
from .geometry import diskant_bounds, geombound_check
from .shapes import default_cone_threshold, parse_shape
from .spectral import standard_grid
from .speeds import (
    check_conditions,
    estimate_mu,
    parse_speed,
    verify_derivative_bounds,
)
from .verify import (
    DiagnosticsRecord,
    curve_evolution_residual,
    diagnostics_record,
    pinching_monitors,
    run_lemma_suites,
    speed_lowerbound_fit,
    volume_decay_check,
)

__all__ = [
    "ExperimentConfig",
    "TimeSeriesRow",
    "time_series",
    "write_series",
    "load_trajectory",
    "main",
    "EXIT_OK",
    "EXIT_PRECONDITION",
    "EXIT_CONE",
    "EXIT_NUMERICAL",
    "EXIT_IO",
    "EXIT_TRUNCATED",
]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CONE = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5
EXIT_TRUNCATED = 6

_CONFIG_DEFAULTS = {
    "dimension": 2,
    "shape": "sphere 1",
    "speed": "pow_mean,alpha=2",
    "degree": 16,
    "c_safe": 0.2,
    "stop_fraction": 0.2,
    "snapshot_every": 10,
    "max_steps": 200_000,
    "sigma": None,
    "sigma0": None,
    "t0_anchor": 1.2,
    "eps_grid": [0.01, 0.05, 0.1, 0.5],
    "rho_grid": [0.01, 0.05],
    "seed": 0,
    "output": None,
}


def _positive_numbers(items, kind, name: str) -> tuple:
    """A config list or a split command-line list as a tuple of positive ``kind``s."""
    try:
        numbers = tuple(kind(x) for x in items)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of numbers, got {items!r}") from None
    if not all(x > 0 for x in numbers):
        raise ValueError(f"{name} entries must be positive, got {numbers}")
    return numbers


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation: shape, speed, resolution, stopping, monitor knobs.

    ``sigma`` defaults (None) to 1.05 times the initial worst pinching
    ratio; ``t0_anchor`` places the interior-estimate anchor at the first
    snapshot whose inradius is at most that multiple of the final one.
    """

    dimension: int
    shape: str
    speed: str
    degree: int
    c_safe: float
    stop_fraction: float
    snapshot_every: int
    max_steps: int
    sigma: float | None
    sigma0: float | None
    t0_anchor: float
    eps_grid: tuple[float, ...]
    rho_grid: tuple[float, ...]
    seed: int
    output: str | None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(_CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = {**_CONFIG_DEFAULTS, **data}
        config = cls(
            dimension=int(merged["dimension"]),
            shape=str(merged["shape"]),
            speed=str(merged["speed"]),
            degree=int(merged["degree"]),
            c_safe=float(merged["c_safe"]),
            stop_fraction=float(merged["stop_fraction"]),
            snapshot_every=int(merged["snapshot_every"]),
            max_steps=int(merged["max_steps"]),
            sigma=None if merged["sigma"] is None else float(merged["sigma"]),
            sigma0=None if merged["sigma0"] is None else float(merged["sigma0"]),
            t0_anchor=float(merged["t0_anchor"]),
            eps_grid=_positive_numbers(merged["eps_grid"], float, "eps_grid"),
            rho_grid=_positive_numbers(merged["rho_grid"], float, "rho_grid"),
            seed=int(merged["seed"]),
            output=None if merged["output"] is None else str(merged["output"]),
        )
        if config.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if config.degree < 2:
            raise ValueError("degree must be at least 2")
        if not 0.0 < config.stop_fraction < 1.0:
            raise ValueError("stop_fraction must lie in (0, 1)")
        if not 0.0 < config.c_safe < np.inf:
            raise ValueError("c_safe must be a positive finite number")
        if config.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if config.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not config.t0_anchor >= 1.0:
            raise ValueError("t0_anchor must be at least 1")
        return config

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "shape": self.shape,
            "speed": self.speed,
            "degree": self.degree,
            "c_safe": self.c_safe,
            "stop_fraction": self.stop_fraction,
            "snapshot_every": self.snapshot_every,
            "max_steps": self.max_steps,
            "sigma": self.sigma,
            "sigma0": self.sigma0,
            "t0_anchor": self.t0_anchor,
            "eps_grid": list(self.eps_grid),
            "rho_grid": list(self.rho_grid),
            "seed": self.seed,
            "output": self.output,
        }


@dataclass(frozen=True)
class TimeSeriesRow:
    """One snapshot's line in the simulation CSV; the column set is fixed."""

    t: float
    r_minus: float
    r_plus: float
    ratio: float
    volumes: tuple[float, ...]  # V_1 .. V_{n+1}
    iso_ratio: float
    h_max: float
    f_min: float
    f_max: float
    pinch_max: float
    z_sigma_max: float
    q_max: float
    smoczyk_min: float


def series_header(dimension: int) -> list[str]:
    names = ["t", "r_minus", "r_plus", "ratio"]
    names += [f"V_{k}" for k in range(1, dimension + 2)]
    names += [
        "iso_ratio",
        "H_max",
        "F_min",
        "F_max",
        "pinch_max",
        "Z_sigma_max",
        "Q_max",
        "smoczyk_min",
    ]
    return names


def time_series(trajectory: Trajectory, record: DiagnosticsRecord) -> list[TimeSeriesRow]:
    rows = []
    for i, snap in enumerate(trajectory.snapshots):
        mv = snap.volumes
        rows.append(
            TimeSeriesRow(
                t=snap.time,
                r_minus=snap.radii.r_minus,
                r_plus=snap.radii.r_plus,
                ratio=snap.radii.r_plus / snap.radii.r_minus,
                volumes=tuple(float(v) for v in mv.canonical[1:]),
                iso_ratio=mv.iso_ratio,
                h_max=float(record.h_max[i]),
                f_min=float(record.f_min[i]),
                f_max=float(record.f_max[i]),
                pinch_max=float(record.pinch_max[i]),
                z_sigma_max=float(record.z_sigma_max[i]),
                q_max=float(record.q_max[i]),
                smoczyk_min=float(record.smoczyk_min[i]),
            )
        )
    return rows


def _fmt(value: float) -> str:
    return repr(float(value))


def write_series(path, rows: list[TimeSeriesRow], dimension: int) -> None:
    lines = [",".join(series_header(dimension))]
    for row in rows:
        fields = [row.t, row.r_minus, row.r_plus, row.ratio]
        fields += list(row.volumes)
        fields += [
            row.iso_ratio,
            row.h_max,
            row.f_min,
            row.f_max,
            row.pinch_max,
            row.z_sigma_max,
            row.q_max,
            row.smoczyk_min,
        ]
        lines.append(",".join(_fmt(v) for v in fields))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# trajectory persistence


def save_trajectory(out_dir, config: ExperimentConfig, trajectory: Trajectory, summary: dict) -> None:
    out = Path(out_dir)
    snaps = out / "snapshots"
    snaps.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", config.to_dict())
    _write_json(out / "summary.json", summary)
    for i, snap in enumerate(trajectory.snapshots):
        save_snapshot(snap.body, snap.time, snaps / f"snap_{i:06d}.json")


def load_trajectory(path) -> tuple[Trajectory, dict]:
    """Rebuild a trajectory from a simulation output directory.

    A snapshot solves its radii linear programs only when its radii are
    first read (the programs are deterministic); the speed and stop
    metadata come from the stored config and summary.
    """
    root = Path(path)
    config_path = root / "config.json"
    files = sorted((root / "snapshots").glob("snap_*.json"))
    if not config_path.is_file() or not files:
        raise FileNotFoundError(f"{path} is not a trajectory directory")
    config = ExperimentConfig.from_dict(json.loads(config_path.read_text(encoding="utf-8")))
    summary_path = root / "summary.json"
    summary = (
        json.loads(summary_path.read_text(encoding="utf-8")) if summary_path.is_file() else {}
    )
    speed = parse_speed(config.speed, config.dimension)
    snapshots = []
    for i, file in enumerate(files):
        body, time = load_snapshot(file)
        snapshots.append(FlowSnapshot(step=i, time=time, body=body, speed=speed))
    trajectory = Trajectory(
        speed=speed,
        snapshots=tuple(snapshots),
        stop_reason=summary.get("stop_reason", "loaded"),
        steps=int(summary.get("steps", len(snapshots) - 1)),
        retries=int(summary.get("retries", 0)),
    )
    return trajectory, summary


def _anchor_index(trajectory: Trajectory, factor: float) -> int:
    r = trajectory.r_minus()
    eligible = np.nonzero(r <= factor * r[-1])[0]
    return int(eligible[0]) if eligible.size else len(r) - 1


def _default_sigma(trajectory: Trajectory) -> float:
    """1.05 times the initial worst pinching ratio, floored at 1e-10."""
    status = pinching_status(trajectory.snapshots[0].curv, np.inf)
    return max(1.05 * status.max_ratio, 1e-10)


def _resolve_sigma(config: ExperimentConfig, trajectory: Trajectory) -> tuple[float, float]:
    sigma = config.sigma if config.sigma is not None else _default_sigma(trajectory)
    sigma0 = config.sigma0 if config.sigma0 is not None else sigma
    return float(sigma), float(sigma0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_shape(args) -> int:
    try:
        grid = standard_grid(args.dimension, args.degree)
        body = parse_shape(args.spec, grid)
        if args.speed is not None:
            delta0 = parse_speed(args.speed, args.dimension).delta0
        else:
            delta0 = default_cone_threshold(args.dimension)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    try:
        status = pinching_status(body, delta0)
    except ConvexityLostError as exc:
        print(f"error: shape is not convex: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    print(f"max pinching ratio: {status.max_ratio:.6e} (node {status.argmax_node})")
    print(f"cone threshold:     {delta0:.6e}")
    print(f"cone margin:        {delta0 - status.max_ratio:.6e}")
    if not status.in_cone:
        direction = body.grid.nodes[status.argmax_node]
        print(
            f"error: shape lies outside the pinching cone; worst node "
            f"{status.argmax_node} at direction {np.array2string(direction, precision=6)}",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION

    if args.output is not None:
        try:
            save_snapshot(body, 0.0, args.output)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.output}")
    return EXIT_OK


def _simulate_one(config_path: str) -> tuple[int, str]:
    """Run one configured simulation; returns (exit code, message)."""
    try:
        config = ExperimentConfig.load(config_path)
    except OSError as exc:
        return EXIT_IO, f"{config_path}: {exc}"
    except ValueError as exc:
        return EXIT_PRECONDITION, f"{config_path}: bad config: {exc}"
    if config.output is None:
        return EXIT_PRECONDITION, f"{config_path}: config needs an 'output' directory"

    try:
        grid = standard_grid(config.dimension, config.degree)
        speed = parse_speed(config.speed, config.dimension)
        body = parse_shape(config.shape, grid)
    except OSError as exc:
        return EXIT_IO, f"{config_path}: {exc}"
    except ValueError as exc:
        return EXIT_PRECONDITION, f"{config_path}: {exc}"

    try:
        status = pinching_status(body, speed.delta0)
    except ConvexityLostError as exc:
        return EXIT_PRECONDITION, f"{config_path}: shape not convex: {exc}"
    if not status.in_cone:
        return (
            EXIT_PRECONDITION,
            f"{config_path}: initial shape outside the pinching cone "
            f"(ratio {status.max_ratio:.3e} >= {speed.delta0:.3e} at node {status.argmax_node})",
        )

    try:
        trajectory = run_flow(
            body,
            speed,
            c_safe=config.c_safe,
            stop_fraction=config.stop_fraction,
            snapshot_every=config.snapshot_every,
            max_steps=config.max_steps,
        )
    except ConvexityLostError as exc:
        return EXIT_NUMERICAL, f"{config_path}: {exc}"

    sigma, sigma0 = _resolve_sigma(config, trajectory)
    t0_index = _anchor_index(trajectory, config.t0_anchor)
    record = diagnostics_record(
        trajectory, sigma=sigma, sigma0=sigma0, t0_index=t0_index, eps_grid=config.eps_grid
    )
    estimate = (
        estimate_collapse(trajectory) if len(trajectory.snapshots) >= 2 else None
    )

    summary = {
        "stop_reason": trajectory.stop_reason,
        "steps": trajectory.steps,
        "retries": trajectory.retries,
        "snapshot_count": len(trajectory.snapshots),
        "dimension": config.dimension,
        "degree": config.degree,
        "speed": speed.describe(),
        "shape": config.shape,
        "sigma": sigma,
        "sigma0": sigma0,
        "t0_index": t0_index,
        "collapse_time": None if estimate is None else estimate.time,
        "collapse_point": None if estimate is None else [float(x) for x in estimate.point],
        "lambda_hat": record.lambda_hat,
        "speed_exponent": record.speed_exponent,
        "gradient_margin": record.gradient_margin,
        "tso_aborted": record.tso.aborted,
        "tso_violated": record.tso.violated,
        "smoczyk_worst": float(np.nanmin(record.smoczyk_min)),
        "final_time": float(trajectory.final.time),
        "final_r_minus": float(trajectory.final.radii.r_minus),
    }
    try:
        save_trajectory(config.output, config, trajectory, summary)
        write_series(
            Path(config.output) / "series.csv",
            time_series(trajectory, record),
            config.dimension,
        )
    except OSError as exc:
        return EXIT_IO, f"{config_path}: {exc}"

    code = {
        "target_radius": EXIT_OK,
        "max_steps": EXIT_TRUNCATED,
        "cone_exit": EXIT_CONE,
        "convexity_lost": EXIT_NUMERICAL,
    }[trajectory.stop_reason]
    message = (
        f"{config_path}: {trajectory.stop_reason} after {trajectory.steps} steps, "
        f"t = {trajectory.final.time:.6g}, r_- = {trajectory.final.radii.r_minus:.6g}, "
        f"wrote {config.output}"
    )
    return code, message


def cmd_simulate(args) -> int:
    if args.jobs > 1 and len(args.configs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_simulate_one, args.configs))
    else:
        results = [_simulate_one(path) for path in args.configs]
    worst = EXIT_OK
    for code, message in results:
        stream = sys.stdout if code == EXIT_OK else sys.stderr
        print(message, file=stream)
        worst = max(worst, code)
    return worst


def cmd_verify(args) -> int:
    if args.scope == "lemmas":
        try:
            dims = _positive_numbers(args.dimensions.split(","), int, "--dimensions")
            reports = run_lemma_suites(dimensions=dims, samples=args.samples)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        for report in reports:
            print(report.summary())
        return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERICAL

    if args.scope == "speeds":
        try:
            if args.dimension < 2:
                raise ValueError("verify speeds needs --dimension 2 or more (two principal curvatures)")
            speed = parse_speed(args.speed, args.dimension)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        report = check_conditions(speed, samples=args.samples)
        print(report.summary())
        mu = estimate_mu(speed, np.random.default_rng(0))
        bounds = verify_derivative_bounds(speed, 1.1 * mu)
        tag = "ok" if bounds.passed else "FAIL"
        print(f"mu_hat = {mu:.6g}")
        print(
            f"derivative envelopes at 1.1 mu_hat: {tag} "
            f"(gradient margin {bounds.gradient_margin:.3e}, "
            f"value margin {bounds.value_margin:.3e})"
        )
        return EXIT_OK if report.passed and bounds.passed else EXIT_NUMERICAL

    # scope == "flow"
    try:
        trajectory, summary = load_trajectory(args.directory)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    sigma = float(summary.get("sigma") or 0.0)
    if sigma <= 0.0:
        sigma = _default_sigma(trajectory)
    t0_index = int(summary.get("t0_index", 0))
    record = diagnostics_record(trajectory, sigma=sigma, sigma0=sigma, t0_index=t0_index)

    failures = []
    tol = 1e-10 * sigma * np.max(record.h_max) ** 2
    if record.z_sigma_max[0] < 0.0:
        ok = bool(np.all(record.z_sigma_max <= tol))
        print(f"Z_sigma stays negative: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append("z_sigma")
    else:
        print("Z_sigma not negative initially; sign preservation not applicable")

    tso_ok = not record.tso.violated
    print(
        f"interior speed bound: {'ok' if tso_ok else 'FAIL'}"
        + (" (aborted at validity edge)" if record.tso.aborted else "")
    )
    if not tso_ok:
        failures.append("tso")

    smoczyk_worst = float(np.nanmin(record.smoczyk_min))
    smoczyk_ok = smoczyk_worst >= -1e-8
    print(f"enclosed-point margin: {'ok' if smoczyk_ok else 'FAIL'} (worst {smoczyk_worst:.3e})")
    if not smoczyk_ok:
        failures.append("smoczyk")

    if len(trajectory.snapshots) >= 3:
        decay = volume_decay_check(trajectory)
        decay_ok = decay.max_rel_error <= 1e-2
        print(
            f"volume decay identity: {'ok' if decay_ok else 'FAIL'} "
            f"(worst relative error {decay.max_rel_error:.3e})"
        )
        if not decay_ok:
            failures.append("volume_decay")

    if trajectory.dimension == 1 and len(trajectory.snapshots) >= 3:
        residual = curve_evolution_residual(trajectory, "H")
        print(f"curve evolution residual (sup): {residual.residuals.max():.3e}")

    if record.lambda_hat is not None:
        print(f"lambda_hat = {record.lambda_hat:.4g}")
    if record.speed_exponent is not None:
        print(
            f"speed exponent = {record.speed_exponent:.4g} "
            f"(expected {record.speed_fit.expected:.4g})"
        )
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_analyze(args) -> int:
    try:
        rho_grid = _positive_numbers(args.rho_grid.split(","), float, "--rho-grid")
        eps_grid = _positive_numbers(args.eps_grid.split(","), float, "--eps-grid")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        trajectory, summary = load_trajectory(args.directory)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    n = trajectory.dimension
    rows = []
    r_plus, ratios = [], []
    for snap in trajectory.snapshots:
        mv = snap.volumes
        bounds = diskant_bounds(mv)
        ratio = snap.radii.r_plus / snap.radii.r_minus
        r_plus.append(snap.radii.r_plus)
        ratios.append(ratio)
        rows.append(
            [snap.time, snap.radii.r_minus, snap.radii.r_plus, ratio]
            + [float(v) for v in mv.canonical]
            + [mv.iso_ratio, bounds.lower, bounds.upper]
        )

    header = ["t", "r_minus", "r_plus", "ratio"]
    header += [f"V_{k}" for k in range(n + 2)]
    header += ["iso_ratio", "diskant_lower", "diskant_upper"]
    out_path = Path(args.directory) / "analysis.csv"
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    roundness = geombound_check(np.array(r_plus), np.array(ratios), rho_grid)
    sigma = float(summary.get("sigma") or 0.0)
    if sigma <= 0.0:
        sigma = _default_sigma(trajectory)
    pinching = pinching_monitors(trajectory, sigma, sigma, eps_grid=eps_grid)
    fit = speed_lowerbound_fit(trajectory)

    print(f"wrote {out_path}")
    print("roundness thresholds (largest safe circumradius):")
    for rho in rho_grid:
        print(f"  rho={rho:g}: {_fmt(roundness.thresholds[rho])}")
    print(f"ratio monotone under shrinking r_plus: {'yes' if roundness.ratio_monotone else 'no'}")
    print("pinching-gap constants (worst kappa_max - (1+eps) kappa_min):")
    for eps, value in zip(pinching.eps_grid, pinching.c1_table):
        print(f"  eps={eps:g}: {_fmt(value)}")
    if pinching.lambda_hat is None:
        print("lambda_hat: unavailable")
    else:
        print(f"lambda_hat: {pinching.lambda_hat:.6g}")
    if fit.available:
        print(f"speed exponent: {fit.exponent:.6g} (expected {fit.expected:.6g})")
    else:
        print("speed exponent: unavailable")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvflow",
        description="Contraction of convex hypersurfaces by curvature powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shape = sub.add_parser("shape", help="build and validate a support-function snapshot")
    shape.add_argument("spec", help="shape description, e.g. 'sphere 1 + Y(2,0)*0.05'")
    shape.add_argument("--dimension", type=int, default=2)
    shape.add_argument("--degree", type=int, default=16)
    shape.add_argument("--speed", default=None, help="speed whose cone to validate against")
    shape.add_argument("--output", default=None, help="snapshot file to write")
    shape.set_defaults(func=cmd_shape)

    simulate = sub.add_parser("simulate", help="run configured contractions")
    simulate.add_argument("configs", nargs="+", help="experiment config JSON files")
    simulate.add_argument("--jobs", type=int, default=1, help="parallel simulations")
    simulate.set_defaults(func=cmd_simulate)

    verify = sub.add_parser("verify", help="run verification suites")
    verify_sub = verify.add_subparsers(dest="scope", required=True)

    lemmas = verify_sub.add_parser("lemmas", help="randomized inequality suites")
    lemmas.add_argument("--samples", type=int, default=100_000)
    lemmas.add_argument("--dimensions", default="2,3,4")
    lemmas.set_defaults(func=cmd_verify)

    speeds = verify_sub.add_parser("speeds", help="structural speed checks")
    speeds.add_argument("speed", help="speed grammar, e.g. 'pow_norm,alpha=2'")
    speeds.add_argument("--dimension", type=int, default=2)
    speeds.add_argument("--samples", type=int, default=256)
    speeds.set_defaults(func=cmd_verify)

    flow = verify_sub.add_parser("flow", help="monitor checks on a stored trajectory")
    flow.add_argument("directory", help="simulation output directory")
    flow.set_defaults(func=cmd_verify)

    analyze = sub.add_parser("analyze", help="integral geometry along a trajectory")
    analyze.add_argument("directory", help="simulation output directory")
    analyze.add_argument("--rho-grid", default="0.01,0.05", dest="rho_grid")
    analyze.add_argument("--eps-grid", default="0.01,0.05,0.1,0.5", dest="eps_grid")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: shape building, simulation, verification, analysis.

Outputs are deterministic: floats are serialized with repr (shortest
round-trip form), CSVs always use "\\n" newlines, and JSON keys are sorted,
so rerunning a command over the same inputs reproduces files byte for byte.

Exit codes: 0 success, 2 failed precondition (bad config, shape outside the
cone, malformed run files), 3 the flow left the pinching cone, 4 a numerical
failure or a failed flow check (in ``simulate`` too, where no larger code
applies), 5 an I/O problem, 6 ``max_steps`` ran out (outputs are written).
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
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .body import (
    ConvexityLostError,
    load_snapshot,
    pinching_status,
    save_snapshot,
)
from .flow import (
    DEFAULT_SAFETY,
    MAX_SAFETY,
    FlowSnapshot,
    Trajectory,
    run_flow,
)
from .geometry import RadiiSolver, diskant_bounds, geombound_check
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
    diagnostics_record,
    flow_checks,
    gradient_margins,
    kappa_gap_table,
    run_lemma_suites,
)

__all__ = [
    "ExperimentConfig",
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
    "c_safe": DEFAULT_SAFETY,
    "stop_fraction": 0.2,
    "snapshot_every": 10,
    "max_steps": 200_000,
    "sigma": None,
    "t0_anchor": 1.2,
    "output": None,
}


def _positive_numbers(text: str, kind, name: str) -> tuple:
    """A comma-separated command-line list as a tuple of positive ``kind``s."""
    items = text.split(",")
    try:
        numbers = tuple(kind(x) for x in items)
    except ValueError:
        raise ValueError(f"{name} must be a list of numbers, got {items!r}") from None
    if not all(x > 0 for x in numbers):
        raise ValueError(f"{name} entries must be positive, got {numbers}")
    return numbers


def _config_integer(value, name: str) -> int:
    """An integer config value; an integral float counts, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _config_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value!r}") from None


def _sigma_number(value, name: str) -> float:
    """A configured sigma: a finite number >= 0, where 0 reads as unset."""
    sigma = _config_number(value, name)
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {sigma!r}")
    return sigma


def _config_string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One simulation: shape, speed, resolution, stopping, monitor knobs.

    ``sigma`` unset (None or 0) is 1.05 times the initial worst pinching
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
    t0_anchor: float
    output: str | None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Validate a parsed JSON config; any bad value raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        unknown = set(data) - set(_CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = {**_CONFIG_DEFAULTS, **data}

        def optional(name, parse):
            return None if merged[name] is None else parse(merged[name], name)

        config = cls(
            dimension=_config_integer(merged["dimension"], "dimension"),
            shape=_config_string(merged["shape"], "shape"),
            speed=_config_string(merged["speed"], "speed"),
            degree=_config_integer(merged["degree"], "degree"),
            c_safe=_config_number(merged["c_safe"], "c_safe"),
            stop_fraction=_config_number(merged["stop_fraction"], "stop_fraction"),
            snapshot_every=_config_integer(merged["snapshot_every"], "snapshot_every"),
            max_steps=_config_integer(merged["max_steps"], "max_steps"),
            sigma=optional("sigma", _sigma_number),
            t0_anchor=_config_number(merged["t0_anchor"], "t0_anchor"),
            output=optional("output", _config_string),
        )
        if config.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if config.degree < 2:
            raise ValueError("degree must be at least 2")
        if not 0.0 < config.stop_fraction < 1.0:
            raise ValueError("stop_fraction must lie in (0, 1)")
        if not 0.0 < config.c_safe <= MAX_SAFETY:
            raise ValueError(
                f"c_safe must lie in (0, {MAX_SAFETY:.6g}], the RK4 stability bound"
            )
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
        return dataclasses.asdict(self)


_SERIES_MONITORS = ["H_max", "F_min", "F_max", "pinch_max", "Z_sigma_max", "Q_max", "smoczyk_min"]


def _geometry_columns(dimension: int, first_volume: int) -> list[str]:
    """The columns that series.csv and analysis.csv share, from ``V_{first_volume}`` on."""
    volumes = [f"V_{k}" for k in range(first_volume, dimension + 2)]
    return ["t", "r_minus", "r_plus", "ratio", *volumes, "iso_ratio"]


def _geometry_row(snap: FlowSnapshot, first_volume: int) -> list[float]:
    radii, mv = snap.radii, snap.volumes
    ratio = radii.r_plus / radii.r_minus
    volumes = mv.canonical[first_volume:]
    return [snap.time, radii.r_minus, radii.r_plus, ratio, *volumes, mv.iso_ratio]


def time_series(trajectory: Trajectory, record: DiagnosticsRecord) -> list[list[float]]:
    """One series.csv row per snapshot: its geometry, then its monitor values."""
    monitors = np.column_stack(
        [
            record.h_max,
            record.f_min,
            record.f_max,
            record.pinch_max,
            record.z_sigma_max,
            record.q_max,
            record.smoczyk_min,
        ]
    )
    return [
        _geometry_row(snap, 1) + list(values)
        for snap, values in zip(trajectory.snapshots, monitors)
    ]


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_series(path, rows: list[list[float]], dimension: int) -> None:
    _write_csv(path, _geometry_columns(dimension, 1) + _SERIES_MONITORS, rows)


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


def load_trajectory(path) -> tuple[Trajectory, ExperimentConfig]:
    """Rebuild a trajectory and its config from a simulation output directory.

    A stored run is its ``config.json`` and its snapshots; ``summary.json``
    is a report and is never read back.  A malformed snapshot raises
    ValueError naming its file, and so does one whose dimension or degree
    differs from the config's, or whose time does not follow the previous
    snapshot's, since it belongs to another run.
    A snapshot solves its radii linear programs only when its radii are
    first read, warm-started by the one solver that the loaded snapshots
    share; the radii are the programs' optimal values and the centres
    canonical, so they do not depend on the order of reads beyond rounding.
    """
    root = Path(path)
    config_path = root / "config.json"
    files = sorted((root / "snapshots").glob("snap_*.json"))
    if not config_path.is_file() or not files:
        raise FileNotFoundError(f"{path} is not a trajectory directory")
    stored = json.loads(config_path.read_text(encoding="utf-8"))
    if isinstance(stored, dict):
        # config fields that no output read; run directories written with them still load
        stored = {k: v for k, v in stored.items() if k not in _RETIRED_KEYS}
    config = ExperimentConfig.from_dict(stored)
    speed = parse_speed(config.speed, config.dimension)
    solver = RadiiSolver()
    snapshots = []
    for i, file in enumerate(files):
        try:
            body, time = load_snapshot(file)
        except ValueError as exc:
            raise ValueError(f"{file}: {exc}") from exc
        if (body.dimension, body.grid.degree) != (config.dimension, config.degree):
            raise ValueError(
                f"{file}: snapshot has dimension {body.dimension} and degree "
                f"{body.grid.degree}, config.json {config.dimension} and {config.degree}"
            )
        if snapshots and not time > snapshots[-1].time:
            raise ValueError(
                f"{file}: snapshot time {time!r} does not follow {snapshots[-1].time!r}"
            )
        snapshots.append(
            FlowSnapshot(step=i, time=time, body=body, speed=speed, radii_solver=solver)
        )
    return Trajectory(speed=speed, snapshots=tuple(snapshots)), config


_RETIRED_KEYS = ("seed", "rho_grid", "eps_grid", "sigma0")


def _sigma_and_anchor(config: ExperimentConfig, trajectory: Trajectory) -> tuple[float, int]:
    """The monitors' sigma and anchor index (t0_index) for a run of ``config``.

    A configured ``sigma`` is used as given; unset (None or 0), it is 1.05
    times the initial worst pinching ratio, floored at 1e-10.  The anchor is
    the first snapshot whose inradius is at most ``t0_anchor`` times the
    final one.  The radii are read in snapshot order, the order in which
    ``run_flow`` solves them, so a stored run gives the values ``simulate``
    gave.
    """
    sigma = config.sigma
    if not sigma:
        status = pinching_status(trajectory.snapshots[0].curv, np.inf)
        sigma = max(1.05 * status.max_ratio, 1e-10)
    r = trajectory.r_minus()
    eligible = np.nonzero(r <= config.t0_anchor * r[-1])[0]
    t0_index = int(eligible[0]) if eligible.size else len(r) - 1
    return float(sigma), t0_index


def _load_run(directory) -> tuple[Trajectory, float, int] | int:
    """A stored run with its monitor sigma and anchor index, or, after one
    ``error:`` line, the exit code: 5 for an I/O problem, 2 for malformed files."""
    try:
        trajectory, config = load_trajectory(directory)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_PRECONDITION
    return trajectory, *_sigma_and_anchor(config, trajectory)


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
        return EXIT_IO, f"error: {config_path}: {exc}"
    except ValueError as exc:
        return EXIT_PRECONDITION, f"error: {config_path}: bad config: {exc}"
    if config.output is None:
        return EXIT_PRECONDITION, f"error: {config_path}: config needs an 'output' directory"

    try:
        grid = standard_grid(config.dimension, config.degree)
        speed = parse_speed(config.speed, config.dimension)
        body = parse_shape(config.shape, grid)
    except OSError as exc:
        return EXIT_IO, f"error: {config_path}: {exc}"
    except ValueError as exc:
        return EXIT_PRECONDITION, f"error: {config_path}: {exc}"

    try:
        status = pinching_status(body, speed.delta0)
    except ConvexityLostError as exc:
        return EXIT_PRECONDITION, f"error: {config_path}: shape not convex: {exc}"
    if not status.in_cone:
        return (
            EXIT_PRECONDITION,
            f"error: {config_path}: initial shape outside the pinching cone "
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
        return EXIT_NUMERICAL, f"error: {config_path}: {exc}"

    sigma, t0_index = _sigma_and_anchor(config, trajectory)
    record = diagnostics_record(trajectory, sigma=sigma, t0_index=t0_index)
    gradient_margin = None
    if trajectory.dimension == 2:
        # on the final snapshot, the roundest body of the run
        gradient_margin = gradient_margins(trajectory.final.body)[0]
    checks = flow_checks(trajectory, record)
    estimate = record.collapse

    dt_min, dt_median, dt_max = trajectory.step_sizes or (None, None, None)
    summary = {
        "stop_reason": trajectory.stop_reason,
        "steps": trajectory.steps,
        "retries": trajectory.retries,
        "rhs_evaluations": trajectory.rhs_evaluations,
        "integrator": trajectory.integrator,
        "dt_min": dt_min,
        "dt_median": dt_median,
        "dt_max": dt_max,
        "snapshot_count": len(trajectory.snapshots),
        "radii_solves": trajectory.final.radii_solver.radii_solves,
        "target_solves": trajectory.final.radii_solver.target_solves,
        "dimension": config.dimension,
        "degree": config.degree,
        "speed": speed.describe(),
        "shape": config.shape,
        "sigma": sigma,
        "t0_index": t0_index,
        "collapse_time": None if estimate is None else estimate.time,
        "collapse_point": None if estimate is None else [float(x) for x in estimate.point],
        "lambda_hat": record.lambda_hat,
        "speed_exponent": record.speed_exponent,
        "gradient_margin": gradient_margin,
        "tso_aborted": record.tso.aborted,
        "checks": {c.name: {"verdict": c.verdict, "worst": c.worst, "tol": c.tol} for c in checks},
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
        return EXIT_IO, f"error: {config_path}: {exc}"

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
    failed = [check.name for check in checks if check.verdict == "FAIL"]
    if failed:
        code = max(code, EXIT_NUMERICAL)
        message += f"; failed checks: {', '.join(failed)}"
    return code, message


def cmd_simulate(args) -> int:
    try:
        _check_at_least_one(args.jobs, "--jobs")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.jobs > 1 and len(args.configs) > 1:
        # imported here: multiprocessing costs every other command its start-up
        from concurrent.futures import ProcessPoolExecutor

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


def _check_at_least_one(value: int, option: str) -> None:
    if value < 1:
        raise ValueError(f"{option} must be at least 1, got {value}")


def cmd_verify(args) -> int:
    if args.scope == "lemmas":
        try:
            _check_at_least_one(args.samples, "--samples")
            dims = _positive_numbers(args.dimensions, int, "--dimensions")
            reports = run_lemma_suites(dimensions=dims, samples=args.samples)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        for report in reports:
            print(report.summary())
        return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERICAL

    if args.scope == "speeds":
        try:
            _check_at_least_one(args.samples, "--samples")
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
    loaded = _load_run(args.directory)
    if isinstance(loaded, int):
        return loaded
    trajectory, sigma, t0_index = loaded
    record = diagnostics_record(trajectory, sigma=sigma, t0_index=t0_index)

    checks = flow_checks(trajectory, record)
    for check in checks:
        print(check.line())
    if record.lambda_hat is not None:
        print(f"lambda_hat = {record.lambda_hat:.4g}")
    if record.speed_exponent is not None:
        print(
            f"speed exponent = {record.speed_exponent:.4g} "
            f"(expected {record.expected_exponent:.4g})"
        )
    return EXIT_NUMERICAL if any(check.verdict == "FAIL" for check in checks) else EXIT_OK


def cmd_analyze(args) -> int:
    try:
        rhos = _positive_numbers(args.rho_grid, float, "--rho-grid")
        epsilons = _positive_numbers(args.eps_grid, float, "--eps-grid")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    loaded = _load_run(args.directory)
    if isinstance(loaded, int):
        return loaded
    trajectory, sigma, t0_index = loaded

    rows = []
    for snap in trajectory.snapshots:
        bounds = diskant_bounds(snap.volumes)
        rows.append(_geometry_row(snap, 0) + [bounds.lower, bounds.upper])
    header = _geometry_columns(trajectory.dimension, 0) + ["diskant_lower", "diskant_upper"]
    out_path = Path(args.directory) / "analysis.csv"
    try:
        _write_csv(out_path, header, rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    r_plus = trajectory.r_plus()
    roundness = geombound_check(r_plus, r_plus / trajectory.r_minus(), rhos)
    gaps = kappa_gap_table(trajectory, epsilons)
    record = diagnostics_record(trajectory, sigma=sigma, t0_index=t0_index)

    print(f"wrote {out_path}")
    print("roundness thresholds (largest safe circumradius):")
    for rho in rhos:
        print(f"  rho={rho:g}: {_fmt(roundness.thresholds[rho])}")
    print(f"ratio monotone under shrinking r_plus: {'yes' if roundness.ratio_monotone else 'no'}")
    print("pinching-gap constants (worst kappa_max - (1+eps) kappa_min):")
    for eps, value in zip(epsilons, gaps):
        print(f"  eps={eps:g}: {_fmt(value)}")
    if record.lambda_hat is None:
        print("lambda_hat: unavailable")
    else:
        print(f"lambda_hat: {record.lambda_hat:.6g}")
    if record.speed_exponent is not None:
        print(
            f"speed exponent: {record.speed_exponent:.6g} "
            f"(expected {record.expected_exponent:.6g})"
        )
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
    analyze.add_argument("--rho-grid", default="0.01,0.05")
    analyze.add_argument("--eps-grid", default="0.01,0.05,0.1,0.5")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

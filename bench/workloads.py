"""The benchmark's workloads: their inputs, the timed call, and the checks.

None of the shapes draws anything at random, so every run does the same work
step for step whatever seed the benchmark is given.  Importing this module
loads numpy, scipy and all of curvflow; the worker times that as set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

from curvflow import cli, flow, geometry, shapes, spectral, speeds

from checks import FlowObservation, RoundTripFiles, check_flow, check_roundtrip

SPEED = "pow_mean,alpha=2"
ALPHA = 2.0


def _no_span(_name):
    return contextlib.nullcontext()


class FlowWorkload:
    """One ``flow.run_flow`` call on an ellipsoid built in set-up."""

    operations = 1

    def __init__(self, semi_axes, degree, snapshot_every, stop_fraction):
        self.semi_axes = tuple(semi_axes)
        self.dimension = len(self.semi_axes) - 1
        self.degree = degree
        self.snapshot_every = snapshot_every
        self.stop_fraction = stop_fraction
        self.span = _no_span
        self.trajectory = None

    def setup(self, out_dir: Path) -> None:
        grid = spectral.standard_grid(self.dimension, self.degree)
        self.body = shapes.parse_shape("ellipsoid " + " ".join(map(str, self.semi_axes)), grid)
        self.speed = speeds.parse_speed(SPEED, self.dimension)

    def prepare(self) -> None:
        self.trajectory = None

    def run(self) -> int:
        """The timed part; returns the number of operations that failed."""
        self.trajectory = flow.run_flow(
            self.body,
            self.speed,
            stop_fraction=self.stop_fraction,
            snapshot_every=self.snapshot_every,
        )
        return 0

    def observe(self) -> FlowObservation:
        traj = self.trajectory
        return FlowObservation(
            dimension=self.dimension,
            semi_axes=self.semi_axes,
            alpha=ALPHA,
            stop_reason=traj.stop_reason,
            times=tuple(float(t) for t in traj.times()),
            r_minus=tuple(float(r) for r in traj.r_minus()),
            r_plus=tuple(float(r) for r in traj.r_plus()),
            volume0=float(geometry.mixed_volumes(traj.snapshots[0].body).canonical[-1]),
            collapse_time=float(flow.estimate_collapse(traj).time),
        )

    def check(self) -> list[tuple[str, str]]:
        return check_flow(self.observe())

    def output_size(self) -> tuple[int, int]:
        return 0, 0


class RoundTripWorkload:
    """``cli.main`` runs simulate, then verify flow and analyze on its output."""

    operations = 3

    def __init__(self, semi_axes, degree, snapshot_every, stop_fraction):
        self.semi_axes = tuple(semi_axes)
        self.config = {
            "dimension": len(self.semi_axes) - 1,
            "shape": "ellipsoid " + " ".join(map(str, self.semi_axes)),
            "speed": SPEED,
            "degree": degree,
            "snapshot_every": snapshot_every,
            "stop_fraction": stop_fraction,
        }
        self.span = _no_span
        self.exit_codes = ()

    def setup(self, out_dir: Path) -> None:
        # a relative output path keeps config.json, and so the bytes written,
        # the same in every checkout
        self.run_dir = out_dir / "run"
        self.config_path = out_dir / "config.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(
            json.dumps({**self.config, "output": self.run_dir.as_posix()}, indent=2) + "\n",
            encoding="utf-8",
        )

    def prepare(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.exit_codes = ()

    def run(self) -> int:
        commands = (
            ("cli.simulate", ["simulate", str(self.config_path)]),
            ("cli.verify", ["verify", "flow", str(self.run_dir)]),
            ("cli.analyze", ["analyze", str(self.run_dir)]),
        )
        codes = []
        for span, argv in commands:
            with self.span(span), contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        self.exit_codes = tuple(codes)
        return sum(code != 0 for code in codes)

    def observe(self) -> tuple[FlowObservation, RoundTripFiles]:
        summary = json.loads((self.run_dir / "summary.json").read_text(encoding="utf-8"))
        with open(self.run_dir / "series.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        top = f"V_{self.config['dimension'] + 1}"
        observation = FlowObservation(
            dimension=self.config["dimension"],
            semi_axes=self.semi_axes,
            alpha=ALPHA,
            stop_reason=summary["stop_reason"],
            times=tuple(float(row["t"]) for row in rows),
            r_minus=tuple(float(row["r_minus"]) for row in rows),
            r_plus=tuple(float(row["r_plus"]) for row in rows),
            volume0=float(rows[0][top]),
            collapse_time=float(summary["collapse_time"]),
        )
        files = RoundTripFiles(
            exit_codes=self.exit_codes,
            snapshot_files=len(list((self.run_dir / "snapshots").glob("snap_*.json"))),
            series_rows=len(rows),
            snapshot_count=int(summary["snapshot_count"]),
        )
        return observation, files

    def check(self) -> list[tuple[str, str]]:
        observation, files = self.observe()
        return check_flow(observation) + check_roundtrip(files)

    def output_size(self) -> tuple[int, int]:
        """(bytes, files) under the run directory."""
        files = [p for p in self.run_dir.rglob("*") if p.is_file()]
        return sum(p.stat().st_size for p in files), len(files)


def make(name: str):
    if name == "surface_ellipsoid_L24":
        return FlowWorkload((1.0, 1.0, 1.1), degree=24, snapshot_every=20, stop_fraction=0.9)
    if name == "curve_ellipse_L64":
        return FlowWorkload((1.0, 1.2), degree=64, snapshot_every=2, stop_fraction=0.5)
    if name == "simulate_roundtrip":
        return RoundTripWorkload((1.0, 1.0, 1.1), degree=12, snapshot_every=1, stop_fraction=0.2)
    raise ValueError(f"unknown workload {name!r}")

"""Spans around calls into curvflow's public functions, and the per-layer
metrics derived from them.

Each traced function is replaced at every module attribute that binds it,
because the calling code looks the name up at run time in its own module
(``curvflow.flow.direct_radii``, ``curvflow.cli.load_trajectory``, ...).
Methods are replaced on their class.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass

MODULES = ("spectral", "body", "shapes", "speeds", "geometry", "flow", "verify", "cli")


@dataclass(frozen=True)
class Target:
    span: str  # span name; metrics are named after it
    module: str  # curvflow submodule that defines the function or class
    attr: str  # function name, or "Class.method"
    bindings: tuple[str, ...] = MODULES  # modules whose attribute is replaced


# Speed.value also runs inside the monitors, direct_radii inside cli and flow:
# every call site counts.  pinching_status counts only as flow calls it.
TARGETS = (
    Target("spectral.synth", "spectral", "TruncatedEvaluator.state"),
    Target("spectral.project", "spectral", "TruncatedEvaluator.project"),
    Target("spectral.build", "spectral", "TruncatedEvaluator.__init__"),
    Target("speeds.value", "speeds", "Speed.value"),
    Target("speeds.trace_gradient", "speeds", "Speed.trace_gradient"),
    Target("body.pinching", "body", "pinching_status", ("flow",)),
    Target("body.curvature", "body", "curvature"),
    Target("body.snapshot_write", "body", "save_snapshot"),
    Target("body.snapshot_read", "body", "load_snapshot"),
    Target("geometry.radii", "geometry", "direct_radii"),
    Target("geometry.mixed_volumes", "geometry", "mixed_volumes"),
    Target("flow.run", "flow", "run_flow"),
    Target("verify.diagnostics", "verify", "diagnostics_record"),
    Target("verify.volume_decay", "verify", "volume_decay_check"),
    Target("cli.save", "cli", "save_trajectory"),
    Target("cli.save", "cli", "write_series"),
    Target("cli.load", "cli", "load_trajectory"),
)

# Spans the benchmark opens around its own cli.main calls.
OWN_SPANS = ("cli.simulate", "cli.verify", "cli.analyze")

# (metric, unit, better) in the order they are reported.
METRICS = (
    ("spectral.synth_calls", "count", "lower"),
    ("spectral.synth_s", "s", "lower"),
    ("spectral.project_calls", "count", "lower"),
    ("spectral.project_s", "s", "lower"),
    ("spectral.build_s", "s", "lower"),
    ("spectral.operator_mb", "MB", "lower"),
    ("speeds.value_calls", "count", "lower"),
    ("speeds.value_s", "s", "lower"),
    ("speeds.trace_gradient_s", "s", "lower"),
    ("body.pinching_s", "s", "lower"),
    ("body.curvature_calls", "count", "lower"),
    ("body.curvature_s", "s", "lower"),
    ("body.snapshot_write_s", "s", "lower"),
    ("body.snapshot_read_s", "s", "lower"),
    ("geometry.radii_calls", "count", "lower"),
    ("geometry.radii_s", "s", "lower"),
    ("geometry.mixed_volumes_calls", "count", "lower"),
    ("geometry.mixed_volumes_s", "s", "lower"),
    ("flow.steps", "count", "lower"),
    ("flow.retries", "count", "lower"),
    ("flow.snapshots", "count", "lower"),
    ("flow.accept_ratio", "ratio", "higher"),
    ("flow.rhs_per_step", "ratio", "lower"),
    ("flow.run_s", "s", "lower"),
    ("flow.self_s", "s", "lower"),
    ("verify.diagnostics_calls", "count", "lower"),
    ("verify.diagnostics_s", "s", "lower"),
    ("verify.volume_decay_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.verify_s", "s", "lower"),
    ("cli.analyze_s", "s", "lower"),
    ("cli.save_s", "s", "lower"),
    ("cli.load_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Counts (and bytes written) that must repeat exactly from one traced round
# or run to the next.
COUNTS = tuple(name for name, unit, _ in METRICS if unit in ("count", "bytes"))


class Tracer:
    """Records (name, parent index, start, end) spans in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.flow_results: list = []  # Trajectory objects returned by run_flow
        self.operator_mb: list[float] = []  # per TruncatedEvaluator built

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self._open[-1] if self._open else -1, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.flow_results.clear()
        self.operator_mb.clear()


def _record_operator(tracer: Tracer):
    def on_return(args, _result):
        evaluator = args[0]
        orders = 3 if evaluator.grid.dimension == 1 else 6
        fine_nodes = evaluator.grid.nodes.shape[0]
        tracer.operator_mb.append(orders * fine_nodes * evaluator.source_count * 8 / 1e6)

    return on_return


def install(tracer: Tracer) -> tuple[list, set[str]]:
    """Wrap every target that exists; return (undo list, absent span names)."""
    modules = {name: importlib.import_module(f"curvflow.{name}") for name in MODULES}
    undo, absent = [], set()
    for target in TARGETS:
        class_name, _, method = target.attr.rpartition(".")
        owner = getattr(modules[target.module], class_name, None) if class_name else modules[target.module]
        original = None if owner is None else getattr(owner, method, None)
        if original is None:
            absent.add(target.span)
            continue
        on_return = None
        if target.span == "spectral.build":
            on_return = _record_operator(tracer)
        elif target.span == "flow.run":
            on_return = lambda _args, result: tracer.flow_results.append(result)
        traced = tracer.wrap(target.span, original, on_return)
        if class_name:
            places = [(owner, method)]
        else:
            places = [
                (modules[name], attr)
                for name in target.bindings
                for attr, value in vars(modules[name]).items()
                if value is original
            ]
        for place, attr in places:
            undo.append((place, attr, original))
            setattr(place, attr, traced)
    return undo, absent


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, absent: set[str], files: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced round; None marks a metric whose span is absent.

    ``files`` is (bytes, files) in the round's output directory.
    """
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    child_seconds = [0.0] * len(tracer.spans)
    for name, parent, start, end in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        if parent >= 0:
            child_seconds[parent] += end - start
    flow_self = sum(
        (end - start) - child_seconds[i]
        for i, (name, _, start, end) in enumerate(tracer.spans)
        if name == "flow.run"
    )

    def count(span):
        return None if span in absent else calls.get(span, 0)

    def secs(span):
        return None if span in absent else seconds.get(span, 0.0)

    trajectories = tracer.flow_results
    steps = sum(t.steps for t in trajectories)
    retries = sum(t.retries for t in trajectories)
    synth = count("spectral.synth")
    return {
        "spectral.synth_calls": synth,
        "spectral.synth_s": secs("spectral.synth"),
        "spectral.project_calls": count("spectral.project"),
        "spectral.project_s": secs("spectral.project"),
        "spectral.build_s": secs("spectral.build"),
        "spectral.operator_mb": None
        if "spectral.build" in absent
        else max(tracer.operator_mb, default=0.0),
        "speeds.value_calls": count("speeds.value"),
        "speeds.value_s": secs("speeds.value"),
        "speeds.trace_gradient_s": secs("speeds.trace_gradient"),
        "body.pinching_s": secs("body.pinching"),
        "body.curvature_calls": count("body.curvature"),
        "body.curvature_s": secs("body.curvature"),
        "body.snapshot_write_s": secs("body.snapshot_write"),
        "body.snapshot_read_s": secs("body.snapshot_read"),
        "geometry.radii_calls": count("geometry.radii"),
        "geometry.radii_s": secs("geometry.radii"),
        "geometry.mixed_volumes_calls": count("geometry.mixed_volumes"),
        "geometry.mixed_volumes_s": secs("geometry.mixed_volumes"),
        "flow.steps": None if "flow.run" in absent else steps,
        "flow.retries": None if "flow.run" in absent else retries,
        "flow.snapshots": None
        if "flow.run" in absent
        else sum(len(t.snapshots) for t in trajectories),
        "flow.accept_ratio": steps / (steps + retries) if steps + retries else None,
        "flow.rhs_per_step": synth / steps if synth is not None and steps else None,
        "flow.run_s": secs("flow.run"),
        "flow.self_s": None if "flow.run" in absent else flow_self,
        "verify.diagnostics_calls": count("verify.diagnostics"),
        "verify.diagnostics_s": secs("verify.diagnostics"),
        "verify.volume_decay_s": secs("verify.volume_decay"),
        "cli.simulate_s": secs("cli.simulate"),
        "cli.verify_s": secs("cli.verify"),
        "cli.analyze_s": secs("cli.analyze"),
        "cli.save_s": secs("cli.save"),
        "cli.load_s": secs("cli.load"),
        "cli.bytes_written": files[0],
        "cli.files_written": files[1],
    }


def write_spans(tracer: Tracer, path) -> None:
    """Write the spans as JSON rows [name, parent index, start s, end s]."""
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    rows = [[name, parent, start - origin, end - origin] for name, parent, start, end in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rows}, fh, separators=(",", ":"))

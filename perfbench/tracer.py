"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded only by wrappers this file installs around the program's
functions, at the module attribute each caller resolves, so nothing inside
``src/`` changes.  A span holds its name, start, end, parent span and op id;
self time is its duration minus the time its child spans cover.  Counts are
taken at the same wrappers.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

# span fields
NAME, START, END, PARENT, OP, SELF = range(6)

ROOT = "cli.main"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.op: Optional[str] = None
        self._open: list[int] = []
        self._child: list[float] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, 0.0])
        self._open.append(idx)
        self._child.append(0.0)
        self.spans[idx][START] = perf_counter()
        return idx

    def exit(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[END] = end
        self._open.pop()
        dur = end - span[START]
        span[SELF] = dur - self._child.pop()
        if self._child:
            self._child[-1] += dur

    def parent_name(self, span: list) -> Optional[str]:
        return self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None


def _wrap(rec: Recorder, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if count is not None:
            count(rec.extra, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


# -- counters taken from arguments and results ----------------------------------


def _expand(extra, args, result) -> None:
    extra["reasoner.nodes"] += result.stats.nodes
    extra["reasoner.pruned"] += result.stats.pruned
    extra["reasoner.scenarios"] += len(result.scenarios)


def _successors(extra, args, result) -> None:
    extra["reasoner.successors_out"] += len(result)


def _render(extra, args, result) -> None:
    extra["facts.render.bytes"] += len(result)


def _parse(extra, args, result) -> None:
    extra["facts.parse.bytes"] += len(args[0])


def _violations(extra, args, result) -> None:
    extra["rules.violations"] += len(result)


def _samples(extra, args, result) -> None:
    extra["abstraction.trace.samples"] += len(args[0])


def _vertices(extra, args, result) -> None:
    extra["opendrive.vertices"] += len(result.points)


def _project_pairs(extra, args, result) -> None:
    line, pts = args[0], args[1]
    extra["geometry.project_points.pairs"] += len(pts) * (len(line.points) - 1)


def _intersection_pairs(extra, args, result) -> None:
    a, b = args
    extra["geometry.polyline_intersections.pairs"] += (len(a.points) - 1) * (len(b.points) - 1)


#: (module, attribute, span name, counter).  ``domain.Scene`` patches the
#: class attribute; every other entry patches a module-level name.
TARGETS = (
    ("cli", "expand", "reasoner.expand", _expand),
    ("cli", "parse_request", "reasoner.parse_request", None),
    ("cli", "check_scenario", "rules.check_scenario", _violations),
    ("cli", "parse_opendrive", "opendrive.parse_opendrive", None),
    ("cli", "NetworkAbstraction", "abstraction.compile", None),
    ("cli", "abstract_trace", "abstraction.trace", _samples),
    ("cli", "emit_osc", "osc.emit_osc", None),
    ("reasoner", "_gen_successors", "reasoner.successor_gen", _successors),
    ("reasoner", "check_scene", "rules.check_scene", None),
    ("reasoner", "check_transition", "rules.check_transition", None),
    ("reasoner", "render_scenario", "facts.render_scenario", _render),
    ("facts", "render_scenario", "facts.render_scenario", _render),
    ("facts", "parse_network", "facts.parse_network", _parse),
    ("facts", "parse_scenarios", "facts.parse_scenarios", _parse),
    ("facts", "render_result", "facts.render_result", None),
    ("rules", "check_scene", "rules.check_scene", None),
    ("rules", "check_transition", "rules.check_transition", None),
    ("abstraction", "NetworkAbstraction", "abstraction.compile", None),
    ("abstraction", "project_points", "geometry.project_points", _project_pairs),
    ("abstraction", "polyline_intersections", "geometry.polyline_intersections", _intersection_pairs),
    ("abstraction", "sample_centerline", "opendrive.sample_centerline", _vertices),
    ("domain.Scene", "__init__", "domain.scene_init", None),
)


def _owner(path: str):
    module, _, cls = path.partition(".")
    mod = importlib.import_module(f"trafficlogic.{module}")
    return getattr(mod, cls) if cls else mod


class Tracing:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        for owner_path, attr, name, count in TARGETS:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.rec, name, original, count))
        return self.rec

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- per-layer metrics -------------------------------------------------------------

#: per-layer metric -> span names whose calls or self time it sums
CALL_METRICS = {
    "rules.check_scene.calls": ("rules.check_scene",),
    "rules.check_transition.calls": ("rules.check_transition",),
    "domain.scene_init.calls": ("domain.scene_init",),
    "reasoner.successor_gen.calls": ("reasoner.successor_gen",),
    "facts.render_scenario.calls": ("facts.render_scenario",),
    "rules.check_scenario.calls": ("rules.check_scenario",),
    "osc.emit_osc.calls": ("osc.emit_osc",),
    "opendrive.parse_opendrive.calls": ("opendrive.parse_opendrive",),
    "opendrive.sample_centerline.calls": ("opendrive.sample_centerline",),
    "geometry.project_points.calls": ("geometry.project_points",),
    "geometry.polyline_intersections.calls": ("geometry.polyline_intersections",),
    "abstraction.compile.calls": ("abstraction.compile",),
}
SELF_METRICS = {
    "rules.check_scene.self_s": ("rules.check_scene",),
    "rules.check_transition.self_s": ("rules.check_transition",),
    "domain.scene_init.self_s": ("domain.scene_init",),
    "reasoner.search.self_s": ("reasoner.expand",),
    "reasoner.successor_gen.self_s": ("reasoner.successor_gen",),
    "reasoner.parse_request.self_s": ("reasoner.parse_request",),
    "facts.render.self_s": ("facts.render_scenario", "facts.render_result"),
    "facts.parse.self_s": ("facts.parse_network", "facts.parse_scenarios"),
    "rules.check_scenario.self_s": ("rules.check_scenario",),
    "osc.emit_osc.self_s": ("osc.emit_osc",),
    "cli.self_s": (ROOT,),
    "opendrive.parse_opendrive.self_s": ("opendrive.parse_opendrive",),
    "opendrive.sample_centerline.self_s": ("opendrive.sample_centerline",),
    "geometry.project_points.self_s": ("geometry.project_points",),
    "geometry.polyline_intersections.self_s": ("geometry.polyline_intersections",),
    "abstraction.compile.self_s": ("abstraction.compile",),
    "abstraction.trace.self_s": ("abstraction.trace",),
}
EXTRA_METRICS = (
    "reasoner.nodes", "reasoner.pruned", "reasoner.scenarios", "reasoner.successors_out",
    "facts.render.bytes", "facts.parse.bytes", "rules.violations", "abstraction.trace.samples",
    "opendrive.vertices", "geometry.project_points.pairs", "geometry.polyline_intersections.pairs",
)


def pass_counts(rec: Recorder) -> dict[str, int]:
    """Deterministic counts of one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    gen_checked = 0
    for span in rec.spans:
        calls[span[NAME]] += 1
        if span[NAME] == "rules.check_scene" and rec.parent_name(span) == "reasoner.successor_gen":
            gen_checked += 1
    out = {m: sum(calls[n] for n in names) for m, names in CALL_METRICS.items()}
    out.update({m: int(rec.extra[m]) for m in EXTRA_METRICS})
    out["reasoner.generator_checked"] = gen_checked
    return out


def pass_self_times(rec: Recorder) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for span in rec.spans:
        total[span[NAME]] += span[SELF]
    return {m: sum(total[n] for n in names) for m, names in SELF_METRICS.items()}


def ratios(counts: dict[str, int]) -> dict[str, float]:
    def div(a: str, b: str) -> float:
        return counts[a] / counts[b] if counts[b] else 0.0

    return {
        "rules.accept_ratio": div("reasoner.successors_out", "reasoner.generator_checked"),
        "reasoner.visits_per_state": div("reasoner.nodes", "reasoner.successor_gen.calls"),
    }


def selfsum_error(rec: Recorder) -> float:
    """Largest gap, over the ops of a pass, between an op's wall time and
    the sum of the self times of its spans."""
    per_op: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = {}
    for span in rec.spans:
        per_op[span[OP]] += span[SELF]
        if span[NAME] == ROOT:
            wall[span[OP]] = span[END] - span[START]
    return max((abs(per_op[op] - w) for op, w in wall.items()), default=0.0)

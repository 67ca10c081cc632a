"""Whole-lane array evaluation gives the scalar references' results, bit for bit.

``sample_centerline`` evaluates a lane's reference line, widths and center
offset over all its arclengths at once, and the map compiler takes its lane
widths from one array evaluation; ``abstract_trace`` projects fronts and rears
only where their ranges are read.  Each is compared with the former routine
kept in ``tests/reference_geometry.py``: on the fixture maps, on a seeded
crossing grid with cubic widths, on random line and arc roads, on the fixture
traces and on random smooth traces.
"""

from __future__ import annotations

import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_geometry import reference_abstract_trace, reference_centerline

from trafficlogic import facts
from trafficlogic.abstraction import (
    AbstractionError,
    AbstractLane,
    NetworkAbstraction,
    TraceSample,
    _corridors,
    abstract_trace,
    read_trace_csv,
)
from trafficlogic.config import Config
from trafficlogic.geometry import Polyline
from trafficlogic.opendrive import (
    LaneSectionSpec,
    LaneSpec,
    MapModel,
    MapParseError,
    RefLineSegment,
    RoadSpec,
    WidthRecord,
    parse_opendrive,
    sample_centerline,
)

DATA = pathlib.Path(__file__).parent / "data"

STEPS = (0.05, 0.1, 0.2, 0.5, 7.0)

_GRID_ROAD = """  <road name="{name}" length="{length}" id="{rid}" junction="-1">
    <planView>
      <geometry s="0.0" x="{x}" y="{y}" hdg="{hdg}" length="{length}"><line/></geometry>
    </planView>
    <lanes>
      <laneSection s="0.0">
        <left>{left}</left>
        <center><lane id="0" type="none" level="false"/></center>
        <right>{right}</right>
      </laneSection>
    </lanes>
  </road>
"""


def crossing_grid(n: int, seed: int) -> str:
    """n horizontal and n vertical two-way roads with seeded positions and cubic widths."""
    rnd = random.Random(seed)

    def lanes(ids) -> str:
        return "".join(
            f'<lane id="{i}" type="driving" level="false"><width sOffset="0.0" '
            f'a="{rnd.uniform(3.0, 3.8)}" b="{rnd.uniform(-4e-3, 4e-3)}" '
            f'c="{rnd.uniform(-4e-5, 4e-5)}" d="{rnd.uniform(-2e-7, 2e-7)}"/></lane>'
            for i in ids
        )

    roads = []
    for k in range(2 * n):
        across = 30.0 * (k % n) + rnd.uniform(0.0, 8.0)
        start = -15.0 - rnd.uniform(0.0, 10.0)
        x, y, hdg = (start, across, 0.0) if k < n else (across, start, math.pi / 2)
        roads.append(_GRID_ROAD.format(
            name=f"g{k + 1}", rid=k + 1, x=x, y=y, hdg=hdg, length=30.0 * n + 30.0,
            left=lanes([1, 2]), right=lanes([-1, -2]),
        ))
    return '<?xml version="1.0"?>\n<OpenDRIVE>\n<header revMajor="1" revMinor="6"/>\n' + "".join(roads) + "</OpenDRIVE>\n"


MAPS = {
    "ex1_straight": (DATA / "ex1_straight.xodr").read_text(),
    "ex5_overlap": (DATA / "ex5_overlap.xodr").read_text(),
    "tee_junction": (DATA / "tee_junction.xodr").read_text(),
    "grid": crossing_grid(3, 13),
}


def assert_lane_matches_reference(road: RoadSpec, lane: AbstractLane, step: float) -> None:
    points, widths = reference_centerline(road, lane.source_lane, step)
    if lane.source_lane > 0:  # left lanes travel against the reference line
        points, widths = points[::-1], widths[::-1]
    assert lane.line.points.tolist() == points.tolist()
    assert lane.widths.tolist() == widths.tolist()


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("name", sorted(MAPS))
def test_compiled_lanes_match_the_scalar_sampler(name, step):
    model = parse_opendrive(MAPS[name])
    abst = NetworkAbstraction(model, Config(sampling_step=step))
    assert abst.lanes
    for lane in abst.lanes.values():
        assert_lane_matches_reference(model.road(lane.source_road), lane, step)


# -- random line and arc roads with cubic widths ------------------------------------

SMALL = st.floats(-0.05, 0.05)


@st.composite
def segments(draw) -> RefLineSegment:
    origin = (draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0)))
    heading = draw(st.floats(-math.pi, math.pi))
    length = draw(st.floats(0.3, 60.0))
    if draw(st.booleans()):
        return RefLineSegment("line", origin, heading, length)
    curvature = draw(st.floats(0.002, 0.2)) * draw(st.sampled_from([-1.0, 1.0]))
    return RefLineSegment("arc", origin, heading, length, curvature)


@st.composite
def lane_specs(draw, side: str, count: int, length: float) -> tuple[LaneSpec, ...]:
    specs = []
    for k in range(1, count + 1):
        offsets = sorted(draw(st.lists(st.floats(0.0, length) | st.just(0.0), min_size=0, max_size=3)))
        records = tuple(
            WidthRecord(
                s_offset=off,
                a=draw(st.floats(0.5, 5.0)),
                b=draw(SMALL),
                c=draw(st.floats(-1e-3, 1e-3)),
                d=draw(st.floats(-1e-5, 1e-5)),
            )
            for off in offsets
        )
        specs.append(LaneSpec(k if side == "left" else -k, side, "driving", records))
    return tuple(specs)


@st.composite
def roads(draw) -> RoadSpec:
    segs = tuple(draw(st.lists(segments(), min_size=1, max_size=4)))
    total = sum(seg.length for seg in segs)
    # the road length may miss the sum of its segments by a rounding error
    length = total * (1.0 + draw(st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 1e-10])))
    section = LaneSectionSpec(
        s=draw(st.sampled_from([0.0, 0.0, 0.5, 3.0])),
        left=draw(lane_specs("left", draw(st.integers(0, 3)), length)),
        right=draw(lane_specs("right", draw(st.integers(0, 3)), length)),
    )
    return RoadSpec("1", length, segs, (section,))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(roads(), st.sampled_from(STEPS) | st.floats(0.05, 80.0))
def test_random_roads_match_the_scalar_sampler(road, step):
    model = MapModel(roads={road.id: road})
    section = road.sections[0]
    for spec in section.all_lanes():
        points, widths = reference_centerline(road, spec.id, step)
        try:
            line = sample_centerline(model, (road.id, spec.id), step)
        except MapParseError:
            with pytest.raises(ValueError):
                Polyline(points)
            continue
        assert line.points.tolist() == points.tolist()
        svals = np.linspace(0.0, road.length, len(line))
        assert spec.width_at(svals - section.s).tolist() == widths.tolist()


# -- trace abstraction ------------------------------------------------------------


def assert_same_abstraction(samples, model) -> None:
    try:
        ref = reference_abstract_trace(samples, None, model)
    except AbstractionError as exc:
        with pytest.raises(type(exc)) as err:
            abstract_trace(samples, None, model)
        assert str(err.value) == str(exc)
        return
    got = abstract_trace(samples, None, model)
    assert got.vehicles == ref.vehicles
    assert got.scenes == ref.scenes
    assert facts.render_scenario(got) == facts.render_scenario(ref)


@pytest.mark.parametrize(
    "trace,xodr",
    [("ex1_overtake_trace.csv", "ex1_straight.xodr"), ("ex5_squeeze_trace.csv", "ex5_overlap.xodr")],
)
def test_fixture_traces_match_the_all_lanes_reference(trace, xodr):
    samples = read_trace_csv((DATA / trace).read_text())
    assert_same_abstraction(samples, parse_opendrive((DATA / xodr).read_bytes()))


MODELS = {name: parse_opendrive(MAPS[name]) for name in ("ex1_straight", "ex5_overlap")}


def _smoothstep(u: float) -> float:
    u = min(max(u, 0.0), 1.0)
    return u * u * (3.0 - 2.0 * u)


@st.composite
def vehicles(draw, name: str, oncoming: bool):
    """One vehicle's rows: constant speed along x, smoothstep lane changes across y.

    An oncoming vehicle drives the ex5 strip (y = -2, x in [30, 70]) the other way.
    """
    length = draw(st.floats(0.0, 6.0))
    if oncoming:
        x0, v, y0, heading = draw(st.floats(32.0, 70.0)), -draw(st.floats(0.0, 6.0)), -2.0, math.pi
        changes = []
    else:
        x0, v, heading = draw(st.floats(2.0, 60.0)), draw(st.floats(0.0, 12.0)), None
        y0 = draw(st.sampled_from([-6.0, -2.0]))
        changes = draw(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.5, 1.5)), max_size=2))

    def at(t: float) -> tuple[float, float, float]:
        y, vy, side = y0, 0.0, y0
        for t0, dur in changes:
            target = -8.0 - side  # -6 <-> -2
            u = (t - t0) / dur
            y += (target - side) * _smoothstep(u)
            if 0.0 < u < 1.0:
                vy += (target - side) * 6.0 * u * (1.0 - u) / dur
            side = target
        h = heading if heading is not None else math.atan2(vy, v) if v or vy else 0.0
        return x0 + v * t, y, h

    return at, length


@st.composite
def traces(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    count = draw(st.integers(1, 3))
    tracks = [
        draw(vehicles(name, oncoming=name == "ex5_overlap" and k == count - 1 and draw(st.booleans())))
        for k in range(count)
    ]
    steps = draw(st.integers(1, 40))
    rows = []
    for k, (at, length) in enumerate(tracks):
        for i in range(steps):
            x, y, h = at(i / 10.0)
            rows.append((i / 10.0, f"c{k + 1}", x, y, h, length))
    order = draw(st.permutations(range(len(rows))))
    samples = [TraceSample(r + 2, *rows[i]) for r, i in enumerate(order)]
    return samples, MODELS[name]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(traces())
def test_random_traces_match_the_all_lanes_reference(trace):
    assert_same_abstraction(*trace)


# -- the corridor of far-apart lanes -------------------------------------------------


def test_far_apart_lanes_make_no_projection():
    la = AbstractLane("l1", "r1", "1", -1, Polyline([(0.0, 0.0), (10.0, 0.0)]), np.full(2, 3.5))
    lb = AbstractLane("l2", "r2", "2", -1, Polyline([(0.0, 50.0), (10.0, 50.0)]), np.full(2, 3.5))
    s_b, diff, corridor = _corridors([la], lb, Config())[0]
    assert corridor.tolist() == [False, False]
    assert len(s_b) == len(diff) == 2
    assert np.isnan(s_b).all()
    near = AbstractLane("l3", "r3", "3", -1, Polyline([(-5.0, 1.0), (15.0, 1.0)]), np.full(2, 3.5))
    assert _corridors([la], near, Config())[0][2].tolist() == [True, True]

"""Grid culling in the map compiler gives the all-pairs results, bit for bit.

``polyline_intersections`` tests only the segment pairs the grid pairs up,
``overlap_corridor`` projects each vertex only onto the segments within
reach, and the compiler skips the lane pairs the map-wide grid finds far
apart.  All are compared with the all-pairs routines kept in
``tests/reference_geometry.py``: on random polylines (hairpins, sharp corners,
near-parallel, touching and just-meeting pairs), on every lane pair of the
fixture maps and seeded crossing grids, and on the facts and coordinates
compiled from them.
"""

from __future__ import annotations

import itertools
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from reference_geometry import reference_corridor, reference_intersections, reference_network_texts
from test_arrays import crossing_grid

from trafficlogic.abstraction import AbstractLane, NetworkAbstraction, overlap_corridor
from trafficlogic.config import Config
from trafficlogic import geometry
from trafficlogic.geometry import Polyline, near_lines, polyline_intersections, project_points
from trafficlogic.opendrive import parse_opendrive

DATA = pathlib.Path(__file__).parent / "data"

COORD = st.floats(-20.0, 20.0)
SEGMENT = st.floats(0.5, 6.0)
ANY_TURN = st.floats(-0.99 * math.pi, 0.99 * math.pi)
SHARP_TURN = st.floats(math.pi / 6, 0.99 * math.pi) | st.floats(-0.99 * math.pi, -math.pi / 6)
HAIRPIN_TURN = st.floats(math.pi / 2, 0.99 * math.pi) | st.floats(-0.99 * math.pi, -math.pi / 2)


@st.composite
def turning_lines(draw, turns=ANY_TURN) -> Polyline:
    """A polyline of 1-6 segments, each turning from the last by a drawn angle."""
    x, y = draw(COORD), draw(COORD)
    h = draw(st.floats(-math.pi, math.pi))
    pts = [(x, y)]
    for k in range(draw(st.integers(1, 6))):
        if k:
            h += draw(turns)
        step = draw(SEGMENT)
        x, y = x + step * math.cos(h), y + step * math.sin(h)
        pts.append((x, y))
    return Polyline(pts)


def distinct_line(pts) -> Polyline:
    """A polyline through ``pts``; the example is dropped if two vertices coincide."""
    try:
        return Polyline(pts)
    except ValueError:
        reject()


@st.composite
def widths_for(draw, line: Polyline) -> np.ndarray:
    """Lane widths at the vertices: mostly constant, as on real roads, sometimes varying."""
    width = st.floats(1.0, 5.0)
    if draw(st.integers(0, 3)):
        return np.full(len(line), draw(width))
    return np.array([draw(width) for _ in range(len(line))])


@st.composite
def lanes_around(draw, turns) -> tuple[AbstractLane, AbstractLane, Config]:
    """Lane ``b`` turns by drawn angles; lane ``a`` wanders around its vertices and segments."""
    b = draw(turning_lines(turns))
    pts = []
    for _ in range(draw(st.integers(2, 10))):
        if draw(st.booleans()):
            base = b.points[draw(st.integers(0, len(b) - 1))]
        else:
            base = np.array(b.point_at(draw(st.floats(0.0, b.length))))
        r, phi = draw(st.floats(0.0, 4.0)), draw(st.floats(-math.pi, math.pi))
        pts.append(base + r * np.array([math.cos(phi), math.sin(phi)]))
    a = distinct_line(pts)
    la = AbstractLane("l1", "r1", "1", -1, a, draw(widths_for(a)))
    lb = AbstractLane("l2", "r2", "2", -1, b, draw(widths_for(b)))
    cfg = Config(
        overlap_corridor_factor=draw(st.floats(0.1, 1.5)),
        intersection_tolerance=draw(st.floats(0.01, 2.0)),
    )
    return la, lb, cfg


@st.composite
def corner_lanes(draw) -> tuple[AbstractLane, AbstractLane, Config]:
    """Lane ``b`` turns left once, by less than 90 degrees; lane ``a`` starts outside the corner.

    A vertex in the wedge outside the corner projects onto the corner itself;
    it can be in the corridor up to factor * width / cos(turn) away from it.
    """
    turn = draw(st.floats(math.pi / 12, 0.49 * math.pi))
    h0 = draw(st.floats(-math.pi, math.pi))
    u0 = np.array([math.cos(h0), math.sin(h0)])
    u1 = np.array([math.cos(h0 + turn), math.sin(h0 + turn)])
    corner = np.array([draw(COORD), draw(COORD)])
    b = Polyline([corner - draw(SEGMENT) * u0, corner, corner + draw(SEGMENT) * u1])
    width = draw(st.floats(1.0, 5.0))
    cfg = Config(overlap_corridor_factor=draw(st.floats(0.1, 1.5)))
    # between the right normals of the two segments
    phi = h0 - math.pi / 2 + draw(st.floats(0.0, turn))
    reach = cfg.overlap_corridor_factor * width / math.cos(turn)
    start = corner + draw(st.floats(0.0, 1.2)) * reach * np.array([math.cos(phi), math.sin(phi)])
    psi = draw(st.floats(-math.pi, math.pi))
    a = distinct_line([start, start + draw(SEGMENT) * np.array([math.cos(psi), math.sin(psi)])])
    la = AbstractLane("l1", "r1", "1", -1, a, np.full(len(a), width))
    lb = AbstractLane("l2", "r2", "2", -1, b, np.full(len(b), width))
    return la, lb, cfg


def assert_same_corridor(la: AbstractLane, lb: AbstractLane, cfg: Config) -> None:
    s_b, diff, corridor = overlap_corridor(la, lb, cfg)
    ref_s, ref_diff, ref_corridor = reference_corridor(la, lb, cfg)
    assert corridor.tolist() == ref_corridor.tolist()
    assert s_b[corridor].tolist() == ref_s[corridor].tolist()
    assert diff[corridor].tolist() == ref_diff[corridor].tolist()


def assert_same_crossings(a: Polyline, b: Polyline) -> None:
    assert polyline_intersections(a, b) == reference_intersections(a, b)
    assert polyline_intersections(b, a) == reference_intersections(b, a)


class TestCorridor:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(corner_lanes())
    def test_vertex_outside_a_corner(self, lanes):
        assert_same_corridor(*lanes)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(lanes_around(SHARP_TURN))
    def test_sharp_corners(self, lanes):
        assert_same_corridor(*lanes)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(lanes_around(HAIRPIN_TURN))
    def test_hairpins(self, lanes):
        assert_same_corridor(*lanes)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(lanes_around(ANY_TURN))
    def test_any_turns(self, lanes):
        assert_same_corridor(*lanes)


class TestCrossings:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(turning_lines(), turning_lines(HAIRPIN_TURN))
    def test_random_and_hairpin_polylines(self, a, b):
        assert_same_crossings(a, b)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        turning_lines(),
        st.floats(-1e-3, 1e-3),
        st.floats(-1e-6, 1e-6),
        st.floats(0.0, 1.0),
        st.booleans(),
    )
    def test_near_parallel_and_touching(self, a, angle, shift, frac, touching):
        if touching:  # b starts on a and leaves it at a small angle
            start = np.array(a.point_at(frac * a.length))
            h = float(a.heading_at(frac * a.length)) + angle + math.pi / 3
            b = distinct_line([start, start + 5.0 * np.array([math.cos(h), math.sin(h)])])
        else:  # b is a turned by a small angle about its first vertex, then shifted
            c, s = math.cos(angle), math.sin(angle)
            rel = a.points - a.points[0]
            b = distinct_line(a.points[0] + rel @ np.array([[c, s], [-s, c]]) + shift)
        assert_same_crossings(a, b)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        turning_lines(),
        turning_lines(),
        st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7]),
        st.integers(0, 1),
        st.just(0.0) | st.floats(-3.0, 3.0),
    )
    def test_boxes_that_just_meet(self, a, b, gap, axis, slide):
        """b's box starts where a's box ends, plus a tiny gap, along one axis.

        Without a slide across that axis, the two extreme vertices touch.
        """
        offset = a.points[np.argmax(a.points[:, axis])] - b.points[np.argmin(b.points[:, axis])]
        offset[axis] += gap
        offset[1 - axis] += slide
        assert_same_crossings(a, Polyline(b.points + offset))


class TestNearLines:
    """The map-wide grid leaves out no lane pair that a projection or a crossing test would find."""

    @pytest.mark.parametrize("run", [1, 2, geometry.NEAR_RUN])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(turning_lines(), min_size=2, max_size=5), st.data())
    def test_no_near_pair_is_left_out(self, run, lines, data):
        """A pair left out has every vertex out of reach and no crossing.

        A reach is drawn, infinite, or the distance of a vertex of another
        line, so that some vertex lies exactly at the reach.
        """
        reach = []
        for j, b in enumerate(lines):
            a = lines[data.draw(st.sampled_from([i for i in range(len(lines)) if i != j]))]
            exact = float(project_points(b, a.points)[2][data.draw(st.integers(0, len(a) - 1))])
            reach.append(data.draw(st.sampled_from([exact, math.inf]) | st.floats(0.0, 6.0)))
        with mock.patch.object(geometry, "NEAR_RUN", run):
            near, meet = near_lines(lines, reach)
        for i, j in itertools.permutations(range(len(lines)), 2):
            if (i, j) not in near:
                assert np.isinf(project_points(lines[j], lines[i].points, reach[j])[2]).all()
            if i < j and (i, j) not in meet:
                assert reference_intersections(lines[i], lines[j]) == []


FIXTURES = ("ex1_straight", "ex5_overlap", "tee_junction")
MAPS = {name: (DATA / f"{name}.xodr").read_text() for name in FIXTURES}
MAPS.update({f"grid{n}x{n}-{seed}": crossing_grid(n, seed) for n in (3, 5) for seed in (13, 29)})
#: the crossing grids' 24 and 40 lanes make hundreds of lane pairs, so they
#: are sampled coarsely enough for the all-pairs references to stay quick
CASES = [(name, step) for name in FIXTURES for step in (0.5, 0.2, 0.1)] + [
    (f"grid{n}x{n}-{seed}", step) for n, step in ((3, 1.0), (5, 2.0)) for seed in (13, 29)
]


@pytest.mark.parametrize(("name", "step"), CASES)
def test_fixture_lane_pairs_match_the_reference(name, step):
    cfg = Config(sampling_step=step)
    model = parse_opendrive(MAPS[name])
    abst = NetworkAbstraction(model, cfg)
    for la, lb in itertools.combinations(abst.lanes.values(), 2):
        assert_same_crossings(la.line, lb.line)
        assert_same_corridor(la, lb, cfg)
        assert_same_corridor(lb, la, cfg)
    assert (abst.facts_text(), abst.coords_text()) == reference_network_texts(model, cfg)

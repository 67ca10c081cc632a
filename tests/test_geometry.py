"""Metric kernel: projections, intersections, angle helpers.

Straight lines and circular arcs have closed-form projections, so the
polyline-based routines are validated against those forms at tolerances
well inside the acceptance budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trafficlogic import geometry
from trafficlogic.geometry import (
    FrenetPose,
    Polyline,
    angle_difference,
    frenet_project,
    polyline_intersections,
    project_points,
)

X_AXIS = Polyline([(0.0, 0.0), (10.0, 0.0)])


def arc_polyline(radius: float, start: float, end: float, n: int = 2000) -> Polyline:
    th = np.linspace(start, end, n)
    return Polyline(np.column_stack([radius * np.cos(th), radius * np.sin(th)]))


def reference_project(line: Polyline, p) -> tuple[float, float]:
    """Scalar closed-form projection onto each segment, minimum taken.

    Independent of the vectorized implementation: plain Python floats,
    explicit smallest-s tie-breaking.
    """
    px, py = float(p[0]), float(p[1])
    best = None
    for i in range(len(line) - 1):
        ax, ay = line.points[i]
        bx, by = line.points[i + 1]
        vx, vy = bx - ax, by - ay
        vv = vx * vx + vy * vy
        t = min(max(((px - ax) * vx + (py - ay) * vy) / vv, 0.0), 1.0)
        fx, fy = ax + t * vx, ay + t * vy
        e2 = (px - fx) ** 2 + (py - fy) ** 2
        if best is None or e2 < best[0] - 1e-15:
            s = float(line.arclength[i]) + t * math.sqrt(vv)
            d = (vx * (py - ay) - vy * (px - ax)) / math.sqrt(vv)
            best = (e2, s, d)
    assert best is not None
    return best[1], best[2]


class TestPolyline:
    def test_needs_two_distinct_points(self):
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0)])
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0), (0.0, 0.0)])

    def test_arclength_and_interpolation(self):
        line = Polyline([(0, 0), (3, 0), (3, 4)])
        assert line.length == pytest.approx(7.0)
        assert line.point_at(3.0) == pytest.approx((3.0, 0.0))
        assert line.point_at(5.0) == pytest.approx((3.0, 2.0))
        assert line.point_at(99.0) == pytest.approx((3.0, 4.0))  # clamped
        assert line.heading_at(1.0) == pytest.approx(0.0)
        assert line.heading_at(6.0) == pytest.approx(math.pi / 2)

    def test_reversed_flips_direction(self):
        line = Polyline([(0, 0), (10, 0)])
        rev = line.reversed()
        assert rev.point_at(0.0) == pytest.approx((10.0, 0.0))
        assert frenet_project(rev, (3.0, 2.0)).d == pytest.approx(-2.0)


class TestFrenetProjection:
    def test_straight_line_examples(self):
        assert frenet_project(X_AXIS, (3.0, 2.0)) == FrenetPose(3.0, 2.0)
        assert frenet_project(X_AXIS, (3.0, -2.0)) == FrenetPose(3.0, -2.0)

    def test_clamping_keeps_axis_points_on_axis(self):
        pose = frenet_project(X_AXIS, (12.0, 0.0))
        assert pose.s == pytest.approx(10.0)
        assert pose.d == pytest.approx(0.0)
        before = frenet_project(X_AXIS, (-5.0, 1.0))
        assert before.s == pytest.approx(0.0)
        assert before.d == pytest.approx(1.0)

    def test_random_points_against_straight_closed_form(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform([-1.0, -5.0], [11.0, 5.0], size=(500, 2))
        s, d, _ = project_points(X_AXIS, pts)
        np.testing.assert_allclose(s, np.clip(pts[:, 0], 0.0, 10.0), atol=1e-9)
        np.testing.assert_allclose(d, pts[:, 1], atol=1e-9)

    def test_random_points_against_scalar_reference_on_arc(self):
        arc = arc_polyline(40.0, 0.0, math.pi / 2, n=200)
        rng = np.random.default_rng(8)
        theta = rng.uniform(0.05, math.pi / 2 - 0.05, size=300)
        r = rng.uniform(35.0, 45.0, size=300)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        s, d, _ = project_points(arc, pts)
        for k, p in enumerate(pts):
            rs, rd = reference_project(arc, p)
            assert s[k] == pytest.approx(rs, abs=1e-6)
            assert d[k] == pytest.approx(rd, abs=1e-6)

    def test_arc_approximates_smooth_closed_form(self):
        # chord sampling converges to the smooth arc; tolerance tracks the
        # dominant error term d * step / (2 * radius)
        radius = 40.0
        arc = arc_polyline(radius, 0.0, math.pi / 2, n=2000)
        rng = np.random.default_rng(9)
        theta = rng.uniform(0.05, math.pi / 2 - 0.05, size=400)
        r = rng.uniform(35.0, 45.0, size=400)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        s, d, _ = project_points(arc, pts)
        # counter-clockwise arc: centre is on the left, so d = radius - r
        np.testing.assert_allclose(s, radius * theta, atol=5e-3)
        np.testing.assert_allclose(d, radius - r, atol=5e-3)

    def test_points_on_the_polyline_project_exactly(self):
        arc = arc_polyline(40.0, 0.0, math.pi / 2, n=500)
        for frac in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
            target = frac * arc.length
            pose = frenet_project(arc, arc.point_at(target))
            assert pose.s == pytest.approx(target, abs=1e-9)
            assert pose.d == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("block_pairs", [1, 7, 199, 200, 201, 4000])
    def test_blocked_projection_is_bit_identical(self, block_pairs, monkeypatch):
        """Splitting a call into blocks of points changes no bit of its result."""
        arc = arc_polyline(40.0, 0.0, math.pi, n=201)  # 200 segments
        rng = np.random.default_rng(10)
        pts = rng.uniform(-50.0, 50.0, size=(301, 2))
        pts[::60] = arc.points[::40]  # six points exactly on vertices
        whole = project_points(arc, pts)
        monkeypatch.setattr(geometry, "PROJECT_BLOCK_PAIRS", block_pairs)
        blocked = project_points(arc, pts)
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and a.shape == b.shape == (301,)
            assert a.tobytes() == b.tobytes()

    def test_tie_breaks_toward_smaller_arclength(self):
        hairpin = Polyline([(0, 0), (10, 0), (10, 2), (0, 2)])
        pose = frenet_project(hairpin, (5.0, 1.0))
        assert pose.s == pytest.approx(5.0)
        assert pose.d == pytest.approx(1.0)

    @given(
        st.floats(-20, 40),
        st.floats(-20, 20),
    )
    def test_projection_distance_is_a_lower_bound(self, x, y):
        s, d, e = project_points(X_AXIS, [(x, y)])
        foot = X_AXIS.point_at(float(s[0]))
        assert e[0] == pytest.approx(math.hypot(x - foot[0], y - foot[1]), abs=1e-9)
        assert abs(d[0]) <= e[0] + 1e-9


class TestIntersections:
    def test_polyline_crossing_reports_arclengths(self):
        a = Polyline([(0, -5), (0, 5)])
        b = Polyline([(-5, 0), (5, 0)])
        hits = polyline_intersections(a, b)
        assert len(hits) == 1
        sa, sb, (x, y) = hits[0]
        assert sa == pytest.approx(5.0)
        assert sb == pytest.approx(5.0)
        assert (x, y) == pytest.approx((0.0, 0.0))

    def test_polyline_double_crossing(self):
        wiggle = Polyline([(0, -1), (2, 1), (4, -1)])
        base = Polyline([(-1, 0), (5, 0)])
        hits = polyline_intersections(wiggle, base)
        assert len(hits) == 2
        assert hits[0][0] < hits[1][0]

    def test_non_crossing_polylines(self):
        a = Polyline([(0, 1), (10, 1)])
        b = Polyline([(0, -1), (10, -1)])
        assert polyline_intersections(a, b) == []


class TestAngles:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (0.0, 0.0, 0.0),
            (math.pi / 2, 0.0, math.pi / 2),
            (0.0, math.pi / 2, math.pi / 2),
            (3.0, -3.0, 2 * math.pi - 6.0),
        ],
    )
    def test_known_differences(self, a, b, expected):
        assert angle_difference(a, b) == pytest.approx(expected)

    def test_wraps_across_pi(self):
        assert angle_difference(math.pi - 0.1, -math.pi + 0.1) == pytest.approx(0.2)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_result_is_absolute_and_principal(self, a, b):
        d = angle_difference(a, b)
        assert 0.0 <= d <= math.pi
        assert math.cos(d) == pytest.approx(math.cos(a - b), abs=1e-9)
        assert d == pytest.approx(angle_difference(b, a), abs=1e-9)

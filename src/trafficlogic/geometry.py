"""Planar geometry kernel: polylines, Frenet projection, intersections.

Everything in this module is metric and coordinate-based; the qualitative
layer never imports it.  Conventions: distances in meters, angles in
radians, and the signed lateral offset ``d`` is positive on the *left* of
the direction of travel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrenetPose",
    "Polyline",
    "frenet_project",
    "project_points",
    "polyline_intersections",
    "angle_difference",
]


@dataclass(frozen=True)
class FrenetPose:
    """Position relative to a directed curve.

    ``s`` is the arclength of the closest point on the curve (clamped to
    its ends) and ``d`` the signed lateral distance, positive left.
    """

    s: float
    d: float


class Polyline:
    """An ordered planar chain of points with cumulative arclength.

    The chain is directed: heading and the sign of lateral offsets follow
    the vertex order.  Vertices must be finite and distinct so that the
    arclength is strictly increasing.  The heading of every segment and the
    bounding box ``bbox = [[xmin, ymin], [xmax, ymax]]`` are computed once,
    here.
    """

    __slots__ = ("points", "arclength", "headings", "bbox")

    def __init__(self, points) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least two planar points")
        if not np.isfinite(pts).all():
            raise ValueError("polyline vertices must be finite")
        v = np.diff(pts, axis=0)
        seg = np.linalg.norm(v, axis=1)
        if np.any(seg <= 0.0):
            raise ValueError("polyline vertices must be distinct")
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self.points = pts
        self.arclength = cum
        # math.atan2, not np.arctan2: the two differ in the last ulp on some
        # segments, and headings decide overlap and occupancy classes
        self.headings = np.array(list(map(math.atan2, v[:, 1].tolist(), v[:, 0].tolist())))
        self.bbox = np.array([pts.min(axis=0), pts.max(axis=0)])

    @property
    def length(self) -> float:
        return float(self.arclength[-1])

    def point_at(self, s: float) -> tuple[float, float]:
        """Interpolated point at arclength ``s`` (clamped to the ends)."""
        s = min(max(s, 0.0), self.length)
        x = float(np.interp(s, self.arclength, self.points[:, 0]))
        y = float(np.interp(s, self.arclength, self.points[:, 1]))
        return (x, y)

    def heading_at(self, s) -> np.ndarray:
        """Heading of the segment containing each arclength in ``s`` (clamped to the ends)."""
        s = np.clip(np.asarray(s, dtype=float), 0.0, self.length)
        i = np.searchsorted(self.arclength, s, side="right") - 1
        return self.headings[np.clip(i, 0, len(self.headings) - 1)]

    def near_box(self, pts, reach: float) -> np.ndarray:
        """Which of ``pts`` lie within ``reach`` of the bounding box, along each axis.

        The box also grows by :func:`_slack`, so a point whose computed
        distance to the polyline is at most ``reach`` is never left out.
        """
        pts = np.asarray(pts, dtype=float)
        return _boxes_meet(pts, pts, self.bbox[0], self.bbox[1], reach + _slack(self.bbox, pts))

    def reversed(self) -> "Polyline":
        return Polyline(self.points[::-1].copy())

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _slack(*coords: np.ndarray) -> float:
    """Box growth that makes bounding-box culling exact.

    It covers the 1e-9 parameter tolerance of a crossing (a segment is at
    most 3 times the largest coordinate long) and floating-point rounding
    at the coordinate scale, with orders of magnitude to spare.
    """
    return 1e-6 * (1.0 + max(float(np.abs(c).max()) for c in coords))


#: Most (point, segment) pairs `project_points` works on at once: a larger
#: call is split into blocks of whole points, which bounds its memory by
#: this many pairs instead of points times segments.  2**16 holds every call
#: the benchmark makes (at most 201 x 200 pairs) in one block.
PROJECT_BLOCK_PAIRS = 1 << 16


def project_points(line: Polyline, pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Frenet projection of many points onto ``line``.

    Returns ``(s, d, e)`` arrays: clamped arclength, *signed lateral*
    offset (the cross-track component relative to the closest segment, so
    a point past an end of the polyline but on its axis has d = 0), and
    the euclidean distance to the clamped projection point.  Ties between
    equidistant segments are broken in favour of the smallest ``s``.
    Points are projected in blocks of at most `PROJECT_BLOCK_PAIRS` pairs;
    each point's values do not depend on the others.
    """
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    rows = max(1, PROJECT_BLOCK_PAIRS // (len(line.points) - 1))
    if len(p) <= rows:
        return _project_block(line, p)
    blocks = [_project_block(line, p[i : i + rows]) for i in range(0, len(p), rows)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _project_block(line: Polyline, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`project_points` of the (P, 2) array ``p``, all at once."""
    a = line.points[:-1]  # (M, 2)
    v = np.diff(line.points, axis=0)  # (M, 2)
    vv = np.einsum("ij,ij->i", v, v)  # (M,)
    w = p[:, None, :] - a[None, :, :]  # (P, M, 2)
    t = np.clip(np.einsum("pmi,mi->pm", w, v) / vv, 0.0, 1.0)  # (P, M)
    proj = a[None, :, :] + t[..., None] * v[None, :, :]  # (P, M, 2)
    diff = p[:, None, :] - proj
    dist2 = np.einsum("pmi,pmi->pm", diff, diff)
    best = np.argmin(dist2, axis=1)  # first minimum -> smallest s
    rows = np.arange(p.shape[0])
    tb = t[rows, best]
    s = line.arclength[best] + tb * np.sqrt(vv[best])
    vb = v[best]
    wb = p - a[best]
    d = (vb[:, 0] * wb[:, 1] - vb[:, 1] * wb[:, 0]) / np.sqrt(vv[best])
    e = np.sqrt(dist2[rows, best])
    return s, d, e


def frenet_project(line: Polyline, p) -> FrenetPose:
    """Project one point onto ``line``; see :class:`FrenetPose`."""
    s, d, _ = project_points(line, [p])
    return FrenetPose(float(s[0]), float(d[0]))


def polyline_intersections(a: Polyline, b: Polyline) -> list[tuple[float, float, tuple[float, float]]]:
    """All crossings between two polylines as ``(s_a, s_b, point)`` triples.

    Only segment pairs whose bounding boxes meet are tested, vectorized over
    those pairs; the boxes grow by :func:`_slack`, so no crossing is lost.
    Near-parallel segment pairs are skipped (coincident stretches are the
    overlap detector's business, not the crossing detector's).
    """
    pa = a.points
    pb = b.points
    eps = _slack(a.bbox, b.bbox)
    lo_a, hi_a = np.minimum(pa[:-1], pa[1:]), np.maximum(pa[:-1], pa[1:])
    lo_b, hi_b = np.minimum(pb[:-1], pb[1:]), np.maximum(pb[:-1], pb[1:])
    ia = np.flatnonzero(_boxes_meet(lo_a, hi_a, b.bbox[0], b.bbox[1], eps))
    jb = np.flatnonzero(_boxes_meet(lo_b, hi_b, a.bbox[0], a.bbox[1], eps))
    meet = _boxes_meet(lo_a[ia, None], hi_a[ia, None], lo_b[None, jb], hi_b[None, jb], eps)
    rows, cols = np.nonzero(meet)  # row-major, so pairs keep the (i, j) order
    i, j = ia[rows], jb[cols]
    a0 = pa[i]
    va = pa[i + 1] - a0
    b0 = pb[j]
    vb = pb[j + 1] - b0
    denom = va[:, 0] * vb[:, 1] - va[:, 1] * vb[:, 0]
    seg_a = np.linalg.norm(va, axis=1)
    seg_b = np.linalg.norm(vb, axis=1)
    ok = np.abs(denom) > 1e-12 * np.maximum(seg_a * seg_b, 1e-12)
    q = b0 - a0
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (q[:, 0] * vb[:, 1] - q[:, 1] * vb[:, 0]) / denom
        tb = (q[:, 0] * va[:, 1] - q[:, 1] * va[:, 0]) / denom
    tol = 1e-9
    hit = ok & (ta >= -tol) & (ta <= 1.0 + tol) & (tb >= -tol) & (tb <= 1.0 + tol)
    out: list[tuple[float, float, tuple[float, float]]] = []
    for k in np.flatnonzero(hit):
        t1 = min(max(float(ta[k]), 0.0), 1.0)
        t2 = min(max(float(tb[k]), 0.0), 1.0)
        s_a = float(a.arclength[i[k]] + t1 * seg_a[k])
        s_b = float(b.arclength[j[k]] + t2 * seg_b[k])
        x = float(a0[k, 0] + t1 * va[k, 0])
        y = float(a0[k, 1] + t1 * va[k, 1])
        out.append((s_a, s_b, (x, y)))
    out.sort(key=lambda r: (r[0], r[1]))
    return out


def _boxes_meet(lo1, hi1, lo2, hi2, slack: float) -> np.ndarray:
    """Do boxes ``[lo1, hi1]`` and ``[lo2, hi2]`` come within ``slack`` of each other?

    The corners broadcast against each other; the last axis is (x, y).
    """
    return np.all((lo1 <= hi2 + slack) & (hi1 >= lo2 - slack), axis=-1)


def angle_difference(a, b) -> np.ndarray:
    """Absolute angular difference in ``[0, pi]``, elementwise."""
    d = np.subtract(a, b) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)

"""Planar geometry kernel: polylines, Frenet projection, intersections.

Everything in this module is metric and coordinate-based; the qualitative
layer never imports it.  Conventions: distances in meters, angles in
radians, and the signed lateral offset ``d`` is positive on the *left* of
the direction of travel.

Projections and crossings share one exact broad phase, a uniform grid over
segment bounding boxes (Ericson, *Real-Time Collision Detection*, 2004,
ch. 7).  A box grown by a reach is entered in every grid cell it covers;
a point or box is paired only with the boxes of the cells it covers, and
each pair is then kept only if the two boxes really meet.  Boxes grow by
:func:`_slack` on top of any reach, so no pair whose computed distance is
within the reach is ever left out: culling changes no bit of any result.
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
    "near_lines",
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
    arclength is strictly increasing.  The heading of every segment, the
    bounding box ``bbox = [[xmin, ymin], [xmax, ymax]]`` and the bounding
    boxes of the segments, ``boxes = [xmin, ymin, xmax, ymax]`` (rows of one
    value per segment), are computed once, here.
    """

    __slots__ = ("points", "arclength", "headings", "bbox", "boxes")

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
        self.boxes = np.concatenate([np.minimum(pts[:-1], pts[1:]).T, np.maximum(pts[:-1], pts[1:]).T])

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

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _slack(*coords: np.ndarray) -> float:
    """Box growth that makes bounding-box culling exact.

    It covers the 1e-9 parameter tolerance of a crossing (a segment is at
    most 3 times the largest coordinate long) and floating-point rounding
    at the coordinate scale, with orders of magnitude to spare.
    """
    return 1e-6 * (1.0 + max(float(np.abs(c).max()) for c in coords))


#: Most grid cells along one axis: it keeps every cell key inside int64.
_MAX_CELLS = 1 << 24

#: Most (query, box) pairs `_grid_pairs` tests directly, without the grid.
GRID_MIN_PAIRS = 1 << 12


def _grid_pairs(query: np.ndarray, boxes: np.ndarray, grow) -> tuple[np.ndarray, np.ndarray]:
    """The ``(query, box)`` index pairs whose boxes meet once ``boxes`` grow by ``grow``.

    Boxes are rows ``[xmin, ymin, xmax, ymax]`` of one value per box; the
    queries are such boxes too, or points, rows ``[x, y]``.  ``grow`` is a
    finite scalar or one value per box.  First each side keeps only what
    meets the other side's bounding box.  When at most `GRID_MIN_PAIRS`
    pairs are left, each is tested.  Otherwise the grown boxes are entered
    in the cells of a uniform grid whose cell is their mean extent, and a
    query is tested only against the boxes of the cells it covers.  A pair
    found in several cells is kept in one of them only: the cell where the
    overlap of the two boxes begins.  The pairs come in increasing query
    order; a point query's boxes come in increasing order.
    """
    x0, y0, x1, y1 = boxes[0] - grow, boxes[1] - grow, boxes[2] + grow, boxes[3] + grow
    points = len(query) == 2
    qx0, qy0, qx1, qy1 = (query[0], query[1], query[0], query[1]) if points else query
    q = np.flatnonzero((qx0 <= x1.max()) & (qx1 >= x0.min()) & (qy0 <= y1.max()) & (qy1 >= y0.min()))
    if not len(q):
        return q, q
    qx0, qy0, qx1, qy1 = qx0[q], qy0[q], qx1[q], qy1[q]
    b = np.flatnonzero((x0 <= qx1.max()) & (x1 >= qx0.min()) & (y0 <= qy1.max()) & (y1 >= qy0.min()))
    x0, y0, x1, y1 = x0[b], y0[b], x1[b], y1[b]
    if len(q) * len(b) <= GRID_MIN_PAIRS:
        meet = (qx0[:, None] <= x1) & (qx1[:, None] >= x0) & (qy0[:, None] <= y1) & (qy1[:, None] >= y0)
        qi, bi = np.nonzero(meet)  # row-major: in (query, box) order
        return q[qi], b[bi]
    ox, oy = x0.min(), y0.min()
    nx, ny = x1.max() - ox, y1.max() - oy
    size = max(float(np.maximum(x1 - x0, y1 - y0).mean()), max(nx, ny) / _MAX_CELLS)
    nx, ny = nx // size, ny // size  # the last cell along each axis

    def cells(x, y):
        """The grid cell of each corner ``(x, y)``, clamped to the grid."""
        cx = np.clip((x - ox) // size, 0.0, nx).astype(np.int64)
        return cx, np.clip((y - oy) // size, 0.0, ny).astype(np.int64)

    def entries(cx0, cy0, cx1, cy1):
        """Per covered cell: the row of the box covering it, and the cell's key."""
        wide = cy1 - cy0 + 1
        count = (cx1 - cx0 + 1) * wide
        row = np.repeat(np.arange(len(cx0)), count)
        k = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        return row, (cx0[row] + k // wide[row]) * rows + cy0[row] + k % wide[row]

    rows = int(ny) + 1
    bx, by = cells(x0, y0)
    b_row, b_key = entries(bx, by, *cells(x1, y1))
    order = np.argsort(b_key, kind="stable")
    b_row, b_key = b_row[order], b_key[order]
    qx, qy = cells(qx0, qy0)
    if points:
        q_row, q_key = np.arange(len(q)), qx * rows + qy
    else:
        q_row, q_key = entries(qx, qy, *cells(qx1, qy1))
    first = np.searchsorted(b_key, q_key, side="left")
    count = np.searchsorted(b_key, q_key, side="right") - first
    entry = np.repeat(np.arange(len(q_key)), count)
    qi = q_row[entry]
    bi = b_row[first[entry] + np.arange(len(entry)) - np.repeat(np.cumsum(count) - count, count)]
    if not points:
        # the overlap of two boxes begins in the cell of the larger lower corner
        keep = np.maximum(qx[qi], bx[bi]) * rows + np.maximum(qy[qi], by[bi]) == q_key[entry]
        qi, bi = qi[keep], bi[keep]
    meet = (qx0[qi] <= x1[bi]) & (qx1[qi] >= x0[bi]) & (qy0[qi] <= y1[bi]) & (qy1[qi] >= y0[bi])
    return q[qi[meet]], b[bi[meet]]


#: Most (point, segment) pairs an all-segments projection works on at once:
#: a larger call is split into blocks of whole points, which bounds its
#: memory by this many pairs instead of points times segments.
PROJECT_BLOCK_PAIRS = 1 << 16


def project_points(line: Polyline, pts, reach: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Frenet projection of many points onto ``line``.

    Returns ``(s, d, e)`` arrays: clamped arclength, *signed lateral*
    offset (the cross-track component relative to the closest segment, so
    a point past an end of the polyline but on its axis has d = 0), and
    the euclidean distance to the clamped projection point.  Ties between
    equidistant segments are broken in favour of the smallest ``s``.

    ``reach`` bounds the distances of interest.  A point within ``reach``
    of ``line``, widened by the rounding slack :func:`_slack` of the call's
    coordinates, gets exactly the projection onto its nearest segment among
    all segments, though it is projected only onto the segments whose boxes,
    grown by ``reach`` and twice the slack, hold it.  Any other point is
    *out of reach*: its ``s`` and ``d`` are nan and its ``e`` is inf.  With
    an infinite reach every segment is a candidate, in blocks of whole
    points of at most `PROJECT_BLOCK_PAIRS` pairs.
    """
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    m = len(line.points) - 1
    slack = _slack(line.bbox, p) if len(p) else 0.0
    if math.isfinite(reach + 2.0 * slack):
        qi, si = _grid_pairs(p.T, line.boxes, reach + 2.0 * slack)
        return _nearest(line, p, qi, si, reach + slack)
    rows = max(1, PROJECT_BLOCK_PAIRS // m)
    blocks = []
    for i in range(0, max(len(p), 1), rows):
        block = p[i : i + rows]
        qi, si = np.repeat(np.arange(len(block)), m), np.tile(np.arange(m), len(block))
        blocks.append(_nearest(line, block, qi, si, math.inf))
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _nearest(line: Polyline, p: np.ndarray, qi: np.ndarray, si: np.ndarray, limit: float):
    """`project_points` of ``p`` onto the candidate segments ``si`` of each point ``qi``.

    The pairs are grouped by point, each point's segments in increasing
    order, so the first minimum of a group is the one of smallest ``s``.
    A point without candidates, or whose nearest one is farther than
    ``limit``, is out of reach.
    """
    s = np.full(len(p), np.nan)
    d = np.full(len(p), np.nan)
    e = np.full(len(p), np.inf)
    if not len(qi):
        return s, d, e
    ax, ay = line.points[:-1, 0], line.points[:-1, 1]
    vx, vy = line.points[1:, 0] - ax, line.points[1:, 1] - ay
    vv = vx * vx + vy * vy
    px, py = p[qi, 0], p[qi, 1]
    sx, sy, svx, svy = ax[si], ay[si], vx[si], vy[si]
    wx, wy = px - sx, py - sy
    t = np.clip((wx * svx + wy * svy) / vv[si], 0.0, 1.0)
    dx, dy = px - (sx + t * svx), py - (sy + t * svy)
    dist2 = dx * dx + dy * dy
    start = np.flatnonzero(_firsts(qi))
    count = np.diff(np.append(start, len(qi)))
    hit = np.flatnonzero(dist2 == np.repeat(np.minimum.reduceat(dist2, start), count))
    best = hit[_firsts(qi[hit])]
    dist = np.sqrt(dist2[best])
    best, dist = best[dist <= limit], dist[dist <= limit]
    rows, k = qi[best], si[best]
    norm = np.sqrt(vv[k])
    s[rows] = line.arclength[k] + t[best] * norm
    d[rows] = (vx[k] * wy[best] - vy[k] * wx[best]) / norm
    e[rows] = dist
    return s, d, e


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Which entries of the grouped array ``keys`` begin a group."""
    return np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)]


def frenet_project(line: Polyline, p) -> FrenetPose:
    """Project one point onto ``line``; see :class:`FrenetPose`."""
    s, d, _ = project_points(line, [p])
    return FrenetPose(float(s[0]), float(d[0]))


def polyline_intersections(a: Polyline, b: Polyline) -> list[tuple[float, float, tuple[float, float]]]:
    """All crossings between two polylines as ``(s_a, s_b, point)`` triples.

    Only the segment pairs the grid pairs up, those whose boxes meet, are
    tested, vectorized over those pairs; the boxes grow by :func:`_slack`,
    so no crossing is lost.  Near-parallel segment pairs are skipped
    (coincident stretches are the overlap detector's business, not the
    crossing detector's).
    """
    pa = a.points
    pb = b.points
    i, j = _grid_pairs(a.boxes, b.boxes, _slack(a.bbox, b.bbox))
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


#: Segments per run in `near_lines`: the map-wide grid holds the boxes of
#: runs of consecutive segments, so a lane's own neighbouring segments cost
#: few pairs.
NEAR_RUN = 16


def near_lines(lines: list[Polyline], reach) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Which of ``lines`` come near which, from one grid over all of them.

    Returns two sets of index pairs.  ``(i, j)``, ``i != j``, is in the
    first when a run of `NEAR_RUN` segments of ``lines[i]`` comes within
    ``reach[j]`` of a run of ``lines[j]`` (an infinite ``reach[j]`` reaches
    every line).  ``(i, j)``, ``i < j``, is in the second when runs of the
    two lines meet.  A run's box holds its segments' boxes and vertices, and
    all boxes grow by the rounding slack of all the coordinates, so a pair
    left out of the first has no vertex of ``lines[i]`` within ``reach[j]``
    of ``lines[j]`` as `project_points` reads it, and a pair left out of the
    second has no crossing.
    """
    if not lines:
        return set(), set()
    reach = np.asarray(reach, dtype=float)
    runs = [np.arange(0, len(l) - 1, NEAR_RUN) for l in lines]
    owner = np.repeat(np.arange(len(lines)), [len(r) for r in runs])
    offset = np.cumsum([0] + [len(l) - 1 for l in lines[:-1]])
    start = np.concatenate([r + o for r, o in zip(runs, offset)])
    boxes = np.concatenate([l.boxes for l in lines], axis=1)
    lo = np.minimum.reduceat(boxes[:2], start, axis=1)
    boxes = np.concatenate([lo, np.maximum.reduceat(boxes[2:], start, axis=1)])
    slack = 2.0 * _slack(*(l.bbox for l in lines))
    finite = np.isfinite(reach[owner])
    near = {(i, j) for j in np.flatnonzero(~np.isfinite(reach)).tolist() for i in range(len(lines)) if i != j}
    if finite.any():
        qi, bi = _grid_pairs(boxes, boxes[:, finite], reach[owner[finite]] + slack)
        near |= _line_pairs(owner[qi], owner[finite][bi], len(lines))
    qi, bi = _grid_pairs(boxes, boxes, slack)
    meet = {(i, j) for i, j in _line_pairs(owner[qi], owner[bi], len(lines)) if i < j}
    return near, meet


def _line_pairs(i: np.ndarray, j: np.ndarray, n: int) -> set[tuple[int, int]]:
    """The distinct ``(i, j)`` pairs with ``i != j``; all indices are below ``n``."""
    keys = np.unique(i * n + j).tolist()
    return {(a, b) for a, b in map(divmod, keys, [n] * len(keys)) if a != b}


def angle_difference(a, b) -> np.ndarray:
    """Absolute angular difference in ``[0, pi]``, elementwise."""
    d = np.subtract(a, b) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)

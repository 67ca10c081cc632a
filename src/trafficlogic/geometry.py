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
    the vertex order.  Vertices must be distinct so that the arclength is
    strictly increasing.
    """

    __slots__ = ("points", "arclength")

    def __init__(self, points) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least two planar points")
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(seg <= 0.0):
            raise ValueError("polyline vertices must be distinct")
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self.points = pts
        self.arclength = cum

    @property
    def length(self) -> float:
        return float(self.arclength[-1])

    def point_at(self, s: float) -> tuple[float, float]:
        """Interpolated point at arclength ``s`` (clamped to the ends)."""
        s = min(max(s, 0.0), self.length)
        x = float(np.interp(s, self.arclength, self.points[:, 0]))
        y = float(np.interp(s, self.arclength, self.points[:, 1]))
        return (x, y)

    def heading_at(self, s: float) -> float:
        """Heading of the segment containing arclength ``s``."""
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.arclength, s, side="right")) - 1
        i = min(max(i, 0), len(self.points) - 2)
        dx, dy = self.points[i + 1] - self.points[i]
        return math.atan2(dy, dx)

    def reversed(self) -> "Polyline":
        return Polyline(self.points[::-1].copy())

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polyline({len(self)} pts, {self.length:.2f} m)"


def project_points(line: Polyline, pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Frenet projection of many points onto ``line``.

    Returns ``(s, d, e)`` arrays: clamped arclength, *signed lateral*
    offset (the cross-track component relative to the closest segment, so
    a point past an end of the polyline but on its axis has d = 0), and
    the euclidean distance to the clamped projection point.  Ties between
    equidistant segments are broken in favour of the smallest ``s``.
    """
    p = np.atleast_2d(np.asarray(pts, dtype=float))
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

    Fully vectorized over segment pairs; near-parallel segment pairs are
    skipped (coincident stretches are the overlap detector's business, not
    the crossing detector's).
    """
    pa = a.points
    pb = b.points
    a0 = pa[:-1][:, None, :]  # (M, 1, 2)
    va = np.diff(pa, axis=0)[:, None, :]
    b0 = pb[:-1][None, :, :]  # (1, K, 2)
    vb = np.diff(pb, axis=0)[None, :, :]
    denom = va[..., 0] * vb[..., 1] - va[..., 1] * vb[..., 0]  # (M, K)
    scale = np.linalg.norm(va, axis=2) * np.linalg.norm(vb, axis=2)
    ok = np.abs(denom) > 1e-12 * np.maximum(scale, 1e-12)
    q = b0 - a0  # (M, K, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (q[..., 0] * vb[..., 1] - q[..., 1] * vb[..., 0]) / denom
        tb = (q[..., 0] * va[..., 1] - q[..., 1] * va[..., 0]) / denom
    tol = 1e-9
    hit = ok & (ta >= -tol) & (ta <= 1.0 + tol) & (tb >= -tol) & (tb <= 1.0 + tol)
    out: list[tuple[float, float, tuple[float, float]]] = []
    seg_a = np.linalg.norm(np.diff(pa, axis=0), axis=1)
    seg_b = np.linalg.norm(np.diff(pb, axis=0), axis=1)
    for i, j in zip(*np.nonzero(hit)):
        t1 = min(max(float(ta[i, j]), 0.0), 1.0)
        t2 = min(max(float(tb[i, j]), 0.0), 1.0)
        s_a = float(a.arclength[i] + t1 * seg_a[i])
        s_b = float(b.arclength[j] + t2 * seg_b[j])
        x = float(pa[i, 0] + t1 * (pa[i + 1, 0] - pa[i, 0]))
        y = float(pa[i, 1] + t1 * (pa[i + 1, 1] - pa[i, 1]))
        out.append((s_a, s_b, (x, y)))
    out.sort(key=lambda r: (r[0], r[1]))
    return out


def angle_difference(a: float, b: float) -> float:
    """Absolute angular difference in ``[0, pi]``."""
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)

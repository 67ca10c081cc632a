"""All-pairs polyline crossings and overlap corridors, kept as references.

These are the map compiler's former routines: every segment of one polyline
is tested against every segment of the other for a crossing, and every
vertex of one lane is projected onto every segment of the other before the
overlap-corridor test, with headings and angle differences taken one scalar
at a time.  The compiler now culls by bounding boxes and works on arrays;
``tests/test_culling.py`` asserts that both give the same results, bit for
bit.  Deliberately self-contained: only the vertices, arclengths and widths
of the lanes are read, and nothing else is shared with the compiler.
"""

from __future__ import annotations

import math

import numpy as np


def reference_intersections(a, b) -> list[tuple[float, float, tuple[float, float]]]:
    """All crossings of polylines ``a`` and ``b`` as ``(s_a, s_b, point)``, over all segment pairs."""
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


def reference_project(line, pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped arclength, signed lateral offset and distance of every point, over all segments."""
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    a = line.points[:-1]
    v = np.diff(line.points, axis=0)
    vv = np.einsum("ij,ij->i", v, v)
    w = p[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pmi,mi->pm", w, v) / vv, 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * v[None, :, :]
    diff = p[:, None, :] - proj
    dist2 = np.einsum("pmi,pmi->pm", diff, diff)
    best = np.argmin(dist2, axis=1)
    rows = np.arange(p.shape[0])
    tb = t[rows, best]
    s = line.arclength[best] + tb * np.sqrt(vv[best])
    vb = v[best]
    wb = p - a[best]
    d = (vb[:, 0] * wb[:, 1] - vb[:, 1] * wb[:, 0]) / np.sqrt(vv[best])
    e = np.sqrt(dist2[rows, best])
    return s, d, e


def reference_heading(line, s: float) -> float:
    """Heading of the segment containing arclength ``s``, one call per value."""
    length = float(line.arclength[-1])
    s = min(max(s, 0.0), length)
    i = int(np.searchsorted(line.arclength, s, side="right")) - 1
    i = min(max(i, 0), len(line.points) - 2)
    dx, dy = line.points[i + 1] - line.points[i]
    return math.atan2(dy, dx)


def reference_angle_difference(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def reference_corridor(la, lb, params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per vertex of lane ``la``: arclength on ``lb``, heading difference, corridor mask."""
    s_b, d_b, e_b = reference_project(lb.line, la.line.points)
    dist = np.abs(d_b)
    ha = np.array([reference_heading(la.line, float(s)) for s in la.line.arclength])
    hb = np.array([reference_heading(lb.line, float(s)) for s in s_b])
    diff = np.array([reference_angle_difference(float(x), float(y)) for x, y in zip(ha, hb)])
    wmin = np.minimum(la.widths, np.interp(s_b, lb.line.arclength, lb.widths))
    corridor = dist <= params.overlap_corridor_factor * wmin
    clamped = (s_b <= 1e-9) | (s_b >= float(lb.line.arclength[-1]) - 1e-9)
    corridor &= ~clamped | (e_b <= params.intersection_tolerance)
    return s_b, diff, corridor

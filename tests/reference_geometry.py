"""The map compiler's and the trace abstractor's former routines, kept as references.

* All-pairs crossings and overlap corridors: every segment of one polyline
  is tested against every segment of the other for a crossing, and every
  vertex of one lane is projected onto every segment of the other before the
  overlap-corridor test, with headings and angle differences taken one
  scalar at a time.  The compiler culls by a grid over segment boxes and
  works on arrays; ``tests/test_culling.py`` asserts that both give the same
  results, bit for bit, pair by pair and as compiled facts and coordinates
  (`reference_network_texts`).  Only the vertices, arclengths and widths of
  the lanes are read.
* The scalar centerline sampler: the reference line, the lane widths and the
  center offset evaluated one arclength at a time.  It reads only the fields
  of the parsed map records.
* The all-lanes trace abstraction: every sample's center, front and rear
  projected onto every lane, and a point's arclength on a lane that does not
  carry it projected once per sample.  It shares the map compiler and the
  grouping of samples into tracks with the program.

``tests/test_arrays.py`` compares the last two with the program, bit for bit.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from trafficlogic import abstraction
from trafficlogic.abstraction import AbstractionError, NetworkAbstraction, TraceError, _tracks
from trafficlogic.config import Config
from trafficlogic.domain import LonRel, Scenario, Scene, SRange, lon_rel_of_ranges
from trafficlogic.facts import render_network
from trafficlogic.geometry import angle_difference


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


def _every_pair(lines, reach):
    n = range(len(lines))
    return {(i, j) for i in n for j in n if i != j}, {(i, j) for i in n for j in n if i < j}


def reference_network_texts(model, params) -> tuple[str, str]:
    """``facts_text()`` and ``coords_text()`` of ``model`` compiled with the all-pairs routines.

    Every lane pair is a candidate, its crossings come from
    `reference_intersections` and its corridors from `reference_corridor`.
    """
    with (
        mock.patch.object(abstraction, "near_lines", _every_pair),
        mock.patch.object(abstraction, "polyline_intersections", reference_intersections),
        mock.patch.object(
            abstraction, "_corridors", lambda sources, lb, p: [reference_corridor(la, lb, p) for la in sources]
        ),
    ):
        abst = NetworkAbstraction(model, params)
    return abst.facts_text(), abst.coords_text()


# -- the scalar centerline sampler -------------------------------------------


def reference_segment_pose(seg, s: float) -> tuple[float, float, float]:
    """Point and heading at local arclength ``s`` of a reference-line segment."""
    x0, y0 = seg.origin
    h = seg.heading
    if seg.kind == "line":
        return x0 + s * math.cos(h), y0 + s * math.sin(h), h
    k = seg.curvature
    return (
        x0 + (math.sin(h + k * s) - math.sin(h)) / k,
        y0 - (math.cos(h + k * s) - math.cos(h)) / k,
        h + k * s,
    )


def reference_road_pose(road, s: float) -> tuple[float, float, float]:
    """Point and heading at road arclength ``s``, located segment by segment."""
    s = min(max(s, 0.0), road.length)
    acc = 0.0
    for seg in road.ref_line:
        if s <= acc + seg.length + 1e-9:
            return reference_segment_pose(seg, min(max(s - acc, 0.0), seg.length))
        acc += seg.length
    last = road.ref_line[-1]
    return reference_segment_pose(last, last.length)


def reference_width(lane, section_s: float) -> float:
    rec = None
    for w in lane.widths:
        if w.s_offset <= section_s + 1e-9:
            rec = w
    if rec is None:
        return 0.0
    ds = section_s - rec.s_offset
    return rec.a + rec.b * ds + rec.c * ds * ds + rec.d * ds ** 3


def reference_offset(section, lane_id: int, section_s: float) -> float:
    """Signed lateral offset of a lane center from the reference line."""
    if lane_id > 0:
        chain = [l for l in section.left if l.id <= lane_id]
        sign = 1.0
    else:
        chain = [l for l in section.right if l.id >= lane_id]
        sign = -1.0
    acc = 0.0
    for lane in chain:
        w = reference_width(lane, section_s)
        if lane.id == lane_id:
            return sign * (acc + 0.5 * w)
        acc += w
    raise KeyError(lane_id)


def reference_centerline(road, lane_id: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of a lane center and the lane widths there, one arclength at a time."""
    section = road.sections[0]
    n = max(1, int(math.ceil(road.length / step - 1e-9)))
    svals = np.linspace(0.0, road.length, n + 1)
    pts = []
    for s in svals:
        x, y, h = reference_road_pose(road, float(s))
        off = reference_offset(section, lane_id, float(s) - section.s)
        pts.append((x - off * math.sin(h), y + off * math.cos(h)))
    lane = section.lane(lane_id)
    widths = np.array([reference_width(lane, float(s) - section.s) for s in svals])
    return np.asarray(pts, dtype=float), widths


# -- the all-lanes trace abstraction -------------------------------------------


def reference_lane_fit(abst, track, cfg):
    """Per lane: center projections, occupancy mask, and front and rear projections."""
    fits = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for lid, lane in abst.lanes.items():
            s_c, d_c, e_c = reference_project(lane.line, track.centers)
            s_f, _, _ = reference_project(lane.line, track.fronts)
            s_r, _, _ = reference_project(lane.line, track.rears)
            widths = np.interp(s_c, lane.line.arclength, lane.widths)
            overrun = np.sqrt(np.maximum(e_c * e_c - d_c * d_c, 0.0))
            ok = (np.abs(d_c) <= widths / 2.0 + cfg.occupancy_halfwidth) & (overrun <= 0.5)
            ok &= angle_difference(track.headings, lane.line.heading_at(s_c)) < math.pi / 2
            fits[lid] = (s_c, d_c, s_f, s_r, ok)
    return fits


def reference_abstract_trace(samples, n, model, params=None) -> Scenario:
    """The trace abstraction with every sample projected onto every lane."""
    cfg = params or Config()
    abst = NetworkAbstraction(model, cfg)
    if n is None:
        n = abst.network
    elif render_network(abst.network) != render_network(n):
        raise AbstractionError("network facts do not match the map under these tolerances")
    times, tracks = _tracks(samples)
    fits = {v: reference_lane_fit(abst, tr, cfg) for v, tr in tracks.items()}
    vehicles = sorted(tracks)
    scenes = []
    for ti in range(len(times)):
        placement = {}
        for v in vehicles:
            cands = [(abs(float(fit[1][ti])), lid) for lid, fit in fits[v].items() if fit[4][ti]]
            if not cands:
                sample = tracks[v].samples[ti]
                raise TraceError(
                    f"trace row {sample.row}: vehicle {v} is off-road at t={sample.t}"
                )
            _, best = min(cands)
            road = abst.lanes[best].road
            occ = frozenset(lid for _, lid in cands if abst.lanes[lid].road == road)
            s_f = float(fits[v][best][2][ti])
            s_r = float(fits[v][best][3][ti])
            placement[v] = (best, occ, SRange(min(s_r, s_f), max(s_r, s_f)))
        scenes.append(_reference_qualify(abst, n, placement, fits, ti))
    collapsed = [scenes[0]]
    for sc in scenes[1:]:
        if sc != collapsed[-1]:
            collapsed.append(sc)
    return Scenario(frozenset(vehicles), n, tuple(collapsed))


def _reference_qualify(abst, n, placement, fits, ti) -> Scene:
    vehicles = sorted(placement)
    occ = {v: placement[v][1] for v in vehicles}
    vrel: dict[tuple[str, str], LonRel] = {}
    prel: dict[tuple[str, str], LonRel] = {}
    orel: dict[tuple[str, str], LonRel] = {}
    road_of = {v: abst.lanes[placement[v][0]].road for v in vehicles}
    for i, a in enumerate(vehicles):
        for b in vehicles[i + 1 :]:
            if road_of[a] == road_of[b]:
                vrel[(a, b)] = lon_rel_of_ranges(placement[a][2], placement[b][2])
    for v in vehicles:
        ref, _, rng = placement[v]
        for pid in sorted(n.points_of_road(road_of[v])):
            cached = abst.point_s[pid]
            if ref in cached:
                s_p = cached[ref]
            else:
                s_p = float(reference_project(abst.lanes[ref].line, [abst.point_coords[pid]])[0][0])
            prel[(v, pid)] = lon_rel_of_ranges(rng, SRange(s_p, s_p))
    inside = [(z, {v for v in vehicles if z.holds_inside(road_of[v], v, prel)}) for z in n.zones]
    for i, a in enumerate(vehicles):
        for b in vehicles[i + 1 :]:
            z = next((z for z, members in inside if a in members and b in members), None)
            if z is None:
                continue
            if road_of[a] == road_of[b]:
                val = vrel[(a, b)]
            else:
                _, _, s_f, s_r, _ = fits[b][placement[a][0]]
                ends = (float(s_f[ti]), float(s_r[ti]))
                val = lon_rel_of_ranges(placement[a][2], SRange(min(ends), max(ends)))
            orel[(a, b)] = val
            orel[(b, a)] = z.mirror(road_of[a], road_of[b], val)
    return Scene.build(occ, vrel, prel, orel)

"""From metric maps to the qualitative network, and from trajectories to scenarios.

Two compilers live here:

* :func:`abstract_network` turns a parsed OpenDRIVE :class:`MapModel` into
  the abstract road network: lanes with their left-to-right order, connection
  points with successor lanes, intersection points of unconnected crossing
  lanes, and opposite-direction overlap windows.
* :func:`abstract_trace` turns timed vehicle samples on such a map into a
  qualitative :class:`Scenario` by Frenet projection and range comparison,
  collapsing stutter steps.

Both are deterministic: identical inputs and tolerances give byte-identical
fact output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from trafficlogic import facts
from trafficlogic.config import Config
from trafficlogic.domain import (
    ID_RE,
    LonRel,
    RoadNetwork,
    Scenario,
    Scene,
    SRange,
    lon_rel_of_ranges,
)
from trafficlogic.geometry import (
    Polyline,
    angle_difference,
    frenet_project,
    near_lines,
    polyline_intersections,
    project_points,
)
from trafficlogic.opendrive import (
    MapModel,
    RoadSpec,
    sample_centerline,
)

__all__ = [
    "AbstractionError",
    "TraceError",
    "AbstractLane",
    "NetworkAbstraction",
    "abstract_network",
    "connection_structures",
    "TraceSample",
    "read_trace_csv",
    "abstract_trace",
]


class AbstractionError(Exception):
    """Geometry that cannot be classified (or validated) under the tolerances."""


class TraceError(AbstractionError):
    """A trajectory sample that cannot be abstracted (off-road, bad grid)."""


@dataclass
class AbstractLane:
    """A drivable lane in travel-direction coordinates.

    ``turn``, the largest heading change between consecutive segments, and
    ``vertex_headings``, the heading at each vertex, are computed once, here.
    """

    id: str
    road: str
    source_road: str
    source_lane: int
    line: Polyline  # vertices ordered along travel
    widths: np.ndarray  # lane width at each vertex
    turn: float = field(init=False)
    vertex_headings: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        h = self.line.headings
        self.turn = float(np.max(angle_difference(h[1:], h[:-1]), initial=0.0))
        self.vertex_headings = self.line.heading_at(self.line.arclength)

    @property
    def length(self) -> float:
        return self.line.length


def _natural_key(road_id: str):
    return (0, int(road_id), "") if road_id.isdigit() else (1, 0, road_id)


def _direction_groups(model: MapModel) -> list[tuple[RoadSpec, str, list]]:
    """Per xodr road: the driving lanes of each side, left-to-right in travel order.

    Right-side lanes travel with the reference line and are ordered
    -1, -2, ...; left-side lanes travel against it and are ordered 1, 2, ...
    (innermost first is leftmost in the respective travel frame).
    """
    groups = []
    for rid in sorted(model.roads, key=_natural_key):
        road = model.roads[rid]
        sec = road.sections[0]
        right = [l for l in sec.right if l.type == "driving"]
        left = [l for l in sec.left if l.type == "driving"]
        if right:
            groups.append((road, "right", right))
        if left:
            groups.append((road, "left", left))
    return groups


def _travel_edges(model: MapModel) -> set[tuple[tuple[str, int], tuple[str, int]]]:
    """Directed lane-to-lane continuations, from junctions and road links."""
    edges: set[tuple[tuple[str, int], tuple[str, int]]] = set()

    def starts_at(lane, face: str) -> bool:
        return (lane.side == "right") == (face == "start")

    def ends_at(lane, face: str) -> bool:
        return (lane.side == "right") == (face == "end")

    for junc in model.junctions.values():
        for conn in junc.connections:
            inc = model.road(conn.incoming_road)
            con = model.road(conn.connecting_road)
            for frm, to in conn.lane_links:
                src = inc.sections[0].lane(frm)
                dst = con.sections[0].lane(to)
                if not starts_at(dst, conn.contact_point):
                    raise AbstractionError(
                        f"junction {junc.id} connection {conn.id}: lane {to} of road "
                        f"{con.id} does not begin at contact point {conn.contact_point!r}"
                    )
                if src.type == "driving" and dst.type == "driving":
                    edges.add(((inc.id, src.id), (con.id, dst.id)))

    for road in model.roads.values():
        for face, link in (("start", road.predecessor), ("end", road.successor)):
            if link is None or link.element_type != "road":
                continue
            other = model.road(link.element_id)
            for lane in road.sections[0].all_lanes():
                if lane.type != "driving":
                    continue
                partner_id = lane.successor if face == "end" else lane.predecessor
                if partner_id is None:
                    continue
                try:
                    partner = other.sections[0].lane(partner_id)
                except KeyError:
                    raise AbstractionError(
                        f"road {road.id} lane {lane.id}: dangling lane link to "
                        f"lane {partner_id} of road {other.id}"
                    ) from None
                if partner.type != "driving":
                    continue
                if ends_at(lane, face) and starts_at(partner, link.contact_point):
                    edges.add(((road.id, lane.id), (other.id, partner.id)))
                elif starts_at(lane, face) and ends_at(partner, link.contact_point):
                    edges.add(((other.id, partner.id), (road.id, lane.id)))
    return edges


class NetworkAbstraction:
    """The full result of compiling a map: network, geometry, provenance.

    ``network`` is the qualitative nonuple; ``lanes`` retains the metric
    centerlines used to build it (and to abstract traces against it);
    ``point_coords``/``point_s`` anchor every abstract point in map space.
    """

    def __init__(self, model: MapModel, params: Config) -> None:
        self.model = model
        self.params = params
        self.lanes: dict[str, AbstractLane] = {}
        self.point_coords: dict[str, tuple[float, float]] = {}
        self.point_s: dict[str, dict[str, float]] = {}
        self.metadata: dict[str, str] = dict(params.metadata())
        self.network: RoadNetwork = None  # type: ignore[assignment]
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        model, params = self.model, self.params
        builder = facts.NetworkBuilder()
        by_source: dict[tuple[str, int], str] = {}

        road_seq = 0
        for road, side, specs in _direction_groups(model):
            road_seq += 1
            rid = f"r{road_seq}"
            self.metadata[f"road.{rid}"] = f"{road.id}:{side}"
            ids = []
            for spec in specs:
                lid = f"l{len(self.lanes) + 1}"
                line = sample_centerline(model, (road.id, spec.id), params.sampling_step)
                svals = np.linspace(0.0, road.length, len(line))
                widths = spec.width_at(svals - road.sections[0].s)
                if side == "left":
                    line = line.reversed()
                    widths = widths[::-1].copy()
                self.lanes[lid] = AbstractLane(lid, rid, road.id, spec.id, line, widths)
                by_source[(road.id, spec.id)] = lid
                self.metadata[f"lane.{lid}"] = f"{road.id}:{spec.id}"
                ids.append(lid)
                builder.add("lane", (lid, rid))
            for a, b in zip(ids, ids[1:]):
                builder.add("left", (a, b))

        edges = [
            (by_source[src], by_source[dst])
            for src, dst in _travel_edges(model)
            if src in by_source and dst in by_source
        ]
        self._add_connections(builder, edges)
        lanes = list(self.lanes.values())
        width = max((float(lane.widths.max()) for lane in lanes), default=0.0)
        reach = [_corridor_reach(width, lane, params) for lane in lanes]
        near, meet = near_lines([lane.line for lane in lanes], reach)
        crossings = self._detect_crossings({frozenset(e) for e in edges}, meet)
        windows = self._detect_overlaps(crossings, near)
        for pid, (a, b, s_a, s_b, xy) in crossings.items():
            builder.add("class", (pid, "x"))
            builder.add("pon", (pid, a))
            builder.add("pon", (pid, b))
            self.point_coords[pid] = xy
            self.point_s[pid] = {a: s_a, b: s_b}
        for pos, poe, a, b, wa, wb in windows:
            for pid, kind in ((pos, "os"), (poe, "oe")):
                builder.add("class", (pid, kind))
                builder.add("pon", (pid, a))
                builder.add("pon", (pid, b))
            builder.add("overlap", (pos, poe))
            self.point_coords[pos] = self.lanes[a].line.point_at(wa[0])
            self.point_coords[poe] = self.lanes[a].line.point_at(wa[1])
            self.point_s[pos] = {a: wa[0], b: wb[1]}
            self.point_s[poe] = {a: wa[1], b: wb[0]}

        # total travel order of the points carried by each lane
        for lid in self.lanes:
            carried = sorted(
                ((s_map[lid], pid) for pid, s_map in self.point_s.items() if lid in s_map),
            )
            for (_, p1), (_, p2) in zip(carried, carried[1:]):
                builder.add("succp", (lid, p1, p2))

        self.network = builder.build()

    def _add_connections(self, builder: facts.NetworkBuilder, edges: list[tuple[str, str]]) -> None:
        grouped: dict[str, list[str]] = {}
        for a, b in edges:
            grouped.setdefault(a, []).append(b)
        rank = {lid: i for i, lid in enumerate(self.lanes)}
        seq = 0
        for lid in self.lanes:  # creation order -> deterministic numbering
            targets = grouped.get(lid)
            if not targets:
                continue
            seq += 1
            pid = f"pc{seq}"
            lane = self.lanes[lid]
            builder.add("class", (pid, "c"))
            builder.add("pon", (pid, lid))
            self.point_coords[pid] = tuple(map(float, lane.line.points[-1]))
            self.point_s[pid] = {lid: lane.length}
            for tgt in sorted(targets, key=rank.__getitem__):
                builder.add("pon", (pid, tgt))
                builder.add("succl", (pid, tgt))
                self.point_s[pid][tgt] = 0.0

    def _lane_pairs(self, near: set[tuple[int, int]]):
        """The pairs of lanes from different xodr roads whose creation indices ``i < j`` are in ``near``.

        They come in creation order.
        """
        ids = list(self.lanes)
        for i, j in sorted(near):
            a, b = ids[i], ids[j]
            if i < j and self.lanes[a].source_road != self.lanes[b].source_road:
                yield a, b

    def _detect_crossings(
        self, connected: set[frozenset[str]], meet: set[tuple[int, int]]
    ) -> dict[str, tuple[str, str, float, float, tuple[float, float]]]:
        """Transversal centerline crossings of lane pairs not in ``connected``.

        Only the pairs in ``meet``, whose segment boxes meet, can cross.
        """
        margin = 2.0 * self.params.sampling_step
        found: list[tuple[str, str, float, float, tuple[float, float]]] = []
        for a, b in self._lane_pairs(meet):
            if frozenset((a, b)) in connected:
                continue
            la, lb = self.lanes[a], self.lanes[b]
            hits = polyline_intersections(la.line, lb.line)
            kept: list[tuple[float, float, tuple[float, float]]] = []
            for s_a, s_b, xy in hits:
                if min(s_a, la.length - s_a) <= margin or min(s_b, lb.length - s_b) <= margin:
                    continue  # endpoint contact is a merge/diverge, not a crossing
                if kept and abs(s_a - kept[-1][0]) <= margin:
                    continue  # same crossing reported by adjacent segments
                kept.append((s_a, s_b, xy))
            for s_a, s_b, xy in kept:
                found.append((a, b, s_a, s_b, xy))
        return {f"px{i + 1}": rec for i, rec in enumerate(found)}

    def _detect_overlaps(
        self, crossings, near: set[tuple[int, int]]
    ) -> list[tuple[str, str, str, str, tuple, tuple]]:
        """Opposite-direction shared-pavement windows; same-direction is an error.

        Only the pairs ``(a, b)`` in ``near``, where some vertex of ``a`` is
        within corridor reach of ``b``, can have one.
        """
        p = self.params
        tol = math.radians(p.overlap_heading_tolerance_deg)
        pairs = list(self._lane_pairs(near))
        sources: dict[str, list[str]] = {}
        for a, b in pairs:
            sources.setdefault(b, []).append(a)
        corridors = {}
        for b, ids in sources.items():
            found = _corridors([self.lanes[a] for a in ids], self.lanes[b], p)
            corridors.update(((a, b), res) for a, res in zip(ids, found))
        out = []
        seq = 0
        for a, b in pairs:
            la, lb = self.lanes[a], self.lanes[b]
            s_b, diff, corridor = corridors[a, b]
            if not corridor.any():
                continue
            anti = corridor & (diff >= math.pi - tol)
            same = corridor & (diff <= tol)
            s_a = la.line.arclength
            for i0, i1 in self._runs(same):
                if s_a[i1] - s_a[i0] < p.min_overlap_length:
                    continue
                # diverging/merging siblings hug each other near their shared
                # fork point; only a free-standing coincident stretch is a
                # genuine same-direction overlap
                if self._anchored_at_contact(la, lb, i0, i1):
                    continue
                raise AbstractionError(
                    f"lanes {a} and {b} overlap in the same direction; merging them "
                    "into a single lane is not supported - edit the map"
                )
            for i0, i1 in self._runs(anti):
                if s_a[i1] - s_a[i0] < p.min_overlap_length:
                    continue
                for pid, (ca, cb, cs_a, _cs_b, _xy) in crossings.items():
                    if {ca, cb} == {a, b} and s_a[i0] - 1.0 <= cs_a <= s_a[i1] + 1.0:
                        raise AbstractionError(
                            f"tolerance-ambiguous geometry: lanes {a} and {b} both "
                            f"overlap and cross near s={cs_a:.2f} on {a}"
                        )
                seq += 1
                wa = (float(s_a[i0]), float(s_a[i1]))
                wb = (float(s_b[i1]), float(s_b[i0]))  # anti-parallel: order flips
                out.append((f"pos{seq}", f"poe{seq}", a, b, wa, wb))
        return out

    @staticmethod
    def _anchored_at_contact(la: AbstractLane, lb: AbstractLane, i0: int, i1: int) -> bool:
        """Does the vertex run [i0, i1] on ``la`` start or end where the lanes meet?"""
        ends_b = (lb.line.points[0], lb.line.points[-1])

        def touches(pt) -> bool:
            return any(float(np.hypot(*(pt - e))) <= 0.5 for e in ends_b)

        last = len(la.line.points) - 1
        if i0 <= 1 and touches(la.line.points[0]):
            return True
        if i1 >= last - 1 and touches(la.line.points[last]):
            return True
        return False

    @staticmethod
    def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
        """Inclusive ``(first, last)`` index pairs of the runs of True in ``mask``."""
        edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1) - 1
        return list(zip(starts.tolist(), ends.tolist()))

    # -- output --------------------------------------------------------------

    def facts_text(self) -> str:
        return facts.render_network(self.network, (), self.metadata)

    def coords_text(self) -> str:
        lines = [
            f"{pid} {x:.6f} {y:.6f} 0.000000"
            for pid, (x, y) in sorted(self.point_coords.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _corridors(sources: list[AbstractLane], lb: AbstractLane, params: Config):
    """Per lane of ``sources``, per vertex: its arclength on ``lb``, heading difference, corridor mask.

    A vertex is in the corridor when its lateral offset from ``lb`` is at most
    ``overlap_corridor_factor`` times the narrower lane width, and, if its
    projection is clamped to an end of ``lb``, it lies within
    ``intersection_tolerance`` of that end.  The arclength and heading
    difference of a vertex outside the corridor carry no meaning.

    No vertex farther than :func:`_corridor_reach` from ``lb`` can be in the
    corridor, so the vertices of all sources are projected together, in one
    call, with the largest of their reaches.  A vertex out of that reach has
    no arclength on ``lb`` (nan).  `geometry.near_lines` has already picked
    the lane pairs worth this call.
    """
    reach = max(_corridor_reach(float(la.widths.max()), lb, params) for la in sources)
    s_b, d_b, e_b = project_points(lb.line, np.concatenate([la.line.points for la in sources]), reach)
    widths = np.concatenate([la.widths for la in sources])
    headings = np.concatenate([la.vertex_headings for la in sources])
    diff = angle_difference(headings, lb.line.heading_at(s_b))
    wmin = np.minimum(widths, np.interp(s_b, lb.line.arclength, lb.widths))
    corridor = np.abs(d_b) <= params.overlap_corridor_factor * wmin
    # a projection clamped to an end of b says nothing about lateral
    # closeness: without this, corridors bleed past the shared stretch and
    # continuations read as fake same-direction overlaps
    clamped = (s_b <= 1e-9) | (s_b >= lb.length - 1e-9)
    corridor &= ~clamped | (e_b <= params.intersection_tolerance)
    cuts = np.cumsum([len(la.line) for la in sources[:-1]])
    return list(zip(np.split(s_b, cuts), np.split(diff, cuts), np.split(corridor, cuts)))


def _corridor_reach(width: float, lb: AbstractLane, params: Config) -> float:
    """Largest distance from ``lb`` at which a vertex of a lane ``width`` wide can be in the corridor.

    Its distance e to ``lb`` is bounded by its lateral offset |d| <=
    factor * width: e = |d| when it projects inside a segment, and
    e <= |d| / cos(theta) when it is clamped at an interior corner where
    ``lb`` turns by theta.  A vertex clamped at an end of ``lb`` needs
    e <= intersection_tolerance.  From a turn of 90 degrees on, the reach is
    unbounded.
    """
    if lb.turn >= math.pi / 2:
        return math.inf
    lateral = params.overlap_corridor_factor * width / math.cos(lb.turn)
    return max(lateral, params.intersection_tolerance)


def abstract_network(model: MapModel, params: Config | None = None) -> RoadNetwork:
    """Compile a map into the abstract road network (validated)."""
    return NetworkAbstraction(model, params or Config()).network


def connection_structures(n: RoadNetwork) -> tuple[str, ...]:
    """Roads that are both entered and exited through connection points.

    A road is *entered* when some connection point feeds one of its lanes
    from another road, and *exits* when one of its lanes ends in a
    connection point leading to another road.  Junction connecting roads
    are exactly the roads with both properties.
    """
    entered: set[str] = set()
    exits: set[str] = set()
    for lane in n.lanes:
        road = n.road_of_lane(lane)
        for p in n.connections_on(lane):
            if any(n.precedes(lane, p, q) for q in n.points_of_lane(lane)):
                continue  # p is not the terminal point of this lane
            for tgt in n.successor_lanes(p):
                tgt_road = n.road_of_lane(tgt)
                if tgt_road != road:
                    exits.add(road)
                    entered.add(tgt_road)
    return tuple(sorted(entered & exits))


# --------------------------------------------------------------------------
# trace abstraction


@dataclass(frozen=True)
class TraceSample:
    """One timed pose sample of one vehicle (center point, heading, length)."""

    row: int  # 1-based source line for error reporting
    t: float
    vehicle: str
    x: float
    y: float
    heading: float
    length: float


_TRACE_FIELDS = ("t", "vehicle", "x", "y", "heading", "length")


def read_trace_csv(text: str) -> list[TraceSample]:
    """Parse the trace CSV format ``t,vehicle,x,y,heading,length``."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or sorted(reader.fieldnames) != sorted(_TRACE_FIELDS):
        raise TraceError(
            f"trace header must be exactly {','.join(_TRACE_FIELDS)}; "
            f"got {reader.fieldnames}"
        )
    samples = []
    for i, rec in enumerate(reader, start=2):
        if None in rec:
            raise TraceError(f"trace row {i}: more fields than the header")
        try:
            t, x, y, heading, length = (
                float(rec[k]) for k in ("t", "x", "y", "heading", "length")
            )
        except (TypeError, ValueError):
            raise TraceError(f"trace row {i}: malformed numeric field") from None
        if not all(map(math.isfinite, (t, x, y, heading, length))):
            raise TraceError(f"trace row {i}: non-finite numeric field")
        if length < 0:
            raise TraceError(f"trace row {i}: negative vehicle length")
        vehicle = (rec["vehicle"] or "").strip()
        if not ID_RE.match(vehicle):
            raise TraceError(f"trace row {i}: bad vehicle id {vehicle!r}")
        samples.append(TraceSample(i, t, vehicle, x, y, heading, length))
    if not samples:
        raise TraceError("trace file contains no samples")
    return samples


@dataclass
class _VehicleTrack:
    samples: list[TraceSample]
    headings: np.ndarray
    centers: np.ndarray
    fronts: np.ndarray
    rears: np.ndarray


def _tracks(samples: list[TraceSample]) -> tuple[list[float], dict[str, _VehicleTrack]]:
    times = sorted({s.t for s in samples})
    vehicles = sorted({s.vehicle for s in samples})
    index: dict[tuple[float, str], TraceSample] = {}
    for s in samples:
        key = (s.t, s.vehicle)
        if key in index:
            raise TraceError(f"trace row {s.row}: duplicate sample for {s.vehicle} at t={s.t}")
        index[key] = s
    tracks = {}
    for v in vehicles:
        ordered = []
        for t in times:
            s = index.get((t, v))
            if s is None:
                raise TraceError(f"vehicle {v} has no sample at t={t}")
            ordered.append(s)
        c = np.array([(s.x, s.y) for s in ordered])
        h = np.array([s.heading for s in ordered])
        half = np.array([s.length for s in ordered]) / 2.0
        nose = np.stack([np.cos(h), np.sin(h)], axis=1) * half[:, None]
        tracks[v] = _VehicleTrack(ordered, h, c, c + nose, c - nose)
    return times, tracks


def _occupancy_radius(lane: AbstractLane, cfg: Config) -> float:
    """Largest distance from ``lane`` at which a vehicle center can occupy it.

    An occupying center has ``|d| <= width / 2 + occupancy_halfwidth`` and
    runs at most 0.5 past an end of the lane, so its distance to the lane is
    at most the hypotenuse of the two.
    """
    return math.hypot(float(lane.widths.max()) / 2.0 + cfg.occupancy_halfwidth, 0.5)


def _lane_fit(abst: NetworkAbstraction, track: _VehicleTrack, cfg: Config):
    """Per sample: the lane that fits the center best, and the lanes of its road it occupies.

    Every center is projected onto every lane within the lane's
    :func:`_occupancy_radius`, since occupancy needs them all; a center out
    of that reach occupies no lane.  The best lane is the occupied one with
    the smallest lateral offset ``|d|``, ties going to the smallest lane id;
    it is None for a sample that occupies no lane.  A sample far off the map
    (a finite coordinate near the float range) can overflow to inf or nan
    here; neither passes the occupancy test, so the sample is off-road on
    that lane, and numpy is kept from warning about it.
    """
    lids = sorted(abst.lanes)
    if not lids:
        return [None] * len(track.samples), [frozenset()] * len(track.samples)
    dist = np.empty((len(lids), len(track.samples)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, lid in enumerate(lids):
            line, widths = abst.lanes[lid].line, abst.lanes[lid].widths
            s_c, d_c, e_c = project_points(line, track.centers, _occupancy_radius(abst.lanes[lid], cfg))
            width = np.interp(s_c, line.arclength, widths)
            overrun = np.sqrt(np.maximum(e_c * e_c - d_c * d_c, 0.0))
            ok = (np.abs(d_c) <= width / 2.0 + cfg.occupancy_halfwidth) & (overrun <= 0.5)
            ok &= angle_difference(track.headings, line.heading_at(s_c)) < math.pi / 2
            dist[i] = np.where(ok, np.abs(d_c), np.inf)
    roads = {}
    road = np.array([roads.setdefault(abst.lanes[lid].road, len(roads)) for lid in lids])
    best = np.argmin(dist, axis=0)  # the first minimum: the smallest id
    occupied = np.isfinite(dist)
    same_road = occupied & (road[:, None] == road[best])
    best_lane = [lids[i] if occupied[i, ti] else None for ti, i in enumerate(best.tolist())]
    occ = [frozenset(lid for lid, on in zip(lids, col) if on) for col in same_road.T.tolist()]
    return best_lane, occ


def _ranges(
    abst: NetworkAbstraction, tracks: dict[str, _VehicleTrack], wanted, cfg: Config | None = None
) -> dict[tuple[str, str, int], SRange]:
    """The range from rear to front of each wanted ``(vehicle, lane, sample)``.

    With ``cfg``, every wanted sample occupies its lane: its center is within
    the lane's :func:`_occupancy_radius`, so its front and rear are within
    that radius plus half the vehicle length, which is the reach they are
    projected with.  Without, they are projected onto all segments.  The
    fronts of one (vehicle, lane) go to one projection call, and its rears
    to another: one call for both would double the call's peak memory.
    """
    by_lane: dict[tuple[str, str], dict[int, None]] = {}
    for v, lid, ti in wanted:
        by_lane.setdefault((v, lid), {})[ti] = None
    out = {}
    for (v, lid), tis in by_lane.items():
        idx, line = list(tis), abst.lanes[lid].line
        reach = math.inf
        if cfg is not None:
            half = max(tracks[v].samples[ti].length for ti in idx) / 2.0
            reach = _occupancy_radius(abst.lanes[lid], cfg) + half
        with np.errstate(over="ignore", invalid="ignore"):
            fronts, _, _ = project_points(line, tracks[v].fronts[idx], reach)
            rears, _, _ = project_points(line, tracks[v].rears[idx], reach)
        for ti, s_f, s_r in zip(idx, fronts.tolist(), rears.tolist()):
            out[v, lid, ti] = SRange(min(s_r, s_f), max(s_r, s_f))
    return out


def abstract_trace(
    samples: list[TraceSample],
    n: RoadNetwork | None,
    model: MapModel,
    params: Config | None = None,
) -> Scenario:
    """Abstract timed concrete samples into a stutter-free Scenario.

    ``model`` is compiled here, because the projection geometry is needed
    to place every sample.  With ``n=None`` the scenario is built on that
    compiled network; otherwise ``n`` must equal it (same facts under the
    same parameters) and the scenario is built on ``n``.

    Every sample's center is projected onto each lane within that lane's
    :func:`_occupancy_radius` (`_lane_fit`); a center farther away occupies
    no lane.  Its front and rear are projected only where its range is read:
    on its own best lane, and on the best lane of a vehicle on another road
    that it shares an overlap window with.
    """
    cfg = params or Config()
    abst = NetworkAbstraction(model, cfg)
    if n is None:
        n = abst.network
    elif facts.render_network(abst.network) != facts.render_network(n):
        raise AbstractionError("network facts do not match the map under these tolerances")
    times, tracks = _tracks(samples)
    vehicles = sorted(tracks)
    best, occ = {}, {}
    for v in vehicles:
        best[v], occ[v] = _lane_fit(abst, tracks[v], cfg)
    for ti, t in enumerate(times):
        for v in vehicles:
            if best[v][ti] is None:
                raise TraceError(
                    f"trace row {tracks[v].samples[ti].row}: vehicle {v} is off-road at t={t}"
                )
    ranges = _ranges(abst, tracks, ((v, best[v][ti], ti) for v in vehicles for ti in range(len(times))), cfg)
    projected: dict[tuple[str, str], float] = {}
    steps = []
    for ti in range(len(times)):
        placement = {v: (best[v][ti], occ[v][ti], ranges[v, best[v][ti], ti]) for v in vehicles}
        steps.append((placement, *_relations(abst, n, placement, projected)))
    # a window pair on two roads reads the second vehicle's range on the first one's lane
    cross = ((b, lane, ti) for ti, step in enumerate(steps) for _, b, _, lane in step[-1] if lane)
    ranges.update(_ranges(abst, tracks, cross))
    collapsed: list[Scene] = []
    last = None  # the raw relations of the last sample a scene was built for
    for ti, (placement, road_of, vrel, prel, pairs) in enumerate(steps):
        orel: dict[tuple[str, str], LonRel] = {}
        for a, b, z, lane in pairs:
            if lane is None:
                val = vrel[(a, b)]
            else:
                val = lon_rel_of_ranges(placement[a][2], ranges[b, lane, ti])
            orel[(a, b)] = val
            orel[(b, a)] = z.mirror(road_of[a], road_of[b], val)
        raw = ({v: placement[v][1] for v in vehicles}, vrel, prel, orel)
        # `Scene.build` is one-to-one on these maps (pairs x < y in vrel, no
        # NONE value, no empty occupancy): only equal maps give the same scene
        if raw == last:
            continue
        last = raw
        collapsed.append(Scene.build(*raw))
    return Scenario(frozenset(vehicles), n, tuple(collapsed))


def _point_s_on(
    abst: NetworkAbstraction, pid: str, lid: str, projected: dict[tuple[str, str], float]
) -> float:
    """Arclength of point ``pid`` on lane ``lid``; ``projected`` keeps those not carried."""
    cached = abst.point_s[pid]
    if lid in cached:
        return cached[lid]
    if (pid, lid) not in projected:
        projected[pid, lid] = frenet_project(abst.lanes[lid].line, abst.point_coords[pid]).s
    return projected[pid, lid]


def _relations(
    abst: NetworkAbstraction,
    n: RoadNetwork,
    placement: dict[str, tuple[str, frozenset[str], SRange]],
    projected: dict[tuple[str, str], float],
):
    """The vehicle and point relations of one sample, and its vehicle pairs inside a window.

    A pair ``(a, b, zone, lane)`` names ``a``'s lane when the two are on
    different roads: their window relation then reads ``b``'s range there.
    """
    vehicles = sorted(placement)
    vrel: dict[tuple[str, str], LonRel] = {}
    prel: dict[tuple[str, str], LonRel] = {}

    road_of = {v: abst.lanes[placement[v][0]].road for v in vehicles}
    for i, a in enumerate(vehicles):
        for b in vehicles[i + 1 :]:
            if road_of[a] == road_of[b]:
                vrel[(a, b)] = lon_rel_of_ranges(placement[a][2], placement[b][2])

    for v in vehicles:
        ref, _, rng = placement[v]
        for pid in n.sorted_points_of_road(road_of[v]):
            s_p = _point_s_on(abst, pid, ref, projected)
            prel[(v, pid)] = lon_rel_of_ranges(rng, SRange(s_p, s_p))

    pairs = [
        (a, b, zs[0], None if road_of[a] == road_of[b] else placement[a][0])
        for (a, b), zs in sorted(n.window_members(road_of, prel)[1].items())
    ]
    return road_of, vrel, prel, pairs

"""Core value types for qualitative traffic reasoning.

Everything in here is an immutable value: the qualitative longitudinal
relation, road networks (lanes, ordered left-to-right, plus the four
kinds of marked points and their per-lane ordering), scenes (one
qualitative snapshot of traffic) and scenarios (chronological scene
sequences).  No I/O, no geometry — those live in `facts`, `geometry`
and `opendrive`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Optional

ID_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class LonRel(Enum):
    """Qualitative longitudinal relation between two s-ranges.

    ``NONE`` marks the absence of a relation (the two objects share no
    longitudinal axis, e.g. vehicles on different roads).
    """

    AHEAD = "ahead"
    COVER = "cover"
    BEHIND = "behind"
    NONE = "none"

    #: members are singletons compared by identity; Enum's own hash runs in
    #: Python and dominated lookups in the relation tables
    __hash__ = object.__hash__


_INVERT = {
    LonRel.AHEAD: LonRel.BEHIND,
    LonRel.BEHIND: LonRel.AHEAD,
    LonRel.COVER: LonRel.COVER,
    LonRel.NONE: LonRel.NONE,
}


def invert(d: LonRel) -> LonRel:
    """Mirror a relation: ahead<->behind, cover and none are self-mirrored."""
    return _INVERT[d]


@dataclass(frozen=True)
class SRange:
    """Longitudinal extent of an object along a lane axis, rear to front."""

    s_rear: float
    s_front: float

    def __post_init__(self) -> None:
        if self.s_rear > self.s_front:
            raise ValueError(f"SRange rear {self.s_rear} > front {self.s_front}")


def lon_rel_of_ranges(a: SRange, b: SRange) -> LonRel:
    """Classify the longitudinal relation of range ``a`` relative to ``b``.

    ``a`` is AHEAD when its rear end lies strictly beyond ``b``'s front
    end, BEHIND when its front end lies strictly before ``b``'s rear end,
    and COVER otherwise (boundary contact counts as COVER).
    """
    if a.s_rear > b.s_front:
        return LonRel.AHEAD
    if a.s_front < b.s_rear:
        return LonRel.BEHIND
    return LonRel.COVER


class PointKind(Enum):
    """The four marked-point classes of a road network."""

    INTERSECTION = "x"
    CONNECTION = "c"
    OVERLAP_START = "os"
    OVERLAP_END = "oe"


@dataclass(frozen=True)
class Road:
    """A carriageway: one or more same-direction lanes, ordered left-to-right."""

    id: str
    lanes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.lanes:
            raise ValueError(f"road {self.id!r} has no lanes")
        if len(set(self.lanes)) != len(self.lanes):
            raise ValueError(f"road {self.id!r} has duplicate lanes")


@dataclass(frozen=True)
class OverlapZone:
    """One shared-pavement window between lanes of (usually two) roads.

    ``orientation`` maps each carrying road id to +1 when that road
    traverses the window start→end, −1 when it runs end→start.
    ``carrying`` holds the lanes both window points lie on.  A window
    relation ``orel(x, y)`` is stored in the frame of ``x``'s road.
    """

    start: str
    end: str
    orientation: Mapping[str, int]
    carrying: frozenset[str] = frozenset()

    def entry_exit_for(self, road_id: Optional[str]) -> Optional[tuple[str, str]]:
        """The (first, second) window points in ``road_id``'s travel order."""
        o = self.orientation.get(road_id)
        if o is None:
            return None
        return (self.start, self.end) if o > 0 else (self.end, self.start)

    def holds_inside(
        self, road_id: Optional[str], c: str, prel: Mapping[tuple[str, str], LonRel]
    ) -> bool:
        """Whether vehicle ``c``, on ``road_id``, sits inside the window.

        Judged in the vehicle's own travel frame from ``prel``, its
        ``(vehicle, point)`` relations: past the window point the road meets
        first, before the one it meets second.  This is road-wide — the
        vehicle need not occupy a carrying lane to be alongside the window.
        False when the zone does not carry ``road_id`` (or it is None).
        """
        ee = self.entry_exit_for(road_id)
        if ee is None:
            return False
        return prel.get((c, ee[0])) is LonRel.AHEAD and prel.get((c, ee[1])) is LonRel.BEHIND

    def frame(self, road_id: str, v: LonRel) -> LonRel:
        """``v``, stored in ``road_id``'s frame, read along start→end; its own inverse."""
        return v if self.orientation[road_id] > 0 else _INVERT[v]

    def mirror(self, road_x: str, road_y: str, v: LonRel) -> LonRel:
        """The stored ``orel(y, x)`` implied by ``orel(x, y) = v``.

        Inverted when the two roads traverse the window the same way, equal
        when they are opposed (their frames differ by one inversion).
        """
        return _INVERT[v] if self.orientation[road_x] == self.orientation[road_y] else v


class RoadNetwork:
    """The abstract road network: roads, marked points and their relations.

    Components: ``roads`` (each an ordered lane list), ``points`` (id →
    kind), ``succ_p`` (per-lane point order, ``(lane, p1, p2)`` = p2
    follows p1 on that lane), ``succ_c`` (connection point → lane a
    vehicle may continue onto), ``overlaps`` (start/end point pairs) and
    ``affiliation`` (``(point, lane)`` incidence).
    """

    __slots__ = (
        "roads",
        "points",
        "succ_p",
        "succ_c",
        "overlaps",
        "affiliation",
        "_road_by_id",
        "_lane_road",
        "_lane_index",
        "_points_of_lane",
        "_points_of_road",
        "_sorted_points_of_road",
        "_lanes_of_point",
        "_succ_lanes",
        "_order_by_lane",
        "_connections_by_lane",
        "_zones",
    )

    def __init__(
        self,
        roads: Iterable[Road],
        points: Mapping[str, PointKind] | None = None,
        succ_p: Iterable[tuple[str, str, str]] = (),
        succ_c: Iterable[tuple[str, str]] = (),
        overlaps: Iterable[tuple[str, str]] = (),
        affiliation: Iterable[tuple[str, str]] = (),
    ) -> None:
        self.roads: tuple[Road, ...] = tuple(sorted(roads, key=lambda r: r.id))
        self.points: dict[str, PointKind] = dict(points or {})
        self.succ_p: frozenset[tuple[str, str, str]] = frozenset(succ_p)
        self.succ_c: frozenset[tuple[str, str]] = frozenset(succ_c)
        self.overlaps: frozenset[tuple[str, str]] = frozenset(overlaps)
        self.affiliation: frozenset[tuple[str, str]] = frozenset(affiliation)
        self._index()

    # -- construction of lookup caches ------------------------------------

    def _index(self) -> None:
        self._road_by_id = {r.id: r for r in self.roads}
        self._lane_road: dict[str, str] = {}
        self._lane_index: dict[str, int] = {}
        for r in self.roads:
            for i, l in enumerate(r.lanes):
                self._lane_road[l] = r.id
                self._lane_index[l] = i
        self._points_of_lane: dict[str, frozenset[str]] = {}
        self._lanes_of_point: dict[str, frozenset[str]] = {}
        by_lane: dict[str, set[str]] = {}
        by_point: dict[str, set[str]] = {}
        for p, l in self.affiliation:
            by_lane.setdefault(l, set()).add(p)
            by_point.setdefault(p, set()).add(l)
        self._points_of_lane = {l: frozenset(ps) for l, ps in by_lane.items()}
        self._lanes_of_point = {p: frozenset(ls) for p, ls in by_point.items()}
        road_pts: dict[str, set[str]] = {}
        for l, ps in by_lane.items():
            rid = self._lane_road.get(l)
            if rid is not None:
                road_pts.setdefault(rid, set()).update(ps)
        self._points_of_road = {rid: frozenset(ps) for rid, ps in road_pts.items()}
        succ: dict[str, set[str]] = {}
        for p, l in self.succ_c:
            succ.setdefault(p, set()).add(l)
        self._succ_lanes = {p: tuple(sorted(ls)) for p, ls in succ.items()}
        # Per-lane strict order: transitive closure of the succ_p pairs.
        self._order_by_lane: dict[str, frozenset[tuple[str, str]]] = {}
        lane_pairs: dict[str, set[tuple[str, str]]] = {}
        for l, p1, p2 in self.succ_p:
            lane_pairs.setdefault(l, set()).add((p1, p2))
        for l, pairs in lane_pairs.items():
            closure = set(pairs)
            changed = True
            while changed:
                changed = False
                for a, b in list(closure):
                    for c, d in pairs:
                        if b == c and (a, d) not in closure:
                            closure.add((a, d))
                            changed = True
            self._order_by_lane[l] = frozenset(closure)
        self._sorted_points_of_road = {rid: tuple(sorted(ps)) for rid, ps in self._points_of_road.items()}
        self._connections_by_lane = {
            l: tuple(sorted(p for p in ps if self.points.get(p) is PointKind.CONNECTION))
            for l, ps in self._points_of_lane.items()
        }
        self._zones = tuple(self._build_zone(a, b) for a, b in sorted(self.overlaps))

    def _build_zone(self, start: str, end: str) -> OverlapZone:
        orientation: dict[str, int] = {}
        carrying = self._lanes_of_point.get(start, frozenset()) & self._lanes_of_point.get(
            end, frozenset()
        )
        for l in carrying:
            rid = self._lane_road.get(l)
            if rid is None:
                continue
            order = self._order_by_lane.get(l, frozenset())
            if (start, end) in order:
                orientation[rid] = 1
            elif (end, start) in order:
                orientation[rid] = -1
        return OverlapZone(start, end, orientation, carrying)

    # -- lookups ----------------------------------------------------------

    @property
    def lanes(self) -> tuple[str, ...]:
        return tuple(sorted(self._lane_road))

    @property
    def zones(self) -> tuple[OverlapZone, ...]:
        return self._zones

    def road_of_lane(self, lane: str) -> Optional[str]:
        return self._lane_road.get(lane)

    def road_of(self, lanes: Iterable[str]) -> Optional[str]:
        """The one road the known ``lanes`` lie on, None for none or several: a vehicle's road (PR8)."""
        roads = set(map(self._lane_road.get, lanes))
        roads.discard(None)
        return roads.pop() if len(roads) == 1 else None

    def road(self, road_id: str) -> Road:
        return self._road_by_id[road_id]

    def lane_index(self, lane: str) -> int:
        return self._lane_index[lane]

    def adjacent_lanes(self, lane: str) -> tuple[str, ...]:
        """Lanes immediately left/right of ``lane`` on its own road."""
        rid = self._lane_road.get(lane)
        if rid is None:
            return ()
        lanes = self._road_by_id[rid].lanes
        i = self._lane_index[lane]
        out = []
        if i > 0:
            out.append(lanes[i - 1])
        if i + 1 < len(lanes):
            out.append(lanes[i + 1])
        return tuple(out)

    def points_of_lane(self, lane: str) -> frozenset[str]:
        return self._points_of_lane.get(lane, frozenset())

    def points_of_road(self, road_id: str) -> frozenset[str]:
        return self._points_of_road.get(road_id, frozenset())

    def sorted_points_of_road(self, road_id: Optional[str]) -> tuple[str, ...]:
        """`points_of_road` in sorted order; empty for None."""
        return self._sorted_points_of_road.get(road_id, ())

    def lanes_of_point(self, p: str) -> frozenset[str]:
        return self._lanes_of_point.get(p, frozenset())

    def successor_lanes(self, p: str) -> tuple[str, ...]:
        return self._succ_lanes.get(p, ())

    def connections_on(self, lane: str) -> tuple[str, ...]:
        return self._connections_by_lane.get(lane, ())

    def precedes(self, lane: str, p1: str, p2: str) -> bool:
        """True when ``p1`` comes before ``p2`` along ``lane``'s travel."""
        return (p1, p2) in self._order_by_lane.get(lane, frozenset())

    def lane_order_pairs(self, lane: str) -> frozenset[tuple[str, str]]:
        return self._order_by_lane.get(lane, frozenset())

    def window_members(
        self, road_of: Mapping[str, Optional[str]], prel: Mapping[tuple[str, str], LonRel]
    ) -> tuple[list[tuple[OverlapZone, list[str]]], dict[tuple[str, str], list[OverlapZone]]]:
        """The vehicles inside each window, and the windows that hold each vehicle pair.

        ``road_of`` maps every vehicle to its road or None, and ``prel``
        holds the vehicle-point relations (`OverlapZone.holds_inside`).
        Gives ``(window, members)`` per window, members in ``road_of``'s
        order, and per pair ``(x, y)``, ``x`` first in that order, the
        windows holding both; the first relates the pair (`OverlapZone.mirror`).
        """
        if not self._zones:
            return [], {}
        inside = [(z, [c for c, rid in road_of.items() if z.holds_inside(rid, c, prel)]) for z in self._zones]
        held: dict[tuple[str, str], list[OverlapZone]] = {}
        for z, members in inside:
            for pair in combinations(members, 2):
                held.setdefault(pair, []).append(z)
        return inside, held


def validate_network(n: RoadNetwork) -> list[str]:
    """Structural defects of a candidate network; empty iff well-formed.

    Each defect is one human-readable line naming the broken invariant and
    the offending ids.
    """
    defects: list[str] = []
    seen_lanes: dict[str, str] = {}
    for r in n.roads:
        if not ID_RE.match(r.id):
            defects.append(f"bad road id: {r.id!r}")
        for l in r.lanes:
            if not ID_RE.match(l):
                defects.append(f"bad lane id: {l!r}")
            if l in seen_lanes and seen_lanes[l] != r.id:
                defects.append(f"lane on two roads: {l} ({seen_lanes[l]}, {r.id})")
            seen_lanes[l] = r.id
    for p in n.points:
        if not ID_RE.match(p):
            defects.append(f"bad point id: {p!r}")
    known_points = set(n.points)
    known_lanes = set(seen_lanes)

    def check_point(p: str, where: str) -> None:
        if p not in known_points:
            defects.append(f"unknown point in {where}: {p}")

    def check_lane(l: str, where: str) -> None:
        if l not in known_lanes:
            defects.append(f"unknown lane in {where}: {l}")

    for l, p1, p2 in sorted(n.succ_p):
        check_lane(l, "succp")
        check_point(p1, "succp")
        check_point(p2, "succp")
        for p in (p1, p2):
            if p in known_points and (p, l) not in n.affiliation:
                defects.append(f"succp point not affiliated with its lane: {p} on {l}")
    for p, l in sorted(n.succ_c):
        check_point(p, "succl")
        check_lane(l, "succl")
        if n.points.get(p) not in (None, PointKind.CONNECTION):
            defects.append(f"succl source not a connection point: {p}")
    for a, b in sorted(n.overlaps):
        check_point(a, "overlap")
        check_point(b, "overlap")
        if a in known_points and b in known_points:
            if n.points[a] is not PointKind.OVERLAP_START or n.points[b] is not PointKind.OVERLAP_END:
                defects.append(f"overlap pair class mismatch: ({a}, {b})")
    for p, l in sorted(n.affiliation):
        check_point(p, "pon")
        check_lane(l, "pon")
    # Every point needs at least one carrying lane.
    for p in sorted(known_points):
        lanes = n.lanes_of_point(p)
        if not lanes:
            defects.append(f"point affiliated with no lane: {p}")
        kind = n.points[p]
        if kind is PointKind.INTERSECTION:
            roads = {n.road_of_lane(l) for l in lanes if n.road_of_lane(l)}
            if len(lanes) != 2 or len(roads) != 2:
                defects.append(f"intersection point not on exactly two lanes of two roads: {p}")
    # succ_p restricted to one lane must be a strict total order (single
    # acyclic chain over that lane's ordered points).
    per_lane: dict[str, set[tuple[str, str]]] = {}
    for l, p1, p2 in n.succ_p:
        per_lane.setdefault(l, set()).add((p1, p2))
    for l in sorted(per_lane):
        order = n.lane_order_pairs(l)
        if any(a == b for a, b in order) or any((b, a) in order for a, b in order):
            defects.append(f"point order not acyclic on lane {l}")
            continue
        members = {p for pair in per_lane[l] for p in pair}
        for a in sorted(members):
            for b in sorted(members):
                if a < b and (a, b) not in order and (b, a) not in order:
                    defects.append(f"point order not total on lane {l}: {a} vs {b}")
    return defects


class Scene:
    """One qualitative traffic snapshot.

    Sparse storage: ``occ`` maps every vehicle to its occupied lane set;
    the three relation maps hold only non-NONE entries.  Pair relations
    (vehicle-vehicle) are stored for both orientations.  Instances are
    immutable and hashable on a canonical tuple of their entries, so
    scenes can be used as search-space states directly.  Relations hash by
    identity, so a hash holds within one process (see ``__reduce__``).
    """

    __slots__ = ("occ", "vrel", "prel", "orel", "_key", "_hash")

    def __init__(
        self,
        occ: Mapping[str, frozenset[str]],
        vrel: Mapping[tuple[str, str], LonRel],
        prel: Mapping[tuple[str, str], LonRel],
        orel: Mapping[tuple[str, str], LonRel],
    ) -> None:
        self.occ: dict[str, frozenset[str]] = dict(occ)
        self.vrel: dict[tuple[str, str], LonRel] = dict(vrel)
        self.prel: dict[tuple[str, str], LonRel] = dict(prel)
        self.orel: dict[tuple[str, str], LonRel] = dict(orel)
        self._key = (
            tuple(sorted((c, tuple(sorted(ls))) for c, ls in self.occ.items())),
            tuple(sorted(self.vrel.items())),
            tuple(sorted(self.prel.items())),
            tuple(sorted(self.orel.items())),
        )
        self._hash = hash(self._key)

    @classmethod
    def build(
        cls,
        occ: Mapping[str, Iterable[str]],
        vrel: Mapping[tuple[str, str], LonRel] | None = None,
        prel: Mapping[tuple[str, str], LonRel] | None = None,
        orel: Mapping[tuple[str, str], LonRel] | None = None,
    ) -> "Scene":
        """Normalizing constructor.

        Drops NONE entries, freezes lane sets and fills in missing vehicle
        mirrors of ``vrel`` by inversion.  (``orel`` mirrors depend on the
        zone layout, so they are stored as given; the rule checker flags
        asymmetries.)
        """
        occ_n = {c: frozenset(ls) for c, ls in occ.items()}
        vrel_n = {k: v for k, v in (vrel or {}).items() if v is not LonRel.NONE}
        for (x, y), v in list(vrel_n.items()):
            vrel_n.setdefault((y, x), invert(v))
        prel_n = {k: v for k, v in (prel or {}).items() if v is not LonRel.NONE}
        orel_n = {k: v for k, v in (orel or {}).items() if v is not LonRel.NONE}
        return cls(occ_n, vrel_n, prel_n, orel_n)

    # -- total accessors ---------------------------------------------------

    @property
    def vehicles(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self._key[0])

    def occ_of(self, c: str) -> frozenset[str]:
        return self.occ.get(c, frozenset())

    def vrel_of(self, x: str, y: str) -> LonRel:
        return self.vrel.get((x, y), LonRel.NONE)

    def prel_of(self, c: str, p: str) -> LonRel:
        return self.prel.get((c, p), LonRel.NONE)

    def orel_of(self, x: str, y: str) -> LonRel:
        return self.orel.get((x, y), LonRel.NONE)

    def key(self):
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scene) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string and relation hashes differ between processes
        return (Scene, (self.occ, self.vrel, self.prel, self.orel))


@dataclass(frozen=True)
class Scenario:
    """A chronological scene sequence over fixed universes.

    Steps encode order only — there is no notion of duration between
    consecutive scenes.
    """

    vehicles: frozenset[str]
    network: RoadNetwork
    scenes: tuple[Scene, ...]

    def __post_init__(self) -> None:
        if not self.scenes:
            raise ValueError("scenario needs at least one scene")

    @property
    def horizon(self) -> int:
        return len(self.scenes)

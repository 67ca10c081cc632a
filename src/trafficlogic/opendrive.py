"""A deliberately small OpenDRIVE (.xodr) reader.

Supported subset: ``header``, ``road`` with ``planView`` geometry of kind
``line`` or ``arc``, one ``laneSection`` per road with cubic width records,
road-level ``link`` elements, and ``junction``/``connection`` tables.
Anything outside that subset (spiral, poly3 or paramPoly3 geometry, a
second lane section) is refused when the map is read, with
:class:`UnsupportedFeatureError`; elevation and superelevation data is
ignored with a logged warning because the abstraction is strictly planar.

The parser mirrors what the compiler reads into a :class:`MapModel`; all
interpretation (centerline sampling, network abstraction) lives elsewhere.
"""

from __future__ import annotations

import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import repeat
from xml.parsers import expat

import numpy as np

from trafficlogic.geometry import Polyline

__all__ = [
    "MapError",
    "MapParseError",
    "UnsupportedFeatureError",
    "RefLineSegment",
    "WidthRecord",
    "LaneSpec",
    "LaneSectionSpec",
    "RoadLink",
    "RoadSpec",
    "JunctionConnection",
    "JunctionSpec",
    "MapModel",
    "parse_opendrive",
    "sample_centerline",
]

log = logging.getLogger(__name__)

_LINE_KEY = "{trafficlogic}line"

UNSUPPORTED_GEOMETRY = ("spiral", "poly3", "paramPoly3")


class MapError(Exception):
    """Base class for map reading problems; carries a source line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class MapParseError(MapError):
    """Malformed XML or a violated structural expectation."""


class UnsupportedFeatureError(MapError):
    """The file uses a documented-out-of-subset OpenDRIVE feature."""


# Sine and cosine of every element, taken through ``math``: numpy's vectorised
# versions can differ from it in the last ulp on some CPUs, and array sampling
# must give the very vertices that point-by-point sampling does.
def _sin(a: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.sin, a.tolist())))


def _cos(a: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.cos, a.tolist())))


@dataclass(frozen=True)
class RefLineSegment:
    """One piece of a road reference line, evaluated in closed form."""

    kind: str  # "line" | "arc"
    origin: tuple[float, float]
    heading: float
    length: float
    curvature: float = 0.0

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError("reference-line segment length must be positive")
        if self.kind == "arc" and self.curvature == 0.0:
            raise ValueError("arc segment needs nonzero curvature")
        if not math.isfinite(self.heading + self.curvature * self.length):
            raise ValueError("arc segment turns through a non-finite angle")

    def poses(self, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Points ``x``, ``y`` and headings at local arclengths ``ds`` from the segment origin."""
        x0, y0 = self.origin
        h = self.heading
        if self.kind == "line":
            return x0 + ds * math.cos(h), y0 + ds * math.sin(h), np.full(len(ds), h)
        k = self.curvature
        hs = h + k * ds
        return x0 + (_sin(hs) - math.sin(h)) / k, y0 - (_cos(hs) - math.cos(h)) / k, hs


@dataclass(frozen=True)
class WidthRecord:
    """Cubic lane-width polynomial valid from ``s_offset`` onward."""

    s_offset: float
    a: float
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def eval(self, ds: np.ndarray) -> np.ndarray:
        # the cube as Python's float power computes it; numpy's can differ in the last ulp
        cube = np.array(list(map(pow, ds.tolist(), repeat(3))))
        return self.a + self.b * ds + self.c * ds * ds + self.d * cube


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a lane section."""

    id: int
    side: str  # "left" | "right"
    type: str
    widths: tuple[WidthRecord, ...]
    predecessor: int | None = None
    successor: int | None = None

    def width_at(self, section_s) -> np.ndarray:
        """Width at each section arclength in ``section_s``: 0 before the first record."""
        s = np.atleast_1d(np.asarray(section_s, dtype=float))
        # the last record starting at most 1e-9 past s governs s
        rec = np.searchsorted([w.s_offset for w in self.widths], s + 1e-9, side="right") - 1
        out = np.zeros(len(s))
        for i, w in enumerate(self.widths):
            at = rec == i
            if at.any():
                out[at] = w.eval(s[at] - w.s_offset)
        return out


@dataclass(frozen=True)
class LaneSectionSpec:
    s: float
    left: tuple[LaneSpec, ...]  # ordered by id ascending (1, 2, ...)
    right: tuple[LaneSpec, ...]  # ordered by id descending (-1, -2, ...)

    def all_lanes(self) -> tuple[LaneSpec, ...]:
        return self.right + self.left

    def lane(self, lane_id: int) -> LaneSpec:
        for l in self.all_lanes():
            if l.id == lane_id:
                return l
        raise KeyError(lane_id)


@dataclass(frozen=True)
class RoadLink:
    element_type: str  # "road" | "junction"
    element_id: str
    contact_point: str  # "start" | "end"; "start" when the file gives none


@dataclass(frozen=True)
class RoadSpec:
    id: str
    length: float
    ref_line: tuple[RefLineSegment, ...]
    sections: tuple[LaneSectionSpec, ...]  # exactly one: the reader refuses more
    predecessor: RoadLink | None = None
    successor: RoadLink | None = None
    source_line: int | None = None

    def poses(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reference-line points ``x``, ``y`` and headings at road arclengths ``s``.

        ``s`` is clamped to the road.  A value belongs to the first segment
        whose end it passes by at most 1e-9, and is clamped to that segment.
        """
        s = np.clip(s, 0.0, self.length)
        ends = np.cumsum([seg.length for seg in self.ref_line])
        starts = np.concatenate(([0.0], ends[:-1]))
        which = np.minimum(np.searchsorted(ends + 1e-9, s), len(ends) - 1)
        x, y, h = np.empty(len(s)), np.empty(len(s)), np.empty(len(s))
        for i, seg in enumerate(self.ref_line):
            on = which == i
            if on.any():
                ds = np.minimum(np.maximum(s[on] - starts[i], 0.0), seg.length)
                x[on], y[on], h[on] = seg.poses(ds)
        return x, y, h


@dataclass(frozen=True)
class JunctionConnection:
    id: str
    incoming_road: str
    connecting_road: str
    contact_point: str
    lane_links: tuple[tuple[int, int], ...]  # (from incoming, to connecting)
    source_line: int | None = None


@dataclass(frozen=True)
class JunctionSpec:
    id: str
    connections: tuple[JunctionConnection, ...]
    source_line: int | None = None


@dataclass
class MapModel:
    """In-memory mirror of what the compiler reads from the supported file subset."""

    roads: dict[str, RoadSpec] = field(default_factory=dict)
    junctions: dict[str, JunctionSpec] = field(default_factory=dict)

    def road(self, road_id: str) -> RoadSpec:
        try:
            return self.roads[road_id]
        except KeyError:
            raise MapParseError(f"unknown road {road_id!r}") from None


# --------------------------------------------------------------------------
# parsing


def _parse_with_lines(data: bytes) -> ET.Element:
    """Parse XML via expat, stashing the source line on every element."""
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate()

    def start(tag: str, attrs: dict) -> None:
        elem = builder.start(tag, attrs)
        elem.set(_LINE_KEY, str(parser.CurrentLineNumber))

    parser.StartElementHandler = start
    parser.EndElementHandler = builder.end
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise MapParseError(f"malformed XML: {exc}", exc.lineno) from None
    except (LookupError, ValueError) as exc:
        # the XML declaration names an unknown, multi-byte or non-text encoding
        raise MapParseError(f"undecodable XML encoding: {exc}", 1) from None
    return builder.close()


def _line_of(elem: ET.Element) -> int | None:
    v = elem.get(_LINE_KEY)
    return int(v) if v is not None else None


def _req(elem: ET.Element, attr: str) -> str:
    v = elem.get(attr)
    if v is None:
        raise MapParseError(f"<{elem.tag}> missing attribute {attr!r}", _line_of(elem))
    return v


def _fattr(elem: ET.Element, attr: str, default: float | None = None) -> float:
    v = elem.get(attr)
    if v is None:
        if default is None:
            raise MapParseError(f"<{elem.tag}> missing attribute {attr!r}", _line_of(elem))
        return default
    try:
        value = float(v)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise MapParseError(
            f"<{elem.tag}> attribute {attr}={v!r} is not a finite number", _line_of(elem)
        )
    return value


def _iattr(elem: ET.Element, attr: str) -> int:
    v = _req(elem, attr)
    try:
        return int(v)
    except ValueError:
        raise MapParseError(
            f"<{elem.tag}> attribute {attr}={v!r} is not an integer", _line_of(elem)
        ) from None


def _parse_geometry(geo: ET.Element) -> RefLineSegment:
    shape = None
    for child in geo:
        tag = child.tag
        if tag in ("line", "arc"):
            shape = child
        elif tag in UNSUPPORTED_GEOMETRY:
            raise UnsupportedFeatureError(f"unsupported geometry kind {tag!r}", _line_of(child))
    if shape is None:
        raise MapParseError("<geometry> without a recognized shape child", _line_of(geo))
    kind = shape.tag
    try:
        return RefLineSegment(
            kind=kind,
            origin=(_fattr(geo, "x"), _fattr(geo, "y")),
            heading=_fattr(geo, "hdg"),
            length=_fattr(geo, "length"),
            curvature=_fattr(shape, "curvature") if kind == "arc" else 0.0,
        )
    except ValueError as exc:
        raise MapParseError(str(exc), _line_of(geo)) from None


def _parse_lane(lane: ET.Element, side: str) -> LaneSpec:
    lane_id = _iattr(lane, "id")
    widths = []
    for w in lane.findall("width"):
        widths.append(
            WidthRecord(
                s_offset=_fattr(w, "sOffset", 0.0),
                a=_fattr(w, "a"),
                b=_fattr(w, "b", 0.0),
                c=_fattr(w, "c", 0.0),
                d=_fattr(w, "d", 0.0),
            )
        )
    widths.sort(key=lambda r: r.s_offset)
    pred = succ = None
    link = lane.find("link")
    if link is not None:
        p = link.find("predecessor")
        s = link.find("successor")
        pred = _iattr(p, "id") if p is not None else None
        succ = _iattr(s, "id") if s is not None else None
    return LaneSpec(
        id=lane_id,
        side=side,
        type=lane.get("type", "driving"),
        widths=tuple(widths),
        predecessor=pred,
        successor=succ,
    )


def _parse_section(sec: ET.Element) -> LaneSectionSpec:
    left: list[LaneSpec] = []
    right: list[LaneSpec] = []
    for side, bucket in (("left", left), ("right", right)):
        group = sec.find(side)
        if group is None:
            continue
        for lane in group.findall("lane"):
            spec = _parse_lane(lane, side)
            if spec.id == 0:
                raise MapParseError("center lane listed under a side group", _line_of(lane))
            bucket.append(spec)
    left.sort(key=lambda l: l.id)
    right.sort(key=lambda l: -l.id)
    ids = [l.id for l in left + right]
    if len(ids) != len(set(ids)):
        raise MapParseError("duplicate lane id in lane section", _line_of(sec))
    return LaneSectionSpec(s=_fattr(sec, "s", 0.0), left=tuple(left), right=tuple(right))


def _parse_road_link(elem: ET.Element | None) -> RoadLink | None:
    if elem is None:
        return None
    return RoadLink(
        element_type=_req(elem, "elementType"),
        element_id=_req(elem, "elementId"),
        contact_point=elem.get("contactPoint", "start"),
    )


def _parse_road(road: ET.Element) -> RoadSpec:
    plan = road.find("planView")
    if plan is None:
        raise MapParseError("road without <planView>", _line_of(road))
    segs = tuple(_parse_geometry(g) for g in plan.findall("geometry"))
    if not segs:
        raise MapParseError("planView without <geometry>", _line_of(plan))
    length = _fattr(road, "length")
    total = sum(seg.length for seg in segs)
    if not math.isclose(length, total, rel_tol=1e-9):
        raise MapParseError(
            f"road length {length!r} differs from the sum of its geometry lengths {total!r}",
            _line_of(road),
        )
    for tag in ("elevationProfile", "lateralProfile"):
        if road.find(tag) is not None:
            log.warning("ignoring <%s> of road %s: abstraction is planar", tag, road.get("id"))
    lanes = road.find("lanes")
    if lanes is None:
        raise MapParseError("road without <lanes>", _line_of(road))
    sections = tuple(_parse_section(sec) for sec in lanes.findall("laneSection"))
    if not sections:
        raise MapParseError("road without <laneSection>", _line_of(lanes))
    link = road.find("link")
    pred = succ = None
    if link is not None:
        pred = _parse_road_link(link.find("predecessor"))
        succ = _parse_road_link(link.find("successor"))
    rid = _req(road, "id")
    if len(sections) > 1:
        raise UnsupportedFeatureError(
            f"road {rid}: multiple lane sections are outside the supported subset", _line_of(road)
        )
    return RoadSpec(
        id=rid,
        length=length,
        ref_line=segs,
        sections=sections,
        predecessor=pred,
        successor=succ,
        source_line=_line_of(road),
    )


def _parse_junction(junc: ET.Element) -> JunctionSpec:
    conns = []
    for conn in junc.findall("connection"):
        links = tuple(
            (_iattr(ll, "from"), _iattr(ll, "to")) for ll in conn.findall("laneLink")
        )
        if not links:
            raise MapParseError("junction connection without <laneLink>", _line_of(conn))
        conns.append(
            JunctionConnection(
                id=_req(conn, "id"),
                incoming_road=_req(conn, "incomingRoad"),
                connecting_road=_req(conn, "connectingRoad"),
                contact_point=conn.get("contactPoint", "start"),
                lane_links=links,
                source_line=_line_of(conn),
            )
        )
    return JunctionSpec(
        id=_req(junc, "id"),
        connections=tuple(conns),
        source_line=_line_of(junc),
    )


def _validate_model(model: MapModel) -> None:
    for road in model.roads.values():
        for link in (road.predecessor, road.successor):
            if link is None:
                continue
            pool = model.roads if link.element_type == "road" else model.junctions
            if link.element_id not in pool:
                raise MapParseError(
                    f"road {road.id}: dangling {link.element_type} link to {link.element_id!r}",
                    road.source_line,
                )
    for junc in model.junctions.values():
        for conn in junc.connections:
            for rid in (conn.incoming_road, conn.connecting_road):
                if rid not in model.roads:
                    raise MapParseError(
                        f"junction {junc.id}: dangling road reference {rid!r}", conn.source_line
                    )
            inc = model.roads[conn.incoming_road]
            con = model.roads[conn.connecting_road]
            for frm, to in conn.lane_links:
                for road, lane_id in ((inc, frm), (con, to)):
                    try:
                        road.sections[0].lane(lane_id)
                    except KeyError:
                        raise MapParseError(
                            f"junction {junc.id}: connection {conn.id} references "
                            f"missing lane {lane_id} of road {road.id}",
                            conn.source_line,
                        ) from None


def parse_opendrive(text: str | bytes) -> MapModel:
    """Parse an OpenDRIVE document (string or bytes) into a MapModel."""
    if isinstance(text, str):
        data = text.encode("utf-8")
    else:
        data = text
    root = _parse_with_lines(data)
    if root.tag != "OpenDRIVE":
        raise MapParseError(f"root element is <{root.tag}>, expected <OpenDRIVE>")
    model = MapModel()
    for road in root.findall("road"):
        spec = _parse_road(road)
        if spec.id in model.roads:
            raise MapParseError(f"duplicate road id {spec.id!r}", spec.source_line)
        model.roads[spec.id] = spec
    for junc in root.findall("junction"):
        spec_j = _parse_junction(junc)
        if spec_j.id in model.junctions:
            raise MapParseError(f"duplicate junction id {spec_j.id!r}", spec_j.source_line)
        model.junctions[spec_j.id] = spec_j
    _validate_model(model)
    return model


# --------------------------------------------------------------------------
# centerline sampling


def _center_offset(section: LaneSectionSpec, lane_id: int, section_s: np.ndarray) -> np.ndarray:
    """Signed lateral offset of a lane center from the reference line, per arclength."""
    if lane_id > 0:
        chain = [l for l in section.left if l.id <= lane_id]
        sign = 1.0
    else:
        chain = [l for l in section.right if l.id >= lane_id]
        sign = -1.0
    inner = 0.0
    for lane in chain[:-1]:
        inner = inner + lane.width_at(section_s)
    return sign * (inner + 0.5 * chain[-1].width_at(section_s))


def sample_centerline(model: MapModel, lane: tuple[str, int], step: float) -> Polyline:
    """Sample a lane center at arclength intervals <= ``step``.

    ``lane`` is ``(road_id, lane_id)``.  The returned polyline follows the
    *reference line* direction (not travel direction) and includes both
    endpoints.  The reference line, the lane widths and the center offset
    are evaluated over the whole arclength array at once.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    road_id, lane_id = lane
    road = model.road(road_id)
    section = road.sections[0]
    section.lane(lane_id)  # raise early on unknown lane
    n = max(1, int(math.ceil(road.length / step - 1e-9)))
    s = np.linspace(0.0, road.length, n + 1)
    # huge coefficients overflow to inf or nan, as they would in Python
    # floats; Polyline rejects the vertices below
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, h = road.poses(s)
        off = _center_offset(section, lane_id, s - section.s)
        # left normal of the reference line is (-sin h, cos h)
        pts = np.column_stack((x - off * _sin(h), y + off * _cos(h)))
    try:
        return Polyline(pts)
    except ValueError as exc:
        raise MapParseError(
            f"road {road.id} lane {lane_id}: sampled centerline: {exc}", road.source_line
        ) from None

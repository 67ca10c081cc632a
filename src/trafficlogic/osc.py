"""Rendering of qualitative scenarios as OpenSCENARIO-DSL text.

The translation follows a fixed recipe: one top-level ``scenario`` block;
every network point declared as a ``position_3d`` (numeric when map
coordinates are available, symbolic otherwise); one ``serial`` composition
holding one ``parallel`` sub-block per scene; and inside each block one
``drive()`` invocation per vehicle whose ``position`` modifiers carry the
vehicle-vehicle and vehicle-point relations and whose ``lateral`` modifier
carries lane occupancy.  Vehicle-vehicle relations are emitted from both
sides (each vehicle's action states its own longitudinal position), so
every non-None relation atom maps to exactly one modifier.

Qualitative relations have no metric gap, so the relational phrases
(``ahead_of`` / ``behind`` / ``same_as``) are emitted without distances.
Overlap relations (lonro) have no OSC counterpart and are not emitted;
they remain recoverable from the scenario fact file.
"""

from __future__ import annotations

import math

from trafficlogic.domain import LonRel, RoadNetwork, Scenario
from trafficlogic.facts import ParseError
from trafficlogic.rules import check_scenario, render_report

__all__ = ["emit_osc", "parse_coords"]

_INDENT = "    "

_PHRASE = {
    LonRel.AHEAD: "ahead_of",
    LonRel.BEHIND: "behind",
    LonRel.COVER: "same_as",
}


def parse_coords(text: str) -> dict[str, tuple[float, float, float]]:
    """Read a coordinate sidecar: one ``point x y z`` line per point.

    A malformed line or a non-finite coordinate is a `facts.ParseError`.
    """
    out: dict[str, tuple[float, float, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"coords line {lineno}: expected 'point x y z'")
        try:
            xyz = (float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError:
            raise ParseError(f"coords line {lineno}: non-numeric coordinate") from None
        if not all(map(math.isfinite, xyz)):
            raise ParseError(f"coords line {lineno}: non-finite coordinate")
        out[parts[0]] = xyz
    return out


def emit_osc(
    sc: Scenario,
    n: RoadNetwork,
    coords: dict[str, tuple[float, float, float]] | None = None,
) -> str:
    """Translate a valid scenario into OSC text (deterministic)."""
    violations = check_scenario(sc)
    if violations:
        raise ValueError("scenario is invalid:\n" + render_report(violations))

    lines: list[str] = ["scenario traffic_scenario:"]
    points = sorted(n.points)
    if points:
        lines.append(_INDENT + "# road-network anchor points")
    for pid in points:
        if coords and pid in coords:
            x, y, z = coords[pid]
            lines.append(
                _INDENT + f"{pid}: position_3d = position_3d(x: {x:.6f}, y: {y:.6f}, z: {z:.6f})"
            )
        else:
            lines.append(_INDENT + f"{pid}: position_3d")
    vehicles = sorted(sc.vehicles)
    for c in vehicles:
        lines.append(_INDENT + f"{c}: vehicle")
    lines.append(_INDENT + "do serial:")
    for k, scene in enumerate(sc.scenes, start=1):
        lines.append(_INDENT * 2 + f"step_{k}: parallel:")
        for c in vehicles:
            lines.append(_INDENT * 3 + f"{c}.drive() with:")
            lanes = ", ".join(sorted(scene.occ_of(c)))
            lines.append(_INDENT * 4 + f"lateral(lanes: [{lanes}])")
            for other in vehicles:
                if other == c:
                    continue
                rel = scene.vrel_of(c, other)
                if rel is not LonRel.NONE:
                    lines.append(_INDENT * 4 + f"position({_PHRASE[rel]}: {other})")
            for pid in points:
                rel = scene.prel_of(c, pid)
                if rel is not LonRel.NONE:
                    lines.append(_INDENT * 4 + f"position({_PHRASE[rel]}: {pid})")
    return "\n".join(lines) + "\n"

"""The per-scene rule checker with its own PR2/PR3 conditions, kept as a reference.

This is ``rules.check_scene`` as it was before PR2 and PR3 became one
judgment that the successor generator shares (`rules.triangle_rule`), and
before it read a vehicle's road from `RoadNetwork.road_of`: here the road
is derived from the lanes in place, and a network without windows skips
the window rules.  ``tests/test_rules.py`` asserts that both give the
identical violation list, order included, on fuzzed scenes.  Only the rule
tables, the window judgments (`window_values`, `window_breaks`) and the
domain types are shared with `rules`.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional

from trafficlogic.domain import LonRel, RoadNetwork, Scene, invert
from trafficlogic.rules import (
    MIXED_FORBIDDEN,
    ORDER_FORBIDDEN,
    RuleId,
    Violation,
    window_breaks,
    window_values,
)

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE


def reference_check_scene(scene: Scene, n: RoadNetwork, step: int = 1) -> list[Violation]:
    """All per-scene rule violations, deduplicated."""
    found: set[tuple] = set()
    out: list[Violation] = []

    def add(rule: RuleId, *witnesses: str) -> None:
        key = (rule, witnesses)
        if key not in found:
            found.add(key)
            out.append(Violation(rule, step, witnesses))

    vehicles = scene.vehicles
    vset = set(vehicles)
    road_of: dict[str, Optional[str]] = {}

    for c in vehicles:
        occ = scene.occ_of(c)
        lanes = frozenset(l for l in occ if n.road_of_lane(l) is not None)
        for l in occ:
            if l not in lanes:
                add(RuleId.WF, "unknown_lane", c, l)
        if not occ:
            add(RuleId.PR6, c)
        if len(occ) > 2:
            add(RuleId.TR1, c)
        roads = {n.road_of_lane(l) for l in lanes}
        if len(roads) > 1:
            add(RuleId.PR8, c)
        road_of[c] = next(iter(roads)) if len(roads) == 1 else None
        if road_of[c] is not None and len(lanes) > 1:
            idx = sorted(n.lane_index(l) for l in lanes)
            if idx[-1] - idx[0] != len(idx) - 1:
                add(RuleId.PR5, c)

    # vehicle-vehicle relation: symmetry, support, transitivity, cycles
    for x, y in combinations(vehicles, 2):
        vxy, vyx = scene.vrel.get((x, y)), scene.vrel.get((y, x))
        if (vxy is None) != (vyx is None) or (vxy is not None and vyx is not invert(vxy)):
            add(RuleId.PR1, x, y)
        rx, ry = road_of[x], road_of[y]
        if rx is not None and ry is not None:
            if rx == ry and vxy is None and vyx is None:
                add(RuleId.WF, "missing_lonr", x, y)
            if rx != ry and (vxy is not None or vyx is not None):
                add(RuleId.WF, "crossroad_lonr", x, y)
        shared = scene.occ_of(x) & scene.occ_of(y)
        if shared and (vxy is C or vyx is C):
            add(RuleId.TR2, x, y)
    for (x, y), v in scene.vrel.items():
        if x == y:
            add(RuleId.WF, "self_relation", x)
        for z in (x, y):
            if z not in vset:
                add(RuleId.WF, "unknown_vehicle", z)
    for x, y, z in permutations(vehicles, 3):
        vxy, vyz, vxz = scene.vrel_of(x, y), scene.vrel_of(y, z), scene.vrel_of(x, z)
        if vxy is A and vyz is A and vxz is not N and vxz is not A:
            add(RuleId.PR2, x, y, z)
        if vxy is B and vyz is B and vxz is not N and vxz is not B:
            add(RuleId.PR2, x, y, z)
        if vxy is A and vyz is C and scene.vrel_of(z, x) is A:
            add(RuleId.PR3, x, y, z)

    # vehicle-point relations: totality on the own road, no strays
    for c in vehicles:
        rid = road_of[c]
        if rid is None:
            continue
        for p in sorted(n.points_of_road(rid)):
            if scene.prel_of(c, p) is N:
                add(RuleId.PR10, c, p)
    for (c, p), v in scene.prel.items():
        if c not in vset:
            add(RuleId.WF, "unknown_vehicle", c)
            continue
        if p not in n.points:
            add(RuleId.WF, "unknown_point", c, p)
            continue
        rid = road_of[c]
        if rid is not None and p not in n.points_of_road(rid):
            add(RuleId.WF, "unsupported_lonpr", c, p)

    # point-cover exclusivity: two vehicles may not cover the same point
    # while both occupy lanes the point lies on
    for p in sorted({p for (c, p), v in scene.prel.items() if v is C}):
        plane = n.lanes_of_point(p)
        coverers = [
            c for c in vehicles if scene.prel_of(c, p) is C and (scene.occ_of(c) & plane)
        ]
        for x, y in combinations(coverers, 2):
            add(RuleId.PR11, x, y, p)

    # per-lane point order vs one vehicle's relations; mixed transitivity
    for c in vehicles:
        rid = road_of[c]
        if rid is None:
            continue
        for l in n.road(rid).lanes:
            for p1, p2 in sorted(n.lane_order_pairs(l)):
                if (scene.prel_of(c, p1), scene.prel_of(c, p2)) in ORDER_FORBIDDEN:
                    add(RuleId.PR14_TRANS, c, p1, p2)
    for x, y in permutations(vehicles, 2):
        rx, ry = road_of[x], road_of[y]
        if rx is None or rx != ry:
            continue
        vxy = scene.vrel_of(x, y)
        if vxy is N:
            continue
        for p in sorted(n.points_of_road(rx)):
            px, py = scene.prel_of(x, p), scene.prel_of(y, p)
            if (vxy, py, px) in MIXED_FORBIDDEN:
                add(RuleId.PR14_TRANS, x, y, p)

    # overlap windows, per window: support, copy and head-on exclusion
    # (PR13), and relation triangles (PR14_TRANS); the generator makes the
    # same two judgments, `window_values` and `window_breaks`
    inside, held = n.window_members(road_of, scene.prel) if n.zones else ((), {})
    for z, members in inside:
        for x, y in combinations(members, 2):
            rx, ry = road_of[x], road_of[y]
            carried = bool(scene.occ_of(x) & z.carrying and scene.occ_of(y) & z.carrying)
            if scene.orel.get((x, y)) not in window_values(z, rx, ry, carried, scene.vrel_of(x, y)) or (
                scene.orel.get((y, x)) not in window_values(z, ry, rx, carried, scene.vrel_of(y, x))
            ):
                add(RuleId.PR13, x, y)
        for tri in window_breaks(z, road_of, members, scene.orel):
            add(RuleId.PR14_TRANS, *tri)

    for (x, y), v in scene.orel.items():
        if x == y:
            add(RuleId.WF, "self_relation", x)
            continue
        if x not in vset or y not in vset:
            add(RuleId.WF, "unknown_vehicle", x if x not in vset else y)
            continue
        zs = held.get((x, y) if x < y else (y, x))
        if zs is None:
            add(RuleId.WF, "unsupported_lonro", x, y)
            continue
        if scene.orel.get((y, x)) is not zs[0].mirror(road_of[x], road_of[y], v):
            add(RuleId.PR14_SYM, *sorted((x, y)))
    return out

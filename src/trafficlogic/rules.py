"""Consistency rules for scenes and scene transitions.

Two rule families: per-scene rules (relation symmetry/transitivity,
occupancy shape, point-cover exclusivity, overlap-window coherence) and
per-transition rules (qualitative continuity — relations and occupancy
may only evolve gradually, connections must be taken properly).  A
scenario is *realistic* exactly when every scene and every consecutive
scene pair passes.

Scene rules never reason about absent relations beyond the dedicated
support rules (PR10/PR13/WF): value rules skip NONE so that one modelling
mistake yields one violation, not a cascade.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations, permutations
from typing import Iterable, Optional

from trafficlogic.domain import LonRel, OverlapZone, RoadNetwork, Scenario, Scene, invert

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE


class RuleId(Enum):
    PR1 = "PR1"
    PR2 = "PR2"
    PR3 = "PR3"
    PR4 = "PR4"
    PR5 = "PR5"
    PR6 = "PR6"
    PR7 = "PR7"
    PR8 = "PR8"
    PR9 = "PR9"
    PR10 = "PR10"
    PR11 = "PR11"
    PR12 = "PR12"
    PR13 = "PR13"
    PR14_SYM = "PR14_SYM"
    PR14_TRANS = "PR14_TRANS"
    PR14_CONT = "PR14_CONT"
    TR1 = "TR1"
    TR2 = "TR2"
    #: Well-formedness: unknown ids, unsupported/missing relations, stutters.
    WF = "WF"


@dataclass(frozen=True)
class Violation:
    """One falsified rule instance.

    ``step`` is 1-based; transition violations also carry ``step2``
    (= step+1).  ``witnesses`` are the ids bound by the falsified rule;
    WF violations prefix them with a breach keyword.
    """

    rule: RuleId
    step: int
    witnesses: tuple[str, ...]
    step2: Optional[int] = None

    def render(self) -> str:
        at = f"@step {self.step}" if self.step2 is None else f"@step {self.step}->{self.step2}"
        return f"{self.rule.value} {at} [{', '.join(self.witnesses)}]"


def render_report(violations: Iterable[Violation]) -> str:
    """One sorted line per violation — stable across runs."""
    return "\n".join(sorted(v.render() for v in violations))


#: Composition of qualitative range relations along one shared axis:
#: rel(x,y) and rel(y,z) constrain rel(x,z) to these values.
COMPOSITION: dict[tuple[LonRel, LonRel], frozenset[LonRel]] = {
    (A, A): frozenset({A}),
    (A, C): frozenset({A, C}),
    (A, B): frozenset({A, C, B}),
    (C, A): frozenset({A, C}),
    (C, C): frozenset({A, C, B}),
    (C, B): frozenset({C, B}),
    (B, A): frozenset({A, C, B}),
    (B, C): frozenset({C, B}),
    (B, B): frozenset({B}),
}

#: Allowed one-step evolutions of a vehicle-vehicle relation (PR4).
VREL_NEXT = {A: frozenset({A, C}), C: frozenset({A, C, B}), B: frozenset({B, C})}

#: Allowed one-step evolutions of a vehicle-point relation (PR9):
#: strictly monotone — a vehicle never re-approaches a point it passed.
PREL_NEXT = {B: frozenset({B, C}), C: frozenset({C, A}), A: frozenset({A})}

#: Pairs (earlier point, later point) of relations that contradict the
#: point order along a lane (PR14_TRANS).
ORDER_FORBIDDEN = frozenset({(B, C), (B, A), (C, A)})

#: Triples (rel(x,y), rel(y,p), rel(x,p)) of two vehicles on one road and a
#: point of that road that break mixed transitivity (PR14_TRANS).
MIXED_FORBIDDEN = frozenset(
    {(A, A, C), (A, A, B), (B, B, C), (B, B, A), (C, A, B), (C, B, A)}
)


# -- scene-level checking ------------------------------------------------------


def window_composes(
    z: OverlapZone, road_x: str, road_y: str, r_xy: LonRel, r_yw: LonRel, r_xw: LonRel
) -> bool:
    """Whether window relations of ``x, y, w`` in ``z`` compose along the window axis.

    ``road_x`` and ``road_y`` are the roads of ``x`` and ``y``; a triple
    that does not compose breaks PR14_TRANS.
    """
    return z.frame(road_x, r_xw) in COMPOSITION[(z.frame(road_x, r_xy), z.frame(road_y, r_yw))]


def check_scene(scene: Scene, n: RoadNetwork, step: int = 1) -> list[Violation]:
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

    # overlap windows: support, copy/symmetry, head-on exclusion,
    # cross-vehicle consistency inside one window
    inside: list[tuple[OverlapZone, list[str]]] = []
    for z in n.zones:
        members = [c for c in vehicles if z.holds_inside(road_of[c], c, scene.prel)]
        inside.append((z, members))
        for x, y in combinations(members, 2):
            rx, ry = road_of[x], road_of[y]
            oxy, oyx = scene.orel.get((x, y)), scene.orel.get((y, x))
            if oxy is None or oyx is None:
                add(RuleId.PR13, x, y)
                continue
            if z.orientation[rx] == z.orientation[ry]:
                if rx == ry and (oxy is not scene.vrel_of(x, y) or oyx is not scene.vrel_of(y, x)):
                    add(RuleId.PR13, x, y)
            elif oxy is C and (scene.occ_of(x) & z.carrying) and (scene.occ_of(y) & z.carrying):
                add(RuleId.PR13, x, y)
        # relation triangle inside the window, judged along the window axis
        for x, y, w in permutations(members, 3):
            r1 = scene.orel.get((x, y))
            r2 = scene.orel.get((y, w))
            r3 = scene.orel.get((x, w))
            if r1 is None or r2 is None or r3 is None:
                continue
            if not window_composes(z, road_of[x], road_of[y], r1, r2, r3):
                add(RuleId.PR14_TRANS, x, y, w)

    for (x, y), v in scene.orel.items():
        if x == y:
            add(RuleId.WF, "self_relation", x)
            continue
        if x not in vset or y not in vset:
            add(RuleId.WF, "unknown_vehicle", x if x not in vset else y)
            continue
        z = next((z for z, members in inside if x in members and y in members), None)
        if z is None:
            add(RuleId.WF, "unsupported_lonro", x, y)
            continue
        if scene.orel.get((y, x)) is not z.mirror(road_of[x], road_of[y], v):
            add(RuleId.PR14_SYM, *sorted((x, y)))
    return out


# -- transition-level checking -------------------------------------------------


def check_transition(prev: Scene, next_: Scene, n: RoadNetwork, step: int = 1) -> list[Violation]:
    """All violations of the one-step evolution rules between two scenes."""
    found: set[tuple] = set()
    out: list[Violation] = []

    def add(rule: RuleId, *witnesses: str) -> None:
        key = (rule, witnesses)
        if key not in found:
            found.add(key)
            out.append(Violation(rule, step, witnesses, step2=step + 1))

    if prev == next_:
        add(RuleId.WF, "stutter")

    vehicles = sorted(set(prev.occ) | set(next_.occ))

    for x_i in range(len(vehicles)):
        for y_i in range(x_i + 1, len(vehicles)):
            x, y = vehicles[x_i], vehicles[y_i]
            u, v = prev.vrel_of(x, y), next_.vrel_of(x, y)
            if u is not N and v is not N and v not in VREL_NEXT[u]:
                add(RuleId.PR4, x, y)

    road_p: dict[str, Optional[str]] = {}
    road_n: dict[str, Optional[str]] = {}
    for c in vehicles:
        lp, ln = prev.occ_of(c), next_.occ_of(c)
        rp = road_p[c] = n.road_of(lp)
        rn = road_n[c] = n.road_of(ln)
        if rp is None or rn is None:
            continue  # malformed occupancy is a scene-level finding
        if rp == rn:
            if len(lp ^ ln) > 1:
                add(RuleId.PR7, c)
        else:
            # A road change must be an atomic hop through a covered
            # connection point onto one of its successor lanes.
            licensed = False
            if len(lp) == 1 and len(ln) == 1:
                (l1,), (l2,) = lp, ln
                for p in n.connections_on(l1):
                    if prev.prel_of(c, p) is C and (p, l2) in n.succ_c:
                        licensed = True
                        break
            if not licensed:
                add(RuleId.PR7, c)

    seen_pp = set(prev.prel) | set(next_.prel)
    for c, p in sorted(seen_pp):
        u, v = prev.prel_of(c, p), next_.prel_of(c, p)
        if u is not N and v is not N and v not in PREL_NEXT[u]:
            add(RuleId.PR9, c, p)

    for c in vehicles:
        for l1 in sorted(prev.occ_of(c)):
            for p in n.connections_on(l1):
                if prev.prel_of(c, p) is not C:
                    continue
                stays = next_.prel_of(c, p) is C and l1 in next_.occ_of(c)
                crosses = next_.prel_of(c, p) is A and any(
                    l2 in next_.occ_of(c) for l2 in n.successor_lanes(p)
                )
                if not (stays or crosses):
                    add(RuleId.PR12, c, p)

    # window relations evolve monotonically for opposed traffic: once two
    # vehicles heading toward each other have met, they can only separate;
    # traffic the same way evolves as on one road (PR4's table)
    for z in n.zones:
        inside = [
            c
            for c in vehicles
            if z.holds_inside(road_p[c], c, prev.prel) and z.holds_inside(road_n[c], c, next_.prel)
        ]
        for x, y in combinations(inside, 2):
            u, v = prev.orel.get((x, y)), next_.orel.get((x, y))
            if u is None or v is None:
                continue
            if z.orientation[road_p[x]] != z.orientation[road_p[y]]:
                ok = z.frame(road_n[x], v) in PREL_NEXT[z.frame(road_p[x], u)]
            else:  # on one road the copy rule (PR13) leaves this to PR4
                ok = road_p[x] == road_p[y] or v in VREL_NEXT[u]
            if not ok:
                add(RuleId.PR14_CONT, x, y)
    return out


def check_scenario(sc: Scenario, verdicts: Optional[dict] = None) -> list[Violation]:
    """Scene checks at every step plus transition checks between steps.

    ``verdicts`` caches each `check_scene` result under its scene and each
    `check_transition` result under its ``(prev, next_)`` pair, both made
    at step 1 and re-stamped with the step they occur at.  Pass one dict
    to check many scenarios that share scenes, and each distinct scene and
    transition is checked once.  A dict is valid for one network only.
    """
    if verdicts is None:
        verdicts = {}
    out: list[Violation] = []
    n = sc.network
    for k, scene in enumerate(sc.scenes, start=1):
        if sc.vehicles != scene.occ.keys():
            for c in sorted(sc.vehicles ^ scene.occ.keys()):
                out.append(Violation(RuleId.WF, k, ("universe", c)))
        found = verdicts.get(scene)
        if found is None:
            found = verdicts[scene] = check_scene(scene, n)
        if found:
            out.extend(_at_step(found, k))
    for k, pair in enumerate(zip(sc.scenes, sc.scenes[1:]), start=1):
        found = verdicts.get(pair)
        if found is None:
            found = verdicts[pair] = check_transition(*pair, n)
        if found:
            out.extend(_at_step(found, k))
    return out


def _at_step(found: list[Violation], step: int) -> list[Violation]:
    """Violations found at step 1, moved to ``step``."""
    return [replace(v, step=step, step2=None if v.step2 is None else step + 1) for v in found]

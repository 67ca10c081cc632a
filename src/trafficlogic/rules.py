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

Overlap windows have one owner per decision: `RoadNetwork.window_members`
says which vehicles each window holds, and `window_values` (PR13) and
`window_breaks` (the window triangles of PR14_TRANS) judge one window;
`check_scene` and the successor generator both call them.  So do vehicle
triangles: `triangle_rule` (PR2, PR3) judges one, and the generator's
table of admissible triples is derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional

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


def triangle_rule(xy: LonRel, yz: LonRel, xz: LonRel, zx: LonRel) -> Optional[RuleId]:
    """The rule the vehicle triple ``(x, y, z)`` breaks, PR2 or PR3, given its ``lonr`` values or NONE.

    PR2: ahead twice (or behind twice) fixes a present ``lonr(x, z)``.  PR3:
    ``x`` ahead of ``y`` covering ``z`` forbids ``lonr(z, x) = ahead``.  The
    two read different orientations, which differ where PR1 breaks.
    """
    if xy is yz and xy in (A, B) and xz not in (N, xy):
        return RuleId.PR2
    if xy is A and yz is C and zx is A:
        return RuleId.PR3
    return None


def window_values(
    z: OverlapZone, road_x: str, road_y: str, carried: bool, v_xy: Optional[LonRel]
) -> tuple[LonRel, ...]:
    """PR13: the stored values ``orel(x, y)`` may take in window ``z``, in the window's frame order.

    ``x`` and ``y`` are on ``road_x`` and ``road_y``, ``v_xy`` is their
    ``vrel(x, y)`` and ``carried`` whether both occupy carrying lanes of
    ``z``: on one road the value copies ``v_xy``, opposed it is no cover.
    """
    if z.orientation[road_x] == z.orientation[road_y]:
        return (v_xy,) if road_x == road_y else (A, C, B)
    return tuple(z.frame(road_x, v) for v in ((A, B) if carried else (A, C, B)))


def window_breaks(z: OverlapZone, road_of, members, orel) -> Iterator[tuple[str, str, str]]:
    """PR14_TRANS in window ``z``: each ordered triple of ``members`` whose relations do not compose.

    They are read along the window axis, ``road_of`` giving the roads; a
    triple with a relation missing from ``orel`` is PR13's finding.
    """
    for x, y, w in permutations(members, 3):
        r_xy, r_yw, r_xw = orel.get((x, y)), orel.get((y, w)), orel.get((x, w))
        if None not in (r_xy, r_yw, r_xw) and z.frame(road_of[x], r_xw) not in COMPOSITION[
            z.frame(road_of[x], r_xy), z.frame(road_of[y], r_yw)
        ]:
            yield x, y, w


def check_scene(scene: Scene, n: RoadNetwork, step: int = 1) -> list[Violation]:
    """All per-scene rule violations, deduplicated, in the order first found."""
    found: dict[tuple[RuleId, tuple[str, ...]], None] = {}

    vehicles = scene.vehicles
    vset = set(vehicles)
    road_of: dict[str, Optional[str]] = {}

    for c in vehicles:
        occ = scene.occ_of(c)
        lanes = frozenset(l for l in occ if n.road_of_lane(l) is not None)
        for l in occ:
            if l not in lanes:
                found.setdefault((RuleId.WF, ("unknown_lane", c, l)))
        if not occ:
            found.setdefault((RuleId.PR6, (c,)))
        if len(occ) > 2:
            found.setdefault((RuleId.TR1, (c,)))
        road_of[c] = n.road_of(occ)
        if lanes and road_of[c] is None:
            found.setdefault((RuleId.PR8, (c,)))
        if road_of[c] is not None and len(lanes) > 1:
            idx = sorted(n.lane_index(l) for l in lanes)
            if idx[-1] - idx[0] != len(idx) - 1:
                found.setdefault((RuleId.PR5, (c,)))

    # vehicle-vehicle relation: symmetry, support, transitivity, cycles
    for x, y in combinations(vehicles, 2):
        vxy, vyx = scene.vrel.get((x, y)), scene.vrel.get((y, x))
        if (vxy is None) != (vyx is None) or (vxy is not None and vyx is not invert(vxy)):
            found.setdefault((RuleId.PR1, (x, y)))
        rx, ry = road_of[x], road_of[y]
        if rx is not None and ry is not None:
            if rx == ry and vxy is None and vyx is None:
                found.setdefault((RuleId.WF, ("missing_lonr", x, y)))
            if rx != ry and (vxy is not None or vyx is not None):
                found.setdefault((RuleId.WF, ("crossroad_lonr", x, y)))
        shared = scene.occ_of(x) & scene.occ_of(y)
        if shared and (vxy is C or vyx is C):
            found.setdefault((RuleId.TR2, (x, y)))
    for (x, y), v in scene.vrel.items():
        if x == y:
            found.setdefault((RuleId.WF, ("self_relation", x)))
        for z in (x, y):
            if z not in vset:
                found.setdefault((RuleId.WF, ("unknown_vehicle", z)))
    vrel_of = scene.vrel_of
    for x, y, z in permutations(vehicles, 3):
        rule = triangle_rule(vrel_of(x, y), vrel_of(y, z), vrel_of(x, z), vrel_of(z, x))
        if rule is not None:
            found.setdefault((rule, (x, y, z)))

    # vehicle-point relations: totality on the own road, no strays
    for c in vehicles:
        rid = road_of[c]
        if rid is None:
            continue
        for p in n.sorted_points_of_road(rid):
            if scene.prel_of(c, p) is N:
                found.setdefault((RuleId.PR10, (c, p)))
    for (c, p), v in scene.prel.items():
        if c not in vset:
            found.setdefault((RuleId.WF, ("unknown_vehicle", c)))
            continue
        if p not in n.points:
            found.setdefault((RuleId.WF, ("unknown_point", c, p)))
            continue
        rid = road_of[c]
        if rid is not None and p not in n.points_of_road(rid):
            found.setdefault((RuleId.WF, ("unsupported_lonpr", c, p)))

    # point-cover exclusivity: two vehicles may not cover the same point
    # while both occupy lanes the point lies on
    for p in sorted({p for (c, p), v in scene.prel.items() if v is C}):
        plane = n.lanes_of_point(p)
        coverers = [
            c for c in vehicles if scene.prel_of(c, p) is C and (scene.occ_of(c) & plane)
        ]
        for x, y in combinations(coverers, 2):
            found.setdefault((RuleId.PR11, (x, y, p)))

    # per-lane point order vs one vehicle's relations; mixed transitivity
    for c in vehicles:
        rid = road_of[c]
        if rid is None:
            continue
        for l in n.road(rid).lanes:
            for p1, p2 in sorted(n.lane_order_pairs(l)):
                if (scene.prel_of(c, p1), scene.prel_of(c, p2)) in ORDER_FORBIDDEN:
                    found.setdefault((RuleId.PR14_TRANS, (c, p1, p2)))
    for x, y in permutations(vehicles, 2):
        rx, ry = road_of[x], road_of[y]
        if rx is None or rx != ry:
            continue
        vxy = scene.vrel_of(x, y)
        if vxy is N:
            continue
        for p in n.sorted_points_of_road(rx):
            px, py = scene.prel_of(x, p), scene.prel_of(y, p)
            if (vxy, py, px) in MIXED_FORBIDDEN:
                found.setdefault((RuleId.PR14_TRANS, (x, y, p)))

    # overlap windows, per window: support, copy and head-on exclusion
    # (PR13), and relation triangles (PR14_TRANS); the generator makes the
    # same two judgments, `window_values` and `window_breaks`
    inside, held = n.window_members(road_of, scene.prel)
    for z, members in inside:
        for x, y in combinations(members, 2):
            rx, ry = road_of[x], road_of[y]
            carried = bool(scene.occ_of(x) & z.carrying and scene.occ_of(y) & z.carrying)
            if scene.orel.get((x, y)) not in window_values(z, rx, ry, carried, scene.vrel_of(x, y)) or (
                scene.orel.get((y, x)) not in window_values(z, ry, rx, carried, scene.vrel_of(y, x))
            ):
                found.setdefault((RuleId.PR13, (x, y)))
        for tri in window_breaks(z, road_of, members, scene.orel):
            found.setdefault((RuleId.PR14_TRANS, tri))

    for (x, y), v in scene.orel.items():
        if x == y:
            found.setdefault((RuleId.WF, ("self_relation", x)))
            continue
        if x not in vset or y not in vset:
            found.setdefault((RuleId.WF, ("unknown_vehicle", x if x not in vset else y)))
            continue
        zs = held.get((x, y) if x < y else (y, x))
        if zs is None:
            found.setdefault((RuleId.WF, ("unsupported_lonro", x, y)))
            continue
        if scene.orel.get((y, x)) is not zs[0].mirror(road_of[x], road_of[y], v):
            found.setdefault((RuleId.PR14_SYM, tuple(sorted((x, y)))))
    return [Violation(rule, step, witnesses) for rule, witnesses in found]


# -- transition-level checking -------------------------------------------------


def vrel_step_ok(prev: Scene, x: str, y: str, v: LonRel) -> bool:
    """PR4 for the vehicle pair ``(x, y)``: whether ``vrel(x, y)`` may step to ``v``."""
    u = prev.vrel_of(x, y)
    return u is N or v is N or v in VREL_NEXT[u]


def occ_step_ok(
    prev: Scene, c: str, ln: frozenset[str], rp: Optional[str], rn: Optional[str], n: RoadNetwork
) -> bool:
    """PR7 for vehicle ``c``: whether its occupancy may step to the lanes ``ln``.

    ``rp`` and ``rn`` are the roads (`RoadNetwork.road_of`) of ``c``'s
    lanes in ``prev`` and of ``ln``.  On one road, at most one lane is
    gained or lost.  A road change must be an atomic hop through a covered
    connection point onto one of its successor lanes.  Malformed occupancy
    is a scene-level finding.
    """
    lp = prev.occ_of(c)
    if rp is None or rn is None:
        return True
    if rp == rn:
        return len(lp ^ ln) <= 1
    if len(lp) != 1 or len(ln) != 1:
        return False
    (l1,), (l2,) = lp, ln
    return any(prev.prel_of(c, p) is C and (p, l2) in n.succ_c for p in n.connections_on(l1))


def prel_step_ok(prev: Scene, c: str, p: str, v: LonRel) -> bool:
    """PR9 for vehicle ``c`` and point ``p``: whether ``lonpr(c, p)`` may step to ``v``."""
    u = prev.prel_of(c, p)
    return u is N or v is N or v in PREL_NEXT[u]


def covered_connections(prev: Scene, c: str, n: RoadNetwork) -> list[tuple[str, str]]:
    """The PR12 scopes of ``c``: each (lane, connection point on it) that ``c`` covers in ``prev``."""
    return [
        (l1, p) for l1 in sorted(prev.occ_of(c)) for p in n.connections_on(l1) if prev.prel_of(c, p) is C
    ]


def connection_step_ok(l1: str, p: str, ln: frozenset[str], v: LonRel, n: RoadNetwork) -> bool:
    """PR12 for a vehicle that covers connection ``p`` on lane ``l1`` (see `covered_connections`).

    With next occupancy ``ln`` and next relation ``v`` to ``p``, the vehicle
    either still covers ``p`` on ``l1`` or is past it on a successor lane.
    """
    if v is C:
        return l1 in ln
    return v is A and any(l2 in ln for l2 in n.successor_lanes(p))


def window_step_ok(
    prev: Scene,
    z: OverlapZone,
    x: str,
    y: str,
    road_px: str,
    road_py: str,
    road_nx: str,
    v: Optional[LonRel],
) -> bool:
    """PR14_CONT for ``x`` and ``y``, both inside window ``z`` in ``prev`` and in the next scene.

    ``road_px`` and ``road_py`` are their roads in ``prev``, ``road_nx`` is
    ``x``'s next road and ``v`` the next stored ``orel(x, y)``.  Opposed
    traffic (by the previous roads) evolves monotonically in the window
    frame: once two vehicles heading toward each other have met, they can
    only separate.  Traffic the same way evolves as on one road (PR4's
    table); on one road the copy rule (PR13) leaves this to PR4.
    """
    u = prev.orel.get((x, y))
    if u is None or v is None:
        return True
    if z.orientation[road_px] != z.orientation[road_py]:
        return z.frame(road_nx, v) in PREL_NEXT[z.frame(road_px, u)]
    return road_px == road_py or v in VREL_NEXT[u]


def check_transition(prev: Scene, next_: Scene, n: RoadNetwork, step: int = 1) -> list[Violation]:
    """All violations of the one-step evolution rules between two scenes.

    Each rule is judged once per scope, by the function the successor
    generator also calls (`reasoner._gen_successors`):

    * WF ``stutter``: the scene pair;
    * PR4, `vrel_step_ok`: a vehicle pair;
    * PR7, `occ_step_ok`: a vehicle and its next occupancy;
    * PR9, `prel_step_ok`: a vehicle and a point;
    * PR12, `connection_step_ok`: a vehicle, a connection it covers (see
      `covered_connections`), its next occupancy and its next relation to
      that point;
    * PR14_CONT, `window_step_ok`: a vehicle pair inside one window at
      both steps.
    """
    found: dict[tuple[RuleId, tuple[str, ...]], None] = {}

    if prev == next_:
        found.setdefault((RuleId.WF, ("stutter",)))

    vehicles = sorted(set(prev.occ) | set(next_.occ))
    for x, y in combinations(vehicles, 2):
        if not vrel_step_ok(prev, x, y, next_.vrel_of(x, y)):
            found.setdefault((RuleId.PR4, (x, y)))
    road_p = {c: n.road_of(prev.occ_of(c)) for c in vehicles}
    road_n = {c: n.road_of(next_.occ_of(c)) for c in vehicles}
    for c in vehicles:
        if not occ_step_ok(prev, c, next_.occ_of(c), road_p[c], road_n[c], n):
            found.setdefault((RuleId.PR7, (c,)))
    for c, p in sorted(set(prev.prel) | set(next_.prel)):
        if not prel_step_ok(prev, c, p, next_.prel_of(c, p)):
            found.setdefault((RuleId.PR9, (c, p)))
    for c in vehicles:
        for l1, p in covered_connections(prev, c, n):
            if not connection_step_ok(l1, p, next_.occ_of(c), next_.prel_of(c, p), n):
                found.setdefault((RuleId.PR12, (c, p)))
    before, after = n.window_members(road_p, prev.prel)[0], n.window_members(road_n, next_.prel)[0]
    for (z, inside_p), (_, inside_n) in zip(before, after):
        for x, y in combinations([c for c in inside_p if c in inside_n], 2):
            if not window_step_ok(prev, z, x, y, road_p[x], road_p[y], road_n[x], next_.orel.get((x, y))):
                found.setdefault((RuleId.PR14_CONT, (x, y)))
    return [Violation(rule, step, witnesses, step2=step + 1) for rule, witnesses in found]


def check_scenario(sc: Scenario, verdicts: Optional[dict] = None) -> list[Violation]:
    """Scene checks at every step plus transition checks between steps.

    ``verdicts`` caches, per network, each `check_scene` result under its
    scene and each `check_transition` result under its ``(prev, next_)``
    pair, both made at step 1 and re-stamped with the step they occur at.
    Pass one dict to check many scenarios that share scenes, and each
    distinct scene and transition is checked once per network.
    """
    n = sc.network
    verdicts = {} if verdicts is None else verdicts.setdefault(n, {})
    out: list[Violation] = []
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

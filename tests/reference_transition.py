"""The whole-scene transition checker, kept as a reference.

This is ``rules.check_transition`` as it was before it was split into one
judgment per rule scope, which the successor generator now shares:
every transition rule is judged here in one pass over the two scenes.
``tests/test_successors.py`` (every scene and full-product candidate of its
families) and ``tests/test_rules.py`` (fuzzed scene pairs) assert that both
give the identical violation list, order included;
``tests/reference_successors.py`` judges its candidates with it.  Only the
rule tables and the domain types are shared with `rules`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from trafficlogic.domain import LonRel, RoadNetwork, Scene
from trafficlogic.rules import PREL_NEXT, VREL_NEXT, RuleId, Violation

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE


def reference_transition(prev: Scene, next_: Scene, n: RoadNetwork, step: int = 1) -> list[Violation]:
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

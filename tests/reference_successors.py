"""Generate-and-test successor generation, kept as a reference.

This is the engine's former successor loop: it builds the full product of
every relation slot's candidate values, makes a ``Scene`` for each one and
only then asks the rule checkers.  The engine now rejects partial
assignments early and judges the transition rules per scope before any
candidate is built; ``tests/test_successors.py`` asserts that both give
the same successor tuple, order included.  Deliberately self-contained:
nothing but the domain types and ``rules.check_scene`` is shared with the
engine, and transitions are judged by the whole-scene
``tests/reference_transition.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Optional

from trafficlogic.domain import LonRel, RoadNetwork, Scene, invert
from trafficlogic.rules import PREL_NEXT, check_scene

from reference_transition import reference_transition

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE

_VREL_STEPS = {A: (A, C), C: (A, C, B), B: (B, C)}
_PREL_STEPS = {B: (B, C), C: (C, A), A: (A,)}
_ALL3 = (A, C, B)


def _occ_options(scene: Scene, n: RoadNetwork, c: str, frozen: frozenset[str]):
    cur = scene.occ_of(c)
    opts: list[frozenset[str]] = [cur]
    if c in frozen:
        return opts
    if len(cur) == 1:
        (l,) = cur
        for adj in n.adjacent_lanes(l):
            opts.append(frozenset((l, adj)))
        for p in n.connections_on(l):
            if scene.prel_of(c, p) is C:
                for l2 in n.successor_lanes(p):
                    opts.append(frozenset((l2,)))
    elif len(cur) == 2:
        for l in sorted(cur):
            opts.append(frozenset((l,)))
    return opts


def reference_successors(
    scene: Scene,
    n: RoadNetwork,
    frozen: frozenset[str],
    prel_pins: Mapping[tuple[str, str], frozenset[LonRel]],
) -> tuple[Scene, ...]:
    """All valid, non-stuttering next scenes, by generate-and-test.

    Same arguments as ``reasoner._gen_successors``.
    """
    results: dict = {}
    order: list[Scene] = []
    for cand in reference_candidates(scene, n, frozen, prel_pins):
        if cand == scene or cand.key() in results:
            continue
        if check_scene(cand, n) or reference_transition(scene, cand, n):
            continue
        results[cand.key()] = cand
        order.append(cand)
    return tuple(order)


def reference_candidates(
    scene: Scene,
    n: RoadNetwork,
    frozen: frozenset[str],
    prel_pins: Mapping[tuple[str, str], frozenset[LonRel]],
) -> Iterator[Scene]:
    """Every candidate next scene of the full product, in order, before any rule is checked."""
    vehicles = scene.vehicles
    prev_road = {c: _road(scene, n, c) for c in vehicles}
    occ_lists = [_occ_options(scene, n, c, frozen) for c in vehicles]
    for occ_combo in product(*occ_lists):
        occ = dict(zip(vehicles, occ_combo))
        road = {}
        for c, ls in occ.items():
            rs = {n.road_of_lane(l) for l in ls} - {None}
            road[c] = next(iter(rs)) if len(rs) == 1 else None
        # vehicle-vehicle relation slots (same-road pairs only)
        vrel_slots: list[tuple[str, str]] = []
        vrel_cands: list[tuple[LonRel, ...]] = []
        for i, x in enumerate(vehicles):
            for y in vehicles[i + 1 :]:
                if road[x] is None or road[x] != road[y]:
                    continue
                u = scene.vrel_of(x, y)
                vrel_slots.append((x, y))
                vrel_cands.append(_VREL_STEPS[u] if u is not N else _ALL3)
        # vehicle-point slots (points carried by the vehicle's road)
        prel_slots: list[tuple[str, str]] = []
        prel_cands: list[tuple[LonRel, ...]] = []
        dead = False
        for c in vehicles:
            rid = road[c]
            if rid is None:
                continue
            for p in sorted(n.points_of_road(rid)):
                u = scene.prel_of(c, p)
                cands = _PREL_STEPS[u] if u is not N else _ALL3
                pin = prel_pins.get((c, p))
                if pin is not None:
                    cands = tuple(v for v in cands if v in pin)
                if not cands:
                    dead = True
                    break
                prel_slots.append((c, p))
                prel_cands.append(cands)
            if dead:
                break
        if dead:
            continue
        for vrel_combo in product(*vrel_cands):
            vrel: dict[tuple[str, str], LonRel] = {}
            for (x, y), v in zip(vrel_slots, vrel_combo):
                vrel[(x, y)] = v
                vrel[(y, x)] = invert(v)
            for prel_combo in product(*prel_cands):
                prel = dict(zip(prel_slots, prel_combo))
                pscene = _ProtoScene(occ, road, vrel, prel)
                for orel in _orel_assignments(scene, n, pscene, prev_road):
                    yield Scene(occ, vrel, prel, orel)


@dataclass
class _ProtoScene:
    occ: dict
    road: dict
    vrel: dict
    prel: dict

    def prel_of(self, c, p):
        return self.prel.get((c, p), N)


def _road(scene: Scene, n: RoadNetwork, c: str) -> Optional[str]:
    roads = {n.road_of_lane(l) for l in scene.occ_of(c)} - {None}
    return next(iter(roads)) if len(roads) == 1 else None


def _engaged_proto(n, proto, c, z) -> bool:
    rid = proto.road.get(c)
    if rid is None:
        return False
    ee = z.entry_exit_for(rid)
    if ee is None:
        return False
    return proto.prel_of(c, ee[0]) is A and proto.prel_of(c, ee[1]) is B


def _orel_assignments(scene, n, proto, prev_road):
    """Yield every admissible window-relation map for a candidate scene."""
    vehicles = sorted(proto.occ)
    pair_zones: dict[tuple[str, str], list] = {}
    for z in n.zones:
        members = [c for c in vehicles if _engaged_proto(n, proto, c, z)]
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                pair_zones.setdefault((x, y), []).append(z)
    slots: list[tuple[str, str]] = []
    cand_lists: list[tuple[LonRel, ...]] = []
    mirrors: list[bool] = []  # True = mirror by inversion (same direction)
    forced: dict[tuple[str, str], LonRel] = {}
    for (x, y), zs in sorted(pair_zones.items()):
        z0 = zs[0]
        ox, oy = z0.orientation[proto.road[x]], z0.orientation[proto.road[y]]
        if ox == oy:
            if proto.road[x] == proto.road[y]:
                v = proto.vrel.get((x, y))
                if v is None:
                    return  # same road without a relation never survives checking
                forced[(x, y)] = v
                forced[(y, x)] = invert(v)
                continue
            cands: tuple[LonRel, ...] = _ALL3
            mirror_invert = True
        else:
            # opposed traffic: candidates restricted by monotone continuity
            # in the window frame for every window engaged on both steps
            ref_cands = set(_ALL3)
            for z in zs:
                if _engaged_prev(scene, n, x, prev_road.get(x), z) and _engaged_prev(
                    scene, n, y, prev_road.get(y), z
                ):
                    u = scene.orel.get((x, y))
                    if u is not None:
                        o_prev = z.orientation.get(prev_road.get(x))
                        if o_prev is not None:
                            u_ref = u if o_prev > 0 else invert(u)
                            ref_cands &= PREL_NEXT[u_ref]
            cands = tuple(v if ox > 0 else invert(v) for v in _ALL3 if v in ref_cands)
            mirror_invert = False
        if not cands:
            return
        slots.append((x, y))
        cand_lists.append(cands)
        mirrors.append(mirror_invert)
    for combo in product(*cand_lists):
        orel = dict(forced)
        for (x, y), v, inv in zip(slots, combo, mirrors):
            orel[(x, y)] = v
            orel[(y, x)] = invert(v) if inv else v
        yield orel


def _engaged_prev(scene, n, c, rid, z) -> bool:
    if rid is None:
        return False
    ee = z.entry_exit_for(rid)
    if ee is None:
        return False
    return scene.prel_of(c, ee[0]) is A and scene.prel_of(c, ee[1]) is B

"""Bounded enumeration of every rule-conforming scenario.

Given an initial scene, a road network and a horizon, `expand` finds all
scenarios (scene sequences) that satisfy every scene and transition rule,
optionally filtered by a final-scene goal.  Two modes:

* ``exact``    — all scenarios of exactly ``horizon`` scenes;
* ``shortest`` — all goal-satisfying scenarios of the minimal length
  T* ≤ horizon.

The search is layered, as in bounded model checking: a forward pass
builds one layer of distinct scenes per step, sharing one successor memo
across every depth, and stops at the last layer (``horizon`` scenes, or in
shortest mode the first layer holding an acceptable final scene).  A
backward pass keeps the (scene, depth) pairs that can still reach an
acceptable final scene, and paths are enumerated iteratively through those
pairs only, so the work is proportional to the output.

Successor scenes are generated constructively: each relation slot gets
its candidate one-step moves, and the slots are assigned in a fixed order
(vehicle pairs, vehicle-point pairs, window pairs).  A partial assignment
is dropped as soon as the slots set so far break a scene rule it can
already decide: cover on a shared lane (TR2), composition of three vehicle
relations (PR2, PR3), point-cover exclusivity (PR11), and point order and
mixed transitivity (PR14_TRANS).  These are the triangle tests of path
consistency over the qualitative point algebra, applied to each partial
assignment; window relations are tested the same way once a window map is
complete, and opposed vehicles on a window's carrying lanes get no cover
(PR13).  Only complete survivors become scenes, and `check_scene`, which
stays authoritative, still judges each one.  Its verdicts are shared
across one `expand`: a candidate reached from several parents is judged
once.

The transition rules are judged before any candidate is built, once per
parent and scope value, by the same judgments `check_transition` is made
of (see `rules`): PR7 per (vehicle, next occupancy) filters the
occupancy options; PR9 per (vehicle, point) and PR12 per (vehicle,
covered connection, next occupancy) filter the vehicle-point slot values,
and an occupancy whose road does not carry a covered connection is
dropped; PR4 per vehicle pair filters the vehicle-pair slot values; and
PR14_CONT per (window, vehicle pair) filters the window values.  So every
candidate passes `check_transition`, which the generator never calls.
Successors never stutter: consecutive scenes always differ, because steps
carry order, not duration.

A goal constrains the final scene only, with one exception: a positive
``lonpr(c, p, behind)`` goal atom pins slot (c, p) to ``behind`` at every
step, and ``lonpr(c, p, cover)`` to ``behind`` or ``cover``.  This is sound
because `PREL_NEXT` is monotone (behind, cover, ahead) while a vehicle stays
on its road, which holds on a network without connections, the only kind
that gets pins.  No other goal atom pins anything.

In shortest mode the final scene is additionally required to be *steady*
(every vehicle on exactly one lane) unless the request says ``#final
any`` — mid-lane-change endings would otherwise multiply every result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Mapping, Optional

from trafficlogic.domain import (
    LonRel,
    OverlapZone,
    RoadNetwork,
    Scenario,
    Scene,
    invert,
)
from trafficlogic.facts import (
    ParseError,
    NetworkBuilder,
    parse_atom,
    parse_scene_atom,
    render_scenario,
    scene_from_atoms,
    strip_comment,
)
from trafficlogic.rules import (  # noqa: F401 - check_transition: the benchmark's tracer wraps it here
    COMPOSITION,
    MIXED_FORBIDDEN,
    ORDER_FORBIDDEN,
    check_scene,
    check_transition,
    connection_step_ok,
    covered_connections,
    occ_step_ok,
    prel_step_ok,
    vrel_step_ok,
    window_composes,
    window_step_ok,
)

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE

_ALL3 = (A, C, B)
#: a relation slot's values in the order successors are enumerated, by the
#: slot's value in the parent (`_ALL3` when it is not listed or NONE);
#: PR4 and PR9 then drop the values the parent's value cannot step to
_VREL_ORDER = {B: (B, C, A)}
_PREL_ORDER = {B: (B, C, A), C: (C, A, B)}


class RequestError(ValueError):
    """A request that parses but cannot be executed (unknown ids etc.)."""


@dataclass(frozen=True)
class GoalAtom:
    kind: str  # on | lonr | lonpr | lonro
    args: tuple[str, ...]
    rel: Optional[LonRel]  # None for `on`
    negated: bool = False

    def holds(self, scene: Scene) -> bool:
        if self.kind == "on":
            ok = self.args[1] in scene.occ_of(self.args[0])
        elif self.kind == "lonr":
            ok = scene.vrel_of(self.args[0], self.args[1]) is self.rel
        elif self.kind == "lonpr":
            ok = scene.prel_of(self.args[0], self.args[1]) is self.rel
        else:
            ok = scene.orel_of(self.args[0], self.args[1]) is self.rel
        return not ok if self.negated else ok


@dataclass(frozen=True)
class Goal:
    """Conjunction of ground literals over the final scene."""

    atoms: tuple[GoalAtom, ...]

    def holds(self, scene: Scene) -> bool:
        return all(a.holds(scene) for a in self.atoms)


@dataclass
class ExpansionRequest:
    initial: Scene
    network: RoadNetwork
    vehicles: frozenset[str]
    horizon: int
    mode: str = "exact"  # exact | shortest
    goal: Optional[Goal] = None
    frozen: frozenset[str] = frozenset()
    final_stable: Optional[bool] = None  # None = mode default


@dataclass
class Stats:
    nodes: int = 0  # distinct (scene, depth) pairs the forward pass reached
    pruned: int = 0  # of those, the pairs no acceptable final scene is reachable from
    wall_time_s: float = 0.0


@dataclass
class ExpansionResult:
    scenarios: tuple[Scenario, ...]
    stats: Stats
    #: ``facts.render_scenario`` of each scenario, in the same order
    texts: tuple[str, ...]

    @property
    def shortest_length(self) -> Optional[int]:
        return self.scenarios[0].horizon if self.scenarios else None


def canonicalize(sc: Scenario) -> str:
    """Alias of `facts.render_scenario`, which the oracle and the acceptance tests import."""
    return render_scenario(sc)


# -- successor generation ------------------------------------------------------


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


def _consistent(cands: list[tuple[LonRel, ...]], checks: list[list]):
    """Every assignment of the slots, in product order, that passes its checks.

    ``cands[i]`` lists slot i's values.  ``checks[i]`` holds ``(slots,
    allowed)`` pairs whose highest slot is i, tested as soon as slot i is
    set: the values of ``slots``, in that order, must be in ``allowed``.  A
    partial assignment that fails a check is abandoned with everything
    below it.
    """
    if not cands:
        yield ()
        return
    vals: list = [None] * len(cands)
    get = vals.__getitem__
    branches = [iter(cands[0])]
    while branches:
        i = len(branches) - 1
        tests = checks[i]
        for v in branches[-1]:
            vals[i] = v
            if not tests or all(tuple(map(get, slots)) in allowed for slots, allowed in tests):
                break
        else:
            branches.pop()
            continue
        if i + 1 == len(cands):
            yield tuple(vals)
        else:
            branches.append(iter(cands[i + 1]))


def _add_check(checks: list[list], slots: tuple[int, ...], allowed) -> None:
    checks[max(slots)].append((slots, allowed))


def _vrel_composes(xy: LonRel, xz: LonRel, yz: LonRel) -> bool:
    rel = {(0, 1): xy, (0, 2): xz, (1, 2): yz}
    rel.update({(b, a): invert(v) for (a, b), v in rel.items()})
    return all(rel[a, c] in COMPOSITION[rel[a, b], rel[b, c]] for a, b, c in permutations(range(3)))


#: (rel(x,y), rel(x,z), rel(y,z)) for three vehicles on one road that pass
#: PR2 and PR3 in every order
_VREL_TRIPLES = frozenset(t for t in product(_ALL3, repeat=3) if _vrel_composes(*t))
#: (rel(x,y), rel(x,p), rel(y,p)) for two vehicles on one road and one of
#: its points that pass mixed transitivity both ways round (PR14_TRANS)
_MIXED_OK = frozenset(
    (v, px, py)
    for v, px, py in product(_ALL3, repeat=3)
    if (v, py, px) not in MIXED_FORBIDDEN and (invert(v), px, py) not in MIXED_FORBIDDEN
)
#: (rel(c,p1), rel(c,p2)) for p1 before p2 on a lane of c's road (PR14_TRANS)
_ORDER_OK = frozenset(product(_ALL3, repeat=2)) - ORDER_FORBIDDEN
#: two vehicles on a point's lanes do not both cover it (PR11)
_NOT_BOTH_COVER = frozenset(product(_ALL3, repeat=2)) - {(C, C)}


def _gen_successors(
    scene: Scene,
    n: RoadNetwork,
    frozen: frozenset[str],
    prel_pins: Mapping[tuple[str, str], frozenset[LonRel]],
    verdicts: Optional[dict[Scene, bool]] = None,
) -> tuple[Scene, ...]:
    """Every valid, non-stuttering successor of ``scene``, in a fixed order.

    The transition rules are judged once per scope and value, by the
    checker's own judgments, before any candidate is built: PR7 and PR12
    pick each vehicle's next occupancies (`_occ_moves`), PR9 and PR12 its
    vehicle-point slot values on each, PR4 the values of each vehicle-pair
    slot, and PR14_CONT each window pair's values (`_window_judge`).  So
    no candidate breaks a transition rule, and `check_transition` is never
    called here.  Per occupancy choice, the relation slots (vehicle pairs,
    then vehicle-point pairs) are assigned in order, and a partial
    assignment is dropped as soon as it breaks TR2, PR2, PR3, PR11 or
    PR14_TRANS; window maps that break PR13 or PR14_TRANS are dropped too.
    The survivors come out in the order of the full product of candidate
    values, and `check_scene` decides the remaining scene rules.
    ``scene`` must pass `check_scene` on ``n``, so that every vehicle is on
    one road in it and in each of its candidates.  ``prel_pins`` narrows
    vehicle-point slots to the values it lists (see `_goal_pins`).

    ``verdicts`` maps each candidate scene already judged by `check_scene` on
    ``n`` to whether it broke a rule; `expand` shares one map across every
    call of a request, so each distinct candidate is judged once.  Without
    it, the call starts a fresh map.
    """
    if verdicts is None:
        verdicts = {}
    vehicles = scene.vehicles
    occ_lists = [_occ_moves(scene, n, c, frozen, prel_pins) for c in vehicles]
    vrel_moves: dict[tuple[str, str], tuple[LonRel, ...]] = {}
    window_ok = _window_judge(scene, n)
    order_pairs: dict[str, frozenset[tuple[str, str]]] = {}
    results: dict = {}
    order: list[Scene] = []
    for moves in product(*occ_lists):
        occ = {c: ls for c, (ls, _, _) in zip(vehicles, moves)}
        road = {c: rid for c, (_, rid, _) in zip(vehicles, moves)}
        cands: list[tuple[LonRel, ...]] = []
        checks: list[list] = []
        # vehicle-vehicle relation slots (same-road pairs only); vehicles
        # sharing a lane cannot be in cover (TR2)
        vslot: dict[tuple[str, str], int] = {}
        for i, x in enumerate(vehicles):
            for y in vehicles[i + 1 :]:
                if road[x] is None or road[x] != road[y]:
                    continue
                vals = vrel_moves.get((x, y))
                if vals is None:
                    order_xy = _VREL_ORDER.get(scene.vrel_of(x, y), _ALL3)
                    vals = vrel_moves[x, y] = tuple(v for v in order_xy if vrel_step_ok(scene, x, y, v))
                if occ[x] & occ[y]:
                    vals = tuple(v for v in vals if v is not C)
                vslot[x, y] = len(cands)
                cands.append(vals)
                checks.append([])
        for (x, y), xy in vslot.items():
            for z in vehicles:
                if (y, z) in vslot and (x, z) in vslot:
                    _add_check(checks, (xy, vslot[x, z], vslot[y, z]), _VREL_TRIPLES)
        n_vrel = len(cands)
        # vehicle-point slots (points carried by the vehicle's road); each
        # vehicle's slots follow the point order of its lanes (PR14_TRANS)
        pslot: dict[tuple[str, str], int] = {}
        for c, (_, rid, slots) in zip(vehicles, moves):
            for p, vals in slots:
                pslot[c, p] = len(cands)
                cands.append(vals)
                checks.append([])
            if rid not in order_pairs:
                order_pairs[rid] = frozenset().union(*map(n.lane_order_pairs, n.road(rid).lanes))
            for p1, p2 in order_pairs[rid]:
                if (c, p1) in pslot and (c, p2) in pslot:
                    _add_check(checks, (pslot[c, p1], pslot[c, p2]), _ORDER_OK)
        # two vehicles at one point: mixed transitivity (PR14_TRANS) and
        # point-cover exclusivity (PR11)
        for (y, p), k in pslot.items():
            plane = n.lanes_of_point(p)
            for x in vehicles:
                if x == y:
                    break
                j = pslot.get((x, p))
                if j is None:
                    continue
                if (x, y) in vslot:
                    _add_check(checks, (vslot[x, y], j, k), _MIXED_OK)
                if occ[x] & plane and occ[y] & plane:
                    _add_check(checks, (j, k), _NOT_BOTH_COVER)
        vrel_slots = list(vslot)
        prel_slots = list(pslot)
        for combo in _consistent(cands, checks):
            vrel: dict[tuple[str, str], LonRel] = {}
            for (x, y), v in zip(vrel_slots, combo):
                vrel[x, y] = v
                vrel[y, x] = invert(v)
            prel = dict(zip(prel_slots, combo[n_vrel:]))
            for orel in _orel_assignments(n, occ, road, vrel, prel, window_ok):
                cand = Scene(occ, vrel, prel, orel)
                if cand == scene or cand.key() in results:
                    continue
                bad = verdicts.get(cand)
                if bad is None:
                    bad = verdicts[cand] = bool(check_scene(cand, n))
                if bad:
                    continue
                results[cand.key()] = cand
                order.append(cand)
    return tuple(order)


def _occ_moves(
    scene: Scene,
    n: RoadNetwork,
    c: str,
    frozen: frozenset[str],
    prel_pins: Mapping[tuple[str, str], frozenset[LonRel]],
):
    """Vehicle ``c``'s next occupancies, each with its vehicle-point slot values.

    One ``(lanes, road, ((p, values), ...))`` per occupancy, over the points
    of its road in sorted order.  An occupancy that breaks PR7 is dropped,
    and so is one whose road does not carry a connection ``c`` covers (PR12
    judged with NONE).  A slot keeps the values PR9 and PR12 allow, in
    `_PREL_ORDER`, narrowed by ``prel_pins``; a slot left empty makes
    `_consistent` yield nothing.
    """
    covered = covered_connections(scene, c, n)
    prel_moves: dict[str, tuple[LonRel, ...]] = {}
    out = []
    for ls in dict.fromkeys(_occ_options(scene, n, c, frozen)):
        if not occ_step_ok(scene, c, ls, n):
            continue
        rid = n.road_of(ls)
        slots: dict[str, tuple[LonRel, ...]] = {}
        for p in sorted(n.points_of_road(rid)):
            vals = prel_moves.get(p)
            if vals is None:
                pin = prel_pins.get((c, p), _ALL3)
                order_cp = _PREL_ORDER.get(scene.prel_of(c, p), _ALL3)
                vals = prel_moves[p] = tuple(v for v in order_cp if v in pin and prel_step_ok(scene, c, p, v))
            slots[p] = vals
        for l1, p in covered:
            if p in slots:
                slots[p] = tuple(v for v in slots[p] if connection_step_ok(l1, p, ls, v, n))
            elif not connection_step_ok(l1, p, ls, N, n):
                break
        else:
            out.append((ls, rid, tuple(slots.items())))
    return out


def _window_judge(scene: Scene, n: RoadNetwork):
    """PR14_CONT for the window pairs of ``scene``'s candidates, each instance judged once.

    The returned ``ok(k, x, y, road_x, v)`` tells whether the pair ``x <
    y``, inside window ``n.zones[k]`` in the candidate, may take the stored
    ``orel(x, y) = v`` there with ``x`` on ``road_x`` (`window_step_ok`).  A
    pair not inside that window in ``scene`` is not bound by the rule.
    """
    prev_road = {c: n.road_of(ls) for c, ls in scene.occ.items()}
    inside = [{c for c in prev_road if z.holds_inside(prev_road[c], c, scene.prel)} for z in n.zones]
    memo: dict[tuple, bool] = {}

    def ok(k: int, x: str, y: str, road_x: str, v: LonRel) -> bool:
        if x not in inside[k] or y not in inside[k]:
            return True
        key = (k, x, y, road_x, v)
        found = memo.get(key)
        if found is None:
            found = memo[key] = window_step_ok(
                scene, n.zones[k], x, y, prev_road[x], prev_road[y], road_x, v
            )
        return found

    return ok


def _orel_assignments(n, occ, road, vrel, prel, window_ok):
    """Yield every admissible window-relation map for a candidate scene.

    ``occ``, ``road``, ``vrel`` and ``prel`` describe the candidate.  Maps
    whose relations inside a window do not compose are left out, and so is
    cover between opposed vehicles on a window's carrying lanes (PR13).  A
    pair's values are those ``window_ok`` (see `_window_judge`) allows in
    every window holding both vehicles (PR14_CONT).
    """
    vehicles = sorted(occ)
    zones = n.zones
    pair_zones: dict[tuple[str, str], list[int]] = {}
    triangles = []
    for k, z in enumerate(zones):
        members = [c for c in vehicles if z.holds_inside(road[c], c, prel)]
        triangles.extend((z, tri) for tri in combinations(members, 3))
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                pair_zones.setdefault((x, y), []).append(k)
    slots: list[tuple[str, str, OverlapZone]] = []  # (x, y, first window holding both)
    cand_lists: list[tuple[LonRel, ...]] = []
    for (x, y), ks in sorted(pair_zones.items()):
        z0 = zones[ks[0]]
        if z0.orientation[road[x]] == z0.orientation[road[y]]:
            # the same way; on one road the copy rule (PR13) fixes the value
            cands: tuple[LonRel, ...] = (vrel[x, y],) if road[x] == road[y] else _ALL3
        else:  # opposed traffic, read along the window
            cands = tuple(z0.frame(road[x], v) for v in _ALL3)
        # no cover while both are on the carrying lanes of a window that
        # opposes them, which need not be the first one (PR13)
        if any(
            zones[k].orientation[road[x]] != zones[k].orientation[road[y]]
            and occ[x] & zones[k].carrying
            and occ[y] & zones[k].carrying
            for k in ks
        ):
            cands = tuple(v for v in cands if v is not C)
        slots.append((x, y, z0))
        cand_lists.append(tuple(v for v in cands if all(window_ok(k, x, y, road[x], v) for k in ks)))
    for combo in product(*cand_lists):
        orel = {}
        for (x, y, z0), v in zip(slots, combo):
            orel[(x, y)] = v
            orel[(y, x)] = z0.mirror(road[x], road[y], v)
        # relation triangles inside each window (PR14_TRANS)
        if all(_window_closed(z, road, tri, orel) for z, tri in triangles):
            yield orel


def _window_closed(z, road, tri, orel) -> bool:
    """Whether the window relations of three members of ``z`` compose in every order."""
    return all(
        window_composes(z, road[x], road[y], orel[x, y], orel[y, w], orel[x, w])
        for x, y, w in permutations(tri)
    )


def successors(scene: Scene, n: RoadNetwork, frozen: frozenset[str] = frozenset()) -> tuple[Scene, ...]:
    """All valid, non-stuttering next scenes, in deterministic order."""
    return _gen_successors(scene, n, frozen, {})


# -- goal-implied candidate pins ----------------------------------------------

#: goal ``lonpr`` value -> the values its slot may hold at every step before
_GOAL_PINS = {B: frozenset({B}), C: frozenset({B, C})}


def _goal_pins(goal: Optional[Goal], net: RoadNetwork) -> dict[tuple[str, str], frozenset[LonRel]]:
    """Vehicle-point slot pins implied by the goal's positive ``lonpr`` atoms (see the module notes)."""
    if goal is None or net.succ_c:
        return {}
    return {
        a.args: _GOAL_PINS[a.rel]
        for a in goal.atoms
        if a.kind == "lonpr" and not a.negated and a.rel in _GOAL_PINS
    }


# -- search --------------------------------------------------------------------


def _live_paths(root: Scene, memo, live) -> list[tuple[Scene, ...]]:
    """Every path from ``root`` through live (scene, depth) pairs to the last layer."""
    last = len(live) - 1
    if root not in live[0]:
        return []
    if last == 0:
        return [(root,)]
    paths = []
    path = [root]
    branches = [iter(memo[root])]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            branches.pop()
            path.pop()
        elif nxt not in live[len(path)]:
            continue
        elif len(path) == last:
            paths.append((*path, nxt))
        else:
            path.append(nxt)
            branches.append(iter(memo[nxt]))
    return paths


def expand(req: ExpansionRequest, workers: int = 1) -> ExpansionResult:
    """Enumerate all scenarios per the request; deterministic output order.

    Generation is sequential, in this process.  ``workers`` is accepted for
    callers that pass a worker count and changes nothing.
    """
    t0 = time.monotonic()
    net = req.network
    if req.horizon < 1:
        raise RequestError("horizon must be >= 1")
    if req.mode not in ("exact", "shortest"):
        raise RequestError(f"unknown mode {req.mode!r}")
    if req.mode == "shortest" and req.goal is None:
        raise RequestError("shortest mode needs a #goal")
    bad = check_scene(req.initial, net)
    if bad:
        raise RequestError(
            "initial scene violates rules: " + "; ".join(sorted(v.render() for v in bad))
        )
    final_stable = req.final_stable
    if final_stable is None:
        final_stable = req.mode == "shortest"
    verdicts = {req.initial: False}  # checked above
    gen = partial(
        _gen_successors, n=net, frozen=req.frozen, prel_pins=_goal_pins(req.goal, net), verdicts=verdicts
    )

    def accept(scene: Scene) -> bool:
        if req.goal is not None and not req.goal.holds(scene):
            return False
        return not final_stable or all(len(ls) == 1 for ls in scene.occ.values())

    # forward: layer d holds the distinct scenes reachable in exactly d steps
    memo: dict[Scene, tuple[Scene, ...]] = {}
    layers = [[req.initial]]
    while layers[-1] and len(layers) < req.horizon:
        layer = layers[-1]
        if req.mode == "shortest" and any(accept(s) for s in layer):
            break
        todo = [s for s in layer if s not in memo]
        memo.update(zip(todo, map(gen, todo)))
        layers.append(list(dict.fromkeys(nxt for s in layer for nxt in memo[s])))

    # backward: keep the pairs that still reach an acceptable final scene
    live = [{s for s in layers[-1] if accept(s)}]
    for layer in reversed(layers[:-1]):
        ahead = live[-1]
        live.append({s for s in layer if any(nxt in ahead for nxt in memo[s])})
    live.reverse()

    nodes = sum(map(len, layers))
    paths = _live_paths(req.initial, memo, live)
    scene_text: dict[Scene, str] = {}
    ranked = sorted(
        ((render_scenario(sc, scene_text), sc) for sc in (Scenario(req.vehicles, net, p) for p in paths)),
        key=itemgetter(0),
    )
    stats = Stats(nodes, nodes - sum(map(len, live)), time.monotonic() - t0)
    return ExpansionResult(tuple(sc for _, sc in ranked), stats, tuple(text for text, _ in ranked))


# -- request files ---------------------------------------------------------------


def _split_goal_atoms(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last:
        parts.append(last)
    return [p for p in parts if p]


def _parse_goal_atom(text: str, lineno: int) -> GoalAtom:
    negated = False
    body = text.strip()
    if body.startswith("not "):
        negated = True
        body = body[4:].strip()
    name, args = parse_scene_atom(body + ".", lineno)
    if name == "on":
        return GoalAtom("on", args, None, negated)
    return GoalAtom(name, args[:-1], LonRel(args[-1]), negated)


def parse_request(text: str) -> ExpansionRequest:
    """Parse a request file: network facts, `#init` scene, directives."""
    builder = NetworkBuilder()
    init_atoms: list[tuple[str, tuple[str, ...]]] = []
    in_init = False
    horizon: Optional[int] = None
    mode = "exact"
    goal_atoms: list[GoalAtom] = []
    frozen: set[str] = set()
    final_stable: Optional[bool] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 1)
            directive, rest = parts[0], (parts[1].strip() if len(parts) > 1 else "")
            if directive == "#init":
                in_init = True
            elif directive == "#horizon":
                try:
                    horizon = int(rest)
                except ValueError:
                    raise ParseError(f"bad #horizon value {rest!r}", lineno) from None
            elif directive == "#mode":
                if rest not in ("exact", "shortest"):
                    raise ParseError(f"bad #mode value {rest!r}", lineno)
                mode = rest
            elif directive == "#goal":
                goal_atoms.extend(_parse_goal_atom(a, lineno) for a in _split_goal_atoms(rest))
            elif directive == "#freeze":
                frozen.update(v.strip() for v in rest.split(",") if v.strip())
            elif directive == "#final":
                if rest not in ("stable", "any"):
                    raise ParseError(f"bad #final value {rest!r}", lineno)
                final_stable = rest == "stable"
            else:
                raise ParseError(f"unknown directive {directive!r}", lineno)
            continue
        if in_init:
            init_atoms.append(parse_scene_atom(line, lineno))
            continue
        builder.add(*parse_atom(line, lineno), lineno)
    net = builder.build()
    if horizon is None:
        raise ParseError("missing #horizon directive")
    vehicles = set(builder.vehicles)
    vehicles.update(args[0] for name, args in init_atoms if name == "on")
    initial = scene_from_atoms(init_atoms, vehicles, net)
    req = ExpansionRequest(
        initial=initial,
        network=net,
        vehicles=frozenset(vehicles),
        horizon=horizon,
        mode=mode,
        goal=Goal(tuple(goal_atoms)) if goal_atoms else None,
        frozen=frozenset(frozen),
        final_stable=final_stable,
    )
    _validate_request(req)
    return req


def _validate_request(req: ExpansionRequest) -> None:
    net = req.network
    lanes = set(net.lanes)
    for c in sorted(req.frozen):
        if c not in req.vehicles:
            raise RequestError(f"#freeze names unknown vehicle {c!r}")
    if req.goal is None:
        return
    for atom in req.goal.atoms:
        for c in atom.args if atom.kind in ("lonr", "lonro") else atom.args[:1]:
            if c not in req.vehicles:
                raise RequestError(f"goal names unknown vehicle {c!r}")
        if atom.kind == "on" and atom.args[1] not in lanes:
            raise RequestError(f"goal names unknown lane {atom.args[1]!r}")
        if atom.kind == "lonpr" and atom.args[1] not in net.points:
            raise RequestError(f"goal names unknown point {atom.args[1]!r}")

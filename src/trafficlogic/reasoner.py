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
shortest mode the first layer holding an acceptable final scene).  In
shortest mode a scene sits in one layer only, the first that reaches it,
since no shortest scenario meets a scene later than that (see `expand`);
so the forward pass is linear in the scenes, not in (scene, depth) pairs.
One backward sweep builds the live graph: each (scene, depth) pair that
can still reach an acceptable final scene gets one entry, which holds its
``#step`` text and its live successors' entries in the order of their
scene blocks (`facts.scene_block`).  An iterative depth-first walk follows
these entries only, so the work is proportional to the output, the
scenarios come out in canonical order (sorted by text) without a global
sort, and each text is its parent's prefix plus one entry's text.

Successor scenes are generated constructively: each relation slot gets
its candidate one-step moves, and the slots are assigned in a fixed order
(vehicle pairs, vehicle-point pairs, window pairs).  A partial assignment
is dropped as soon as the slots set so far break a scene rule it can
already decide: cover on a shared lane (TR2), three vehicle relations
that `check_scene`'s own `rules.triangle_rule` rejects in some order (PR2,
PR3), point-cover exclusivity (PR11), and point order and mixed
transitivity (PR14_TRANS).  These are the triangle tests of path
consistency over the qualitative point algebra, applied to each partial
assignment.  Window relations take the values and pass the triangles of
the checker's window judgments, `rules.window_values` (PR13) and
`rules.window_breaks` (PR14_TRANS), over the members `RoadNetwork.window_members`
gives.  Only complete survivors become scenes, and nothing judges them
again: `check_scene` checks the request's initial scene only.

Scenes are hash-consed.  A complete survivor is keyed by its occupancy
tuple, its relation-slot values and its window values; the occupancy
fixes which slots exist, so for one network and one vehicle set the key
determines the scene.  One map per `expand` holds every key seen, and a
scene is built only the first time its key comes up: a candidate reached
from several parents is one object.  The same map holds each occupancy
tuple's slot layout and checks, compiled once, with the survivors of every
subproblem posed of it: its slot domains and its window allowances, the
values PR14_CONT leaves each window pair the candidate can hold, where it
leaves out any.  A subproblem that another parent poses again is not
solved again, on every network.

The transition rules are judged before any candidate is built, once per
parent and scope value, by the same judgments `check_transition` is made
of (see `rules`): PR7 per (vehicle, next occupancy) filters the
occupancy options; PR9 per (vehicle, point) and PR12 per (vehicle,
covered connection, next occupancy) filter the vehicle-point slot values,
and an occupancy whose road does not carry a covered connection is
dropped; PR4 per vehicle pair filters the vehicle-pair slot values; and
PR14_CONT per (window, vehicle pair, next road) filters the window values.
So every candidate passes `check_transition`, which the generator never
calls.  Successors never stutter: consecutive scenes always differ,
because steps carry order, not duration.

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
from functools import cache, partial
from itertools import permutations, product
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
    scene_block,
    scene_from_atoms,
    strip_comment,
)
from trafficlogic.rules import (  # noqa: F401 - check_transition: the benchmark's tracer wraps it here
    MIXED_FORBIDDEN,
    ORDER_FORBIDDEN,
    check_scene,
    check_transition,
    connection_step_ok,
    covered_connections,
    occ_step_ok,
    prel_step_ok,
    triangle_rule,
    vrel_step_ok,
    window_breaks,
    window_step_ok,
    window_values,
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
    #: the (scene, depth) pairs the forward pass reached; in shortest mode a
    #: scene has one depth, the first it is reached at, so this counts scenes
    nodes: int = 0
    pruned: int = 0  # of those, the pairs no acceptable final scene is reachable from
    wall_time_s: float = 0.0


@dataclass
class ExpansionResult:
    scenarios: tuple[Scenario, ...]
    stats: Stats
    #: ``facts.render_scenario`` of each scenario, in the same order, joined
    #: from the live graph's entry texts
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
    return not any(triangle_rule(rel[a, b], rel[b, c], rel[a, c], rel[c, a]) for a, b, c in permutations(range(3)))


#: (rel(x,y), rel(x,z), rel(y,z)) for three vehicles on one road that pass
#: PR2 and PR3 (`triangle_rule`) in every order
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
    interned: Optional[dict] = None,
) -> tuple[Scene, ...]:
    """Every valid, non-stuttering successor of ``scene``, in a fixed order.

    The transition rules are judged once per scope and value, by the
    checker's own judgments, before any candidate is built: PR7 and PR12
    pick each vehicle's next occupancies (`_occ_moves`), PR9 and PR12 its
    vehicle-point slot values on each, PR4 the values of each vehicle-pair
    slot, and PR14_CONT the values of each pair a window holds in
    ``scene``, per next road of its first vehicle (`window_step_ok`).  So
    no candidate breaks a transition rule, and `check_transition` is never
    called here.  Per occupancy choice, the relation slots (vehicle pairs,
    then vehicle-point pairs) are assigned in order, and a partial
    assignment is dropped as soon as it breaks TR2, PR2 or PR3 (by
    `_VREL_TRIPLES`, derived from `triangle_rule`), PR11 or PR14_TRANS;
    window maps that break PR13 or PR14_TRANS are dropped too.  The
    survivors come out in the order of the full product of candidate
    values; the other scene rules hold by construction, so `check_scene`
    is not called here either.  ``scene`` must pass `check_scene` on ``n``,
    so that every vehicle is on one road in it and in each of its
    candidates.  ``prel_pins`` narrows vehicle-point slot values to those
    it lists (see `_goal_pins`).

    An occupancy choice fixes the slot layout and its checks
    (`_slot_problem`); the parent only narrows each slot's values and each
    window pair's values.  So the survivors of one occupancy tuple, slot
    domains and window allowances are the same whatever the parent,
    ``frozen`` or ``prel_pins``, and each such subproblem is solved once.
    A window allowance names its window and pair, and is posed only where
    it leaves out a value and the occupancy puts both vehicles on roads the
    window carries: elsewhere the candidate cannot hold the pair there, or
    PR14_CONT allows every value.  A network without windows has no
    allowances.  A candidate's key is its occupancy tuple (in vehicle
    order), its relation-slot values and its window values; for one
    network and one vehicle set, equal keys mean equal scenes.
    ``interned`` maps each occupancy tuple to its slot problem with the
    subproblems solved so far, each candidate key seen to its scene, and
    each parent and each candidate to itself; a candidate is built only
    the first time its key is seen, and equal successors of different
    parents are one object.
    `expand` shares one map across every call of a request; a map must not
    be shared across networks or vehicle sets.  Without it, the call starts
    a fresh map.
    """
    if interned is None:
        interned = {}
    # a candidate equal to the parent maps to this object: it is no successor
    scene = interned.setdefault(scene, scene)
    vehicles = scene.vehicles
    road = {c: n.road_of(scene.occ_of(c)) for c in vehicles}
    occ_lists = [_occ_moves(scene, n, c, road[c], frozen, prel_pins) for c in vehicles]
    # PR4 per vehicle pair: its values, and those left when the pair shares a lane (TR2)
    vrel_moves: dict[tuple[str, str], tuple[tuple[LonRel, ...], tuple[LonRel, ...]]] = {}
    # PR14_CONT per (window, pair it holds, next road of x): the next orel(x, y) values
    held = n.window_members(road, scene.prel)[1]
    orel_moves: dict[tuple, tuple[LonRel, ...]] = {}
    own = tuple(map(scene.occ_of, vehicles))
    order: list[Scene] = []
    for moves in product(*occ_lists):
        occ_key = tuple(ls for ls, _, _ in moves)
        problem = interned.get(occ_key)
        if problem is None:
            problem = interned[occ_key] = _slot_problem(vehicles, moves, n)
        pairs, layout, solved = problem
        next_road = layout[1]
        doms = []
        for (x, y), shared in pairs:
            vals = vrel_moves.get((x, y))
            if vals is None:
                order_xy = _VREL_ORDER.get(scene.vrel_of(x, y), _ALL3)
                free = tuple(v for v in order_xy if vrel_step_ok(scene, x, y, v))
                vals = vrel_moves[x, y] = (free, tuple(v for v in free if v is not C))
            doms.append(vals[shared])
        for _, _, slots in moves:
            doms.extend(vals for _, vals in slots)
        allow = []
        for (x, y), zs in held.items():
            rx = next_road[x]
            for z in zs:
                # the candidate can hold the pair in z only on roads z carries
                if rx not in z.orientation or next_road[y] not in z.orientation:
                    continue
                scope = (z.start, z.end, x, y)
                vals = orel_moves.get((scope, rx))
                if vals is None:
                    vals = orel_moves[scope, rx] = tuple(
                        v for v in _ALL3 if window_step_ok(scene, z, x, y, road[x], road[y], rx, v)
                    )
                if vals != _ALL3:
                    allow.append((scope, vals))
        key = (tuple(doms), frozenset(allow))
        found = solved.get(key)
        if found is None:
            found = solved[key] = _solve(occ_key, layout, doms, n, dict(allow), interned)
        order.extend(found if occ_key != own else (cand for cand in found if cand is not scene))
    return tuple(order)


def _slot_problem(vehicles: tuple[str, ...], moves, n: RoadNetwork):
    """The relation slots and checks of one occupancy choice, and a map for its solutions.

    ``moves`` holds each vehicle's `_occ_moves` entry.  Returns ``(pairs,
    layout, solved)``: ``pairs`` lists the same-road vehicle pairs ``x <
    y``, each with whether they share a lane; ``layout`` is what `_solve`
    reads; ``solved`` is `_gen_successors`' map from slot domains and
    window allowances to successors.  The slots are the pairs', then the
    vehicle-point slots, each vehicle's in the point order of `_occ_moves`.
    """
    occ = {c: ls for c, (ls, _, _) in zip(vehicles, moves)}
    road = {c: rid for c, (_, rid, _) in zip(vehicles, moves)}
    checks: list[list] = []
    # vehicle-vehicle relation slots (same-road pairs only)
    vslot: dict[tuple[str, str], int] = {}
    for i, x in enumerate(vehicles):
        for y in vehicles[i + 1 :]:
            if road[x] is not None and road[x] == road[y]:
                vslot[x, y] = len(checks)
                checks.append([])
    for (x, y), xy in vslot.items():
        for z in vehicles:
            if (y, z) in vslot and (x, z) in vslot:
                _add_check(checks, (xy, vslot[x, z], vslot[y, z]), _VREL_TRIPLES)
    # vehicle-point slots (points carried by the vehicle's road); each
    # vehicle's slots follow the point order of its lanes (PR14_TRANS)
    pslot: dict[tuple[str, str], int] = {}
    for c, (_, rid, slots) in zip(vehicles, moves):
        for p, _ in slots:
            pslot[c, p] = len(checks)
            checks.append([])
        for p1, p2 in frozenset().union(*map(n.lane_order_pairs, n.road(rid).lanes)):
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
    pairs = [((x, y), bool(occ[x] & occ[y])) for x, y in vslot]
    return pairs, (occ, road, list(vslot), list(pslot), checks), {}


def _solve(occ_key, layout, doms, n: RoadNetwork, allow, interned: dict) -> tuple[Scene, ...]:
    """The interned candidates of one `_slot_problem` whose slots take the values ``doms``.

    ``allow`` maps ``(window start, window end, x, y)`` to the values
    PR14_CONT leaves ``orel(x, y)`` in that window (see `_orel_assignments`).
    """
    occ, road, vrel_slots, points, checks = layout
    k = len(vrel_slots)
    out = []
    for combo in _consistent(doms, checks):
        prel = dict(zip(points, combo[k:]))
        for window, orel in _orel_assignments(n, occ, road, dict(zip(vrel_slots, combo)), prel, allow):
            key = (occ_key, combo, window)
            cand = interned.get(key)
            if cand is None:
                vrel: dict[tuple[str, str], LonRel] = {}
                for (x, y), v in zip(vrel_slots, combo):
                    vrel[x, y] = v
                    vrel[y, x] = invert(v)
                cand = Scene(occ, vrel, prel, orel)
                # a candidate equal to a parent resolves to the parent's object
                cand = interned[key] = interned.setdefault(cand, cand)
            out.append(cand)
    return tuple(out)


def _occ_moves(
    scene: Scene,
    n: RoadNetwork,
    c: str,
    road: Optional[str],
    frozen: frozenset[str],
    prel_pins: Mapping[tuple[str, str], frozenset[LonRel]],
):
    """Vehicle ``c``'s next occupancies, each with its vehicle-point slot values.

    ``road`` is ``c``'s road in ``scene``.  One ``(lanes, road, ((p,
    values), ...))`` per occupancy, over the points of its road in sorted
    order.  An occupancy that breaks PR7 is dropped, and so is one whose
    road does not carry a connection ``c`` covers (PR12 judged with NONE).
    A slot keeps the values PR9 and PR12 allow, in `_PREL_ORDER`, narrowed
    by ``prel_pins``; a slot left empty makes `_consistent` yield nothing.
    """
    covered = covered_connections(scene, c, n)
    prel_moves: dict[str, tuple[LonRel, ...]] = {}
    out = []
    for ls in dict.fromkeys(_occ_options(scene, n, c, frozen)):
        rid = n.road_of(ls)
        if not occ_step_ok(scene, c, ls, road, rid, n):
            continue
        slots: dict[str, tuple[LonRel, ...]] = {}
        for p in n.sorted_points_of_road(rid):
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


def _orel_assignments(n, occ, road, vrel, prel, allow):
    """Yield every admissible window-relation map for a candidate scene, with its window values.

    ``occ``, ``road``, ``vrel`` and ``prel`` describe the candidate;
    ``vrel`` needs only the pairs ``x < y``.  Each map comes as ``(values,
    orel)``: its window-pair values, one per pair ``x < y`` in sorted pair
    order, and the map itself with both orientations.  A pair takes the
    values `window_values` allows in every window holding both vehicles
    (PR13), in the first one's frame order, that ``allow`` lists for each
    of those windows, keyed ``(start, end, x, y)`` (PR14_CONT; a window
    not listed leaves the pair free); maps with a triple that
    `window_breaks` reports are left out (PR14_TRANS).  A network without
    windows has the one empty map.
    """
    if not n.zones:
        yield (), {}
        return
    inside, held = n.window_members(road, prel)
    slots: list[tuple[str, str, OverlapZone]] = []  # (x, y, first window holding both)
    cand_lists: list[tuple[LonRel, ...]] = []
    for (x, y), zs in sorted(held.items()):
        carried = [bool(occ[x] & z.carrying and occ[y] & z.carrying) for z in zs]
        # PR13 in each window, then PR14_CONT in each
        allowed = [window_values(z, road[x], road[y], c, vrel.get((x, y))) for z, c in zip(zs, carried)]
        allowed += [allow.get((z.start, z.end, x, y), _ALL3) for z in zs]
        slots.append((x, y, zs[0]))
        cand_lists.append(tuple(v for v in allowed[0] if all(v in a for a in allowed[1:])))
    crowded = [(z, members) for z, members in inside if len(members) > 2]
    for combo in product(*cand_lists):
        orel = {}
        for (x, y, z0), v in zip(slots, combo):
            orel[(x, y)] = v
            orel[(y, x)] = z0.mirror(road[x], road[y], v)
        if not any(any(window_breaks(z, road, members, orel)) for z, members in crowded):
            yield combo, orel


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


def _live_scenarios(req: ExpansionRequest, first) -> tuple[list[Scenario], list[str]]:
    """Every scenario through the live graph, and its text, in canonical order.

    ``first`` maps each live scene at depth 0 to its entry (see `expand`).
    The canonical order sorts scenarios by text (`facts.render_scenario`).
    Every scenario here has as many steps as the graph has depths, and when
    one scene's block is a prefix of another's, the longer goes on with an
    atom where the shorter's scenario goes on with ``#step`` or ends.  So
    two scenarios compare as the blocks of their first differing scenes,
    and a depth-first walk that takes each entry's successors in order
    meets the scenarios in canonical order.  A text concatenates its
    entries' texts.
    """
    scenarios, texts = [], []
    todo = [((s,), step, kids) for s, step, kids in first.values()]
    while todo:
        path, text, kids = todo.pop()
        if kids:
            # pushed last to first, so popped in text order
            todo.extend(((*path, t), text + step, after) for t, step, after in reversed(kids))
        else:  # only the last depth's entries have no successors
            scenarios.append(Scenario(req.vehicles, req.network, path))
            texts.append(text)
    return scenarios, texts


def expand(req: ExpansionRequest, workers: int = 1) -> ExpansionResult:
    """Enumerate all scenarios per the request; deterministic output order.

    Generation is sequential, in this process.  ``workers`` is accepted for
    callers that pass a worker count and changes nothing.

    In shortest mode, layer d keeps only the scenes first reached in d
    steps.  This loses no scenario: let T* steps be the shortest that reach
    an acceptable final scene, and let a scenario of T* steps meet scene s
    after d of them.  If some path reached s in d' < d steps, it would go on
    along the scenario's last T* − d steps to an acceptable scene in
    d' + T* − d < T* steps, and the forward pass would have stopped there.
    So every scene of a shortest scenario sits at its first depth, and the
    backward pass and the walk see the same live pairs as without the
    filter.  Exact mode keeps every (scene, depth) pair.

    The backward pass builds the live graph in one sweep, from the last
    depth down.  Each (scene, depth) pair that reaches an acceptable final
    scene gets one entry: the scene, its ``#step`` text, and its live
    successors' entries sorted by block (`facts.scene_block`, rendered once
    per scene).  ``Stats.pruned`` counts the pairs without an entry.
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
    shortest = req.mode == "shortest"
    final_stable = shortest if req.final_stable is None else req.final_stable
    # the initial scene, checked above, enters the map as the first parent
    gen = partial(_gen_successors, n=net, frozen=req.frozen, prel_pins=_goal_pins(req.goal, net), interned={})

    def accept(scene: Scene) -> bool:
        if req.goal is not None and not req.goal.holds(scene):
            return False
        return not final_stable or all(len(ls) == 1 for ls in scene.occ.values())

    # forward: layer d holds the distinct scenes reachable in exactly d steps;
    # in shortest mode, only those not reachable in fewer (see above): the
    # scenes not expanded yet
    memo: dict[Scene, tuple[Scene, ...]] = {}
    layers = [[req.initial]]
    while layers[-1] and len(layers) < req.horizon:
        layer = layers[-1]
        if shortest and any(accept(s) for s in layer):
            break
        todo = [s for s in layer if s not in memo]
        memo.update(zip(todo, map(gen, todo)))
        reached = dict.fromkeys(nxt for s in layer for nxt in memo[s])
        layers.append([t for t in reached if not (shortest and t in memo)])

    # backward: the entry of each pair that still reaches an acceptable final scene
    block = cache(scene_block)
    live = [{s: (s, f"#step {len(layers)}\n{block(s)}", ()) for s in layers[-1] if accept(s)}]
    for d in range(len(layers) - 1, 0, -1):
        ahead, entries = live[-1], {}
        for s in layers[d - 1]:
            if kids := [ahead[t] for t in memo[s] if t in ahead]:
                entries[s] = (s, f"#step {d}\n{block(s)}", sorted(kids, key=lambda kid: block(kid[0])))
        live.append(entries)
    live.reverse()

    nodes = sum(map(len, layers))
    scenarios, texts = _live_scenarios(req, live[0])
    stats = Stats(nodes, nodes - sum(map(len, live)), time.monotonic() - t0)
    return ExpansionResult(tuple(scenarios), stats, tuple(texts))


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

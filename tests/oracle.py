"""Brute-force reference enumerator used to cross-check the search engine.

Everything here is deliberately dumb: the full scene space over a small
universe is generated combinatorially and pushed through the public rule
checkers, and scenario sets are produced by walking every path of the
induced transition graph.  No successor generation, pruning or goal logic
is shared with the engine — only the rule checkers, which are the ground
truth both sides must agree on.

Complexity is exponential in every direction; keep universes tiny
(a few lanes, at most two vehicles, horizon <= 3 or so).
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Mapping, Optional

from trafficlogic.domain import LonRel, RoadNetwork, Scenario, Scene
from trafficlogic.reasoner import ExpansionRequest, canonicalize
from trafficlogic.rules import RuleId, Violation, check_scene, check_transition

VALUES = (LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE)


def stepwise_violations(sc: Scenario) -> list[Violation]:
    """``rules.check_scenario``'s report made the plain way.

    One direct ``check_scene`` call per step and one ``check_transition``
    call per step pair, each at its own step number; nothing is shared
    between steps or scenarios.
    """
    out: list[Violation] = []
    for k, scene in enumerate(sc.scenes, start=1):
        for c in sorted(sc.vehicles ^ set(scene.occ)):
            out.append(Violation(RuleId.WF, k, ("universe", c)))
        out.extend(check_scene(scene, sc.network, step=k))
    for k in range(1, len(sc.scenes)):
        out.extend(check_transition(sc.scenes[k - 1], sc.scenes[k], sc.network, step=k))
    return out


def all_valid_scenes(
    net: RoadNetwork,
    vehicles: Iterable[str],
    occupancies: Optional[Mapping[str, Iterable[Iterable[str]]]] = None,
) -> list[Scene]:
    """Every scene over the universe that passes ``check_scene``.

    The raw space is the full product of occupancy subsets, one relation
    value per vehicle pair (mirrored by inversion), one per vehicle/point
    pair, and one per *ordered* vehicle pair for the window relation
    (window mirrors are layout-dependent, so both orientations are free
    and the checker decides).  ``occupancies`` narrows the universe: a
    vehicle it names occupies only the lane sets it lists.
    """
    occupancies = occupancies or {}
    vehicles = tuple(sorted(vehicles))
    lanes = tuple(sorted(net.lanes))
    points = tuple(sorted(net.points))
    subsets = [
        frozenset(combo)
        for r in range(len(lanes) + 1)
        for combo in combinations(lanes, r)
    ]
    pairs = list(combinations(vehicles, 2))
    ordered_pairs = [pair for ab in pairs for pair in (ab, ab[::-1])]
    point_slots = [(c, p) for c in vehicles for p in points]
    out: list[Scene] = []
    seen: set = set()
    occ_lists = [list(map(frozenset, occupancies[c])) if c in occupancies else subsets for c in vehicles]
    for occ_combo in product(*occ_lists):
        occ = dict(zip(vehicles, occ_combo))
        for vrel_combo in product(VALUES, repeat=len(pairs)):
            vrel = {k: v for k, v in zip(pairs, vrel_combo)}
            for prel_combo in product(VALUES, repeat=len(point_slots)):
                prel = {k: v for k, v in zip(point_slots, prel_combo)}
                for orel_combo in product(VALUES, repeat=len(ordered_pairs)):
                    orel = {k: v for k, v in zip(ordered_pairs, orel_combo)}
                    scene = Scene.build(occ, vrel, prel, orel)
                    if scene.key() in seen:
                        continue
                    seen.add(scene.key())
                    if not check_scene(scene, net):
                        out.append(scene)
    return out


class TransitionGraph:
    """Checker-defined one-step reachability over a fixed valid-scene set."""

    def __init__(self, net: RoadNetwork, scenes: list[Scene]) -> None:
        self.net = net
        self.scenes = scenes
        self._succ: dict = {}

    def successors(self, scene: Scene) -> list[Scene]:
        cached = self._succ.get(scene.key())
        if cached is None:
            cached = [
                nxt
                for nxt in self.scenes
                if nxt != scene and not check_transition(scene, nxt, self.net)
            ]
            self._succ[scene.key()] = cached
        return cached


def _goal_holds(goal, scene: Scene) -> bool:
    """Re-implementation of goal satisfaction (kept separate on purpose)."""
    for atom in goal.atoms:
        if atom.kind == "on":
            ok = atom.args[1] in scene.occ_of(atom.args[0])
        elif atom.kind == "lonr":
            ok = scene.vrel.get(tuple(atom.args), LonRel.NONE) is atom.rel
        elif atom.kind == "lonpr":
            ok = scene.prel.get(tuple(atom.args), LonRel.NONE) is atom.rel
        elif atom.kind == "lonro":
            ok = scene.orel.get(tuple(atom.args), LonRel.NONE) is atom.rel
        else:  # pragma: no cover - parser admits only the four kinds
            raise AssertionError(atom.kind)
        if atom.negated:
            ok = not ok
        if not ok:
            return False
    return True


def _paths(
    graph: TransitionGraph,
    scene: Scene,
    steps_left: int,
    goal,
    final_stable: bool,
    frozen_occ: dict[str, frozenset[str]],
):
    for c, want in frozen_occ.items():
        if scene.occ_of(c) != want:
            return
    if steps_left == 0:
        if goal is not None and not _goal_holds(goal, scene):
            return
        if final_stable and any(len(ls) != 1 for ls in scene.occ.values()):
            return
        yield (scene,)
        return
    for nxt in graph.successors(scene):
        for tail in _paths(graph, nxt, steps_left - 1, goal, final_stable, frozen_occ):
            yield (scene,) + tail


def oracle_expand(
    req: ExpansionRequest,
    graph: Optional[TransitionGraph] = None,
) -> list[str]:
    """Canonical renderings of every scenario admitted by the request.

    Mirrors the request semantics of ``reasoner.expand`` (modes, goal,
    occupancy freezing, final steadiness) over the brute-force graph.
    Pass a prebuilt ``TransitionGraph`` to amortize the scene sweep.
    """
    if graph is None:
        graph = TransitionGraph(req.network, all_valid_scenes(req.network, req.vehicles))
    final_stable = req.final_stable
    if final_stable is None:
        final_stable = req.mode == "shortest"
    frozen_occ = {c: req.initial.occ_of(c) for c in req.frozen}

    def at_length(T: int) -> list[str]:
        found = [
            canonicalize(Scenario(req.vehicles, req.network, path))
            for path in _paths(
                graph, req.initial, T - 1, req.goal, final_stable, frozen_occ
            )
        ]
        return sorted(found)

    if req.mode == "exact":
        return at_length(req.horizon)
    for T in range(1, req.horizon + 1):
        found = at_length(T)
        if found:
            return found
    return []

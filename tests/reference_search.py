"""The layered search that keeps every (scene, depth) pair, in both modes.

`reasoner.expand` keeps each scene at its first depth only in shortest mode.
This module keeps the pair-layered forward and backward passes that came
before that change, with its own path enumeration, so that a differential
test can compare the two: the same texts in both modes, and in shortest mode
as many search nodes as there are distinct scenes over these layers.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from trafficlogic.domain import Scenario, Scene
from trafficlogic.facts import render_scenario
from trafficlogic.reasoner import ExpansionRequest, _gen_successors, _goal_pins


def reference_search(req: ExpansionRequest, most: Optional[int] = None):
    """``(layers, live, successors)``: every scene reachable in exactly d steps, per d, and the live ones.

    None when the layers hold more than ``most`` (scene, depth) pairs.
    """
    net = req.network
    final_stable = req.mode == "shortest" if req.final_stable is None else req.final_stable
    gen = partial(_gen_successors, n=net, frozen=req.frozen, prel_pins=_goal_pins(req.goal, net), interned={})

    def accept(scene: Scene) -> bool:
        if req.goal is not None and not req.goal.holds(scene):
            return False
        return not final_stable or all(len(ls) == 1 for ls in scene.occ.values())

    memo: dict[Scene, tuple[Scene, ...]] = {}
    layers = [[req.initial]]
    while layers[-1] and len(layers) < req.horizon:
        layer = layers[-1]
        if req.mode == "shortest" and any(accept(s) for s in layer):
            break
        todo = [s for s in layer if s not in memo]
        memo.update(zip(todo, map(gen, todo)))
        layers.append(list(dict.fromkeys(nxt for s in layer for nxt in memo[s])))
        if most is not None and sum(map(len, layers)) > most:
            return None

    live = [{s for s in layers[-1] if accept(s)}]
    for layer in reversed(layers[:-1]):
        ahead = live[-1]
        live.append({s for s in layer if any(nxt in ahead for nxt in memo[s])})
    live.reverse()
    return layers, live, memo


def reference_count(live: list[set[Scene]], memo: dict) -> int:
    """The number of scenarios through the live pairs of `reference_search`."""
    ways = dict.fromkeys(live[-1], 1)
    for layer in reversed(live[:-1]):
        ways = {s: sum(ways.get(t, 0) for t in memo[s]) for s in layer}
    return sum(ways.values())


def reference_texts(req: ExpansionRequest, live: list[set[Scene]], memo: dict) -> list[str]:
    """The text of every scenario through the live pairs of `reference_search`, sorted."""
    paths = [(s,) for s in live[0]]
    for ahead in live[1:]:
        paths = [(*path, t) for path in paths for t in memo[path[-1]] if t in ahead]
    return sorted(render_scenario(Scenario(req.vehicles, req.network, path)) for path in paths)

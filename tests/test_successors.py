"""Successor generation against its generate-and-test reference.

``reasoner.successors`` drops a partial relation assignment as soon as it
breaks a scene rule; ``tests/reference_successors.py`` builds every
candidate scene and lets the rule checkers decide.  Both must give the same
successor tuple, order included, on every scene of these families:

* the five ``tests/data`` request fixtures: every scene reachable from the
  initial scene while the request's ``#freeze`` holds;
* dense requests, three or four vehicles on one road of two or three lanes,
  each vehicle behind the next: every scene within a few steps of the
  initial scene (all of them for three vehicles on two lanes);
* a chain of three single-lane roads joined by connection points, with two
  vehicles that change roads (PR7, PR12): every reachable scene;
* two single-lane roads sharing an overlap window, opposed or running the
  same way, with one vehicle on each: every reachable scene.

Each family is explored with one scene-verdict map shared across all its
scenes, as `expand` shares it, so a candidate reached from several scenes
is judged once and reused.  The checker must also never reject a candidate
for a rule the generator prunes, so the pruning is complete for those rules.
"""

from __future__ import annotations

import pathlib
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import pytest

from trafficlogic import reasoner
from trafficlogic.domain import RoadNetwork, Scene
from trafficlogic.reasoner import _gen_successors, _goal_pins, parse_request
from trafficlogic.rules import RuleId

from reference_successors import reference_successors

DATA = pathlib.Path(__file__).parent / "data"

#: rules the generator enforces on partial assignments and window maps
PRUNED = {RuleId.TR2, RuleId.PR2, RuleId.PR3, RuleId.PR11, RuleId.PR13, RuleId.PR14_TRANS}


def dense_request(lanes: int, lane_of: tuple[int, ...]) -> str:
    """Vehicle c_i on lane ``l<lane_of[i-1]>``, c_i behind c_j for i < j."""
    lines = [f"lane(l{i}, ra)." for i in range(1, lanes + 1)]
    lines += [f"left(l{i}, l{i + 1})." for i in range(1, lanes)]
    lines.append("#init")
    lines += [f"on(c{i}, l{l})." for i, l in enumerate(lane_of, start=1)]
    k = len(lane_of)
    lines += [f"lonr(c{i}, c{j}, behind)." for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    lines.append("#horizon 2")
    return "\n".join(lines) + "\n"


def chain_request() -> str:
    """Roads r1..r3 of one lane each, joined by connections pc1 and pc2; c1 behind c2 on l1."""
    return (
        "lane(l1, r1).\nlane(l2, r2).\nlane(l3, r3).\n"
        "class(pc1, c).\npon(pc1, l1).\npon(pc1, l2).\nsuccl(pc1, l2).\n"
        "class(pc2, c).\npon(pc2, l2).\npon(pc2, l3).\nsuccl(pc2, l3).\n"
        "succp(l2, pc1, pc2).\n"
        "#init\non(c1, l1).\non(c2, l1).\nlonr(c1, c2, behind).\n"
        "lonpr(c1, pc1, behind).\nlonpr(c2, pc1, behind).\n#horizon 2\n"
    )


def window_request(l2_first: str, l2_second: str) -> str:
    """Roads ra and rb, one lane each, sharing the window (pos, poe).

    ``l2`` carries ``l2_first`` before ``l2_second``: ``poe`` first opposes
    the roads, ``pos`` first runs them the same way.  c1 on ``l2`` and c2
    on ``l1`` both start before the window.
    """
    return (
        "lane(l1, ra).\nlane(l2, rb).\nclass(pos, os).\nclass(poe, oe).\n"
        "pon(pos, l1).\npon(poe, l1).\npon(pos, l2).\npon(poe, l2).\noverlap(pos, poe).\n"
        f"succp(l1, pos, poe).\nsuccp(l2, {l2_first}, {l2_second}).\n"
        "#init\non(c1, l2).\non(c2, l1).\n"
        "lonpr(c1, pos, behind).\nlonpr(c1, poe, behind).\n"
        "lonpr(c2, pos, behind).\nlonpr(c2, poe, behind).\n#horizon 2\n"
    )


#: (name, request text, step bound on reachability; None = every reachable scene)
FAMILIES = [(p.stem, p.read_text(), None) for p in sorted(DATA.glob("*.req"))] + [
    ("dense-3v-2l", dense_request(2, (1, 2, 1)), None),
    ("dense-3v-3l", dense_request(3, (1, 2, 3)), 1),
    ("dense-3v-3l-shared", dense_request(3, (1, 3, 3)), 1),
    ("dense-4v-2l", dense_request(2, (1, 2, 1, 2)), 0),
    ("dense-4v-2l-shared", dense_request(2, (1, 1, 1, 2)), 0),
    ("dense-4v-3l", dense_request(3, (1, 2, 2, 3)), 0),
    ("dense-4v-3l-shared", dense_request(3, (1, 1, 2, 3)), 0),
    ("chain-2v-3r", chain_request(), None),
    ("window-opposed", window_request("poe", "pos"), None),
    ("window-same-way", window_request("pos", "poe"), None),
]


@dataclass
class Explored:
    network: RoadNetwork
    scenes: list[Scene]
    successors: dict[Scene, tuple[Scene, ...]]
    #: per rule, the candidates ``check_scene`` rejected for it
    rejected: Counter


def _explore(text: str, bound: Optional[int]) -> Explored:
    req = parse_request(text)
    net = req.network
    rejected: Counter = Counter()
    check_scene = reasoner.check_scene

    def counting(scene, n, step=1):
        found = check_scene(scene, n, step)
        rejected.update({v.rule for v in found})
        return found

    depth = {req.initial: 0}
    todo = [req.initial]
    succ: dict[Scene, tuple[Scene, ...]] = {}
    verdicts: dict[Scene, bool] = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reasoner, "check_scene", counting)
        while todo:
            s = todo.pop()
            succ[s] = _gen_successors(s, net, frozenset(), {}, verdicts)
            if bound is not None and depth[s] == bound:
                continue
            for t in _gen_successors(s, net, req.frozen, {}, verdicts) if req.frozen else succ[s]:
                if t not in depth:
                    depth[t] = depth[s] + 1
                    todo.append(t)
    return Explored(net, list(depth), succ, rejected)


@pytest.fixture(scope="module", params=FAMILIES, ids=[f[0] for f in FAMILIES])
def explored(request) -> Explored:
    _, text, bound = request.param
    return _explore(text, bound)


def test_successors_match_generate_and_test(explored):
    for s in explored.scenes:
        assert explored.successors[s] == reference_successors(s, explored.network, frozenset(), {})


def test_checker_rejects_nothing_the_generator_prunes(explored):
    assert not PRUNED & set(explored.rejected), dict(explored.rejected)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.req")), ids=lambda p: p.stem)
def test_pinned_successors_match_generate_and_test(path):
    """With the request's own freeze and goal-implied pins, as ``expand`` runs it."""
    req = parse_request(path.read_text())
    net = req.network
    pins = _goal_pins(req.goal, net)
    seen = {req.initial}
    todo = [req.initial]
    while todo:
        s = todo.pop()
        got = _gen_successors(s, net, req.frozen, pins)
        assert got == reference_successors(s, net, req.frozen, pins)
        for t in got:
            if t not in seen:
                seen.add(t)
                todo.append(t)

"""Goal-directed generation on overlap windows against the brute-force oracle.

A goal constrains only the final scene, so `expand` with a goal must return
exactly the oracle's scenarios, whatever the engine prunes on the way.  The
sweep runs every single-atom ``lonro`` goal (both vehicle orders) and every
single-atom ``lonpr`` goal, with each of the three values, from initial
scenes on three window networks:

* ``OPPOSED``: one lane per road, the two roads opposed in the window,
  every one of its valid two-vehicle scenes;
* ``OPPOSED_2L``: the same with a second, non-carrying lane on ``ra``, a
  seeded sample of initial scenes with ``c1`` on ``rb`` (the road that runs
  end to start) and ``c2`` on ``ra``;
* ``SAME_WAY``: two roads that traverse the window in the same direction,
  ``c1`` on ``ra`` and ``c2`` on ``rb``.

Each is run in shortest mode at horizon 4 and in exact mode at horizon 3.
The narrowed universes of the last two (`oracle.all_valid_scenes` with
``occupancies``) keep each vehicle on lanes of its road, which the rules
demand on a network without connections (PR7, PR12); no valid scene of
``OPPOSED`` leaves a vehicle on no lane.
"""

from __future__ import annotations

import random

import pytest

from trafficlogic import facts
from trafficlogic.domain import LonRel
from trafficlogic.reasoner import ExpansionRequest, Goal, GoalAtom, expand, parse_request

from oracle import TransitionGraph, all_valid_scenes, oracle_expand

WINDOW_POINTS = (
    "class(pos, os).\nclass(poe, oe).\n"
    "pon(pos, l1).\npon(poe, l1).\npon(pos, l2).\npon(poe, l2).\n"
    "overlap(pos, poe).\nsuccp(l1, pos, poe).\n"
)
OPPOSED = "lane(l1, ra).\nlane(l2, rb).\n" + WINDOW_POINTS + "succp(l2, poe, pos).\n"
OPPOSED_2L = (
    "lane(l1, ra).\nlane(l3, ra).\nleft(l3, l1).\nlane(l2, rb).\n" + WINDOW_POINTS + "succp(l2, poe, pos).\n"
)
SAME_WAY = "lane(l1, ra).\nlane(l2, rb).\n" + WINDOW_POINTS + "succp(l2, pos, poe).\n"

VEHICLES = frozenset({"c1", "c2"})
RELS = (LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND)
GOALS = [
    GoalAtom("lonro", pair, rel) for pair in (("c1", "c2"), ("c2", "c1")) for rel in RELS
] + [GoalAtom("lonpr", (c, p), rel) for c in ("c1", "c2") for p in ("pos", "poe") for rel in RELS]
MODES = (("shortest", 4), ("exact", 3))


class Universe:
    def __init__(self, text: str, occupancies=None) -> None:
        self.net, _ = facts.parse_network(text)
        self.scenes = all_valid_scenes(self.net, VEHICLES, occupancies)
        self.graph = TransitionGraph(self.net, self.scenes)

    def differing(self, initials) -> list[str]:
        """Every (initial scene, goal, mode) case where `expand` and the oracle disagree."""
        out = []
        for i, scene in enumerate(initials):
            for atom in GOALS:
                for mode, horizon in MODES:
                    req = ExpansionRequest(scene, self.net, VEHICLES, horizon, mode, Goal((atom,)))
                    if list(expand(req).texts) != oracle_expand(req, self.graph):
                        out.append(f"scene {i}, {atom.kind}{atom.args} {atom.rel.value}, {mode}")
        return out


@pytest.fixture(scope="module")
def opposed() -> Universe:
    return Universe(OPPOSED)


def test_opposed_window_every_initial_scene(opposed):
    assert len(opposed.scenes) == 120
    assert all(s.occ_of(c) for s in opposed.scenes for c in VEHICLES)
    assert opposed.differing(opposed.scenes) == []


def test_opposed_window_two_lanes_sample():
    u = Universe(OPPOSED_2L, {"c1": [{"l2"}], "c2": [{"l1"}, {"l3"}, {"l1", "l3"}]})
    # c2 on the non-carrying lane l3 may cover c1 (PR13 forbids it only on l1)
    assert any(
        s.occ_of("c2") == {"l3"} and s.orel_of("c1", "c2") is LonRel.COVER for s in u.scenes
    )
    assert u.differing(random.Random(11).sample(u.scenes, 12)) == []


def test_same_way_window():
    u = Universe(SAME_WAY, {"c1": [{"l1"}], "c2": [{"l2"}]})
    inside = [s for s in u.scenes if ("c1", "c2") in s.orel]
    assert inside
    assert u.differing(u.scenes) == []


def test_reproducer_lonro_behind_on_the_end_to_start_road(opposed):
    """``c1`` on ``rb`` past ``poe``, ``c2`` covering ``pos``: one 2-step scenario."""
    req = parse_request(
        OPPOSED
        + "#init\non(c1, l2).\non(c2, l1).\n"
        "lonpr(c1, poe, ahead).\nlonpr(c1, pos, behind).\n"
        "lonpr(c2, pos, cover).\nlonpr(c2, poe, behind).\n"
        "#horizon 4\n#mode shortest\n#goal lonro(c1, c2, behind)\n"
    )
    res = expand(req)
    assert list(res.texts) == oracle_expand(req, opposed.graph)
    assert res.shortest_length == 2
    (final,) = {sc.scenes[-1] for sc in res.scenarios}
    assert final.orel_of("c1", "c2") is final.orel_of("c2", "c1") is LonRel.BEHIND


@pytest.mark.parametrize("mode", ["shortest", "exact"])
def test_goal_point_already_passed(opposed, mode):
    """``c2`` is ahead of ``pos`` and can never be behind it again."""
    req = parse_request(
        OPPOSED
        + "#init\non(c1, l2).\non(c2, l1).\n"
        "lonpr(c1, poe, behind).\nlonpr(c1, pos, behind).\n"
        "lonpr(c2, pos, ahead).\nlonpr(c2, poe, behind).\n"
        f"#horizon 3\n#mode {mode}\n#goal lonpr(c2, pos, behind)\n"
    )
    assert expand(req).scenarios == ()
    assert oracle_expand(req, opposed.graph) == []

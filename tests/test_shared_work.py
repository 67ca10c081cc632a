"""Work that `expand` shares across parents and paths changes no result.

* **Solved subproblems.**  `_gen_successors` solves each slot problem (an
  occupancy tuple with its slot domains and window allowances, the values
  PR14_CONT leaves each window pair) once per scene map, and reuses the
  solution for every later parent that poses it.  On every parent reached
  in the ``tests/test_successors.py`` families and in drawn composite
  networks (`test_generator_soundness.requests`), a call through one map
  shared by all calls, whatever their ``frozen`` and ``prel_pins``, must
  return what a call with a fresh map returns.  The parent is no part of a
  subproblem, so parents share subproblems on a network with windows too:
  `expand` of ``ex5_opposing_pass`` solves fewer subproblems than it has
  (parent, occupancy) choices.
* **Canonical order from the search.**  `expand` emits the scenarios in
  the order of their texts without sorting them: the depth-first walk
  takes each live scene's live successors in text order.  ``texts`` must be
  sorted, each text must be `facts.render_scenario` of its scenario, and
  the counts of scenarios, (scene, depth) pairs and pruned pairs are
  pinned.
"""

from __future__ import annotations

import math
import pathlib

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from trafficlogic import facts, reasoner
from trafficlogic.domain import LonRel
from trafficlogic.facts import ParseError
from trafficlogic.reasoner import _gen_successors, _goal_pins, expand, parse_request

from test_generator_soundness import requests
from test_successors import (
    FAMILIES,
    TWO_WINDOWS,
    WINDOW_EXIT,
    WINDOW_HOP,
    chain_request,
    dense_request,
    window_request,
)

DATA = pathlib.Path(__file__).parent / "data"
#: the values a goal ``lonpr`` atom pins its slot to (see `reasoner._goal_pins`)
PINS = (frozenset({LonRel.BEHIND}), frozenset({LonRel.BEHIND, LonRel.COVER}))


def _parents(req, depth=None, budget=None):
    """The scenes reachable from the initial scene, nearest first, within ``depth`` steps and ``budget`` scenes."""
    steps = {req.initial: 0}
    todo = [req.initial]
    for s in todo:
        if budget is not None and len(todo) >= budget:
            break
        if depth is not None and steps[s] == depth:
            continue
        for t in _gen_successors(s, req.network, req.frozen, {}):
            if t not in steps:
                steps[t] = steps[s] + 1
                todo.append(t)
    return todo[:budget]


def _assert_shared_map_invisible(req, pins, parents):
    """Each parent, under each (frozen, pins) pair, through one shared map equals a fresh call."""
    net = req.network
    interned: dict = {}
    for s in parents:
        for frozen in dict.fromkeys((frozenset(), req.frozen)):
            for pin in ({}, pins) if pins else ({},):
                assert _gen_successors(s, net, frozen, pin, interned) == _gen_successors(s, net, frozen, pin)


@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_shared_map_matches_fresh_calls_on_families(family):
    _, text, bound = family
    req = parse_request(text)
    _assert_shared_map_invisible(req, _goal_pins(req.goal, req.network), _parents(req, bound))


def test_shared_map_matches_fresh_calls_on_drawn_networks():
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(requests(), st.data())
    def run(case, data):
        text, depth = case
        try:
            req = parse_request(text)
        except ParseError:
            reject()
        # a goal-like pin on one of the first vehicle's points
        first = req.initial.vehicles[0]
        points = sorted(p for (c, p) in req.initial.prel if c == first)
        pins = {}
        if points:
            pins[first, data.draw(st.sampled_from(points))] = data.draw(st.sampled_from(PINS))
        _assert_shared_map_invisible(req, pins, _parents(req, depth, 20))

    run()


def _horizon(text: str, directives: str) -> str:
    return text.replace("#horizon 2\n", directives)


#: name -> (request text, scenarios, (scene, depth) pairs, pruned pairs)
ORDERED = {
    "dense-3v-2l-h4": (_horizon(dense_request(2, (1, 2, 1)), "#horizon 4\n"), 6842, 241, 0),
    "dense-4v-2l-h3": (_horizon(dense_request(2, (1, 2, 1, 2)), "#horizon 3\n"), 3190, 433, 0),
    "ex1_overtake": ((DATA / "ex1_overtake.req").read_text(), 4, 18, 10),
    "ex2_crossing": ((DATA / "ex2_crossing.req").read_text(), 2, 8, 2),
    "ex3_branching": ((DATA / "ex3_branching.req").read_text(), 3, 5, 0),
    "ex4_two_crossings": ((DATA / "ex4_two_crossings.req").read_text(), 2, 10, 4),
    "ex5_opposing_pass": ((DATA / "ex5_opposing_pass.req").read_text(), 2, 29, 19),
    "chain-shortest": (_horizon(chain_request(), "#horizon 8\n#mode shortest\n#goal on(c1, l3)\n"), 5, 28, 15),
    "window-opposed-h5": (_horizon(window_request("poe", "pos"), "#horizon 5\n"), 302, 68, 1),
    "two-windows-h4": (_horizon(TWO_WINDOWS, "#horizon 4\n"), 1934, 259, 0),
    "window-hop-h4": (_horizon(WINDOW_HOP, "#horizon 4\n"), 46, 36, 0),
    "window-exit-h4": (_horizon(WINDOW_EXIT, "#horizon 4\n"), 15, 15, 2),
}


@pytest.mark.parametrize("name", ORDERED)
def test_scenarios_come_out_in_canonical_order(name):
    text, count, nodes, pruned = ORDERED[name]
    res = expand(parse_request(text))
    assert res.texts == tuple(sorted(res.texts))
    assert list(res.texts) == [facts.render_scenario(sc) for sc in res.scenarios]
    assert (len(res.texts), res.stats.nodes, res.stats.pruned) == (count, nodes, pruned)


def _count_subproblems(monkeypatch, text):
    """(subproblems solved, (parent, occupancy) choices) in one `expand` of ``text``."""
    solves, groups = [], []
    solve, occ_moves, gen = reasoner._solve, reasoner._occ_moves, reasoner._gen_successors

    def counted_solve(*args):
        solves.append(None)
        return solve(*args)

    def counted_occ_moves(*args):
        found = occ_moves(*args)
        groups[-1].append(len(found))
        return found

    def counted_gen(*args, **kwargs):
        groups.append([])
        return gen(*args, **kwargs)

    monkeypatch.setattr(reasoner, "_solve", counted_solve)
    monkeypatch.setattr(reasoner, "_occ_moves", counted_occ_moves)
    monkeypatch.setattr(reasoner, "_gen_successors", counted_gen)
    expand(parse_request(text))
    return len(solves), sum(map(math.prod, groups))


def test_parents_share_subproblems_on_a_network_with_windows(monkeypatch):
    solves, choices = _count_subproblems(monkeypatch, (DATA / "ex5_opposing_pass.req").read_text())
    assert choices == 54
    assert solves < choices


@pytest.mark.parametrize(
    "text, counts",
    [
        (_horizon(dense_request(2, (1, 2, 1)), "#horizon 4\n"), (192, 893)),
        (_horizon(chain_request(), "#horizon 4\n"), (15, 15)),
    ],
    ids=["dense-3v-2l-h4", "chain-2v-3r-h4"],
)
def test_window_free_subproblem_counts_are_unchanged(monkeypatch, text, counts):
    assert _count_subproblems(monkeypatch, text) == counts

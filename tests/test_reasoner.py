"""Enumerator semantics: request parsing, search modes, fixture counts.

Counts for the bundled request fixtures are cross-checked against the
brute-force oracle in ``tests/oracle.py`` wherever its state space stays
tractable; the larger opposing-traffic fixture is pinned by count and
minimal length instead.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from trafficlogic import facts, reasoner
from trafficlogic.domain import LonRel, OverlapZone, Scene
from trafficlogic.facts import ParseError, render_scenario
from trafficlogic.reasoner import (
    ExpansionRequest,
    GoalAtom,
    RequestError,
    expand,
    parse_request,
    successors,
)
from trafficlogic.rules import check_scenario

from oracle import oracle_expand

DATA = pathlib.Path(__file__).parent / "data"


def load_request(name: str) -> ExpansionRequest:
    return parse_request((DATA / name).read_text())


def req_text(body: str) -> str:
    return body.strip() + "\n"


def chain_network(n: int) -> str:
    """n single-lane roads l1..ln joined end to end by connections pc1..pc(n-1)."""
    facts_ = [f"lane(l{i}, r{i})." for i in range(1, n + 1)]
    for i in range(1, n):
        facts_ += [f"class(pc{i}, c).", f"pon(pc{i}, l{i}).", f"pon(pc{i}, l{i + 1}).",
                   f"succl(pc{i}, l{i + 1})."]
    facts_ += [f"succp(l{i}, pc{i - 1}, pc{i})." for i in range(2, n)]
    return "\n".join(facts_) + "\n"


def chain_request(n: int, directives: str) -> str:
    """c1 on l1 behind pc1, with a goal of reaching the last lane."""
    return (
        chain_network(n)
        + f"#init\non(c1, l1).\nlonpr(c1, pc1, behind).\n#goal on(c1, l{n})\n"
        + directives
    )


class TestRequestParsing:
    def test_defaults(self):
        req = parse_request(
            req_text(
                """
                lane(l1, ra).
                #init
                on(c1, l1).
                #horizon 3
                """
            )
        )
        assert req.mode == "exact"
        assert req.goal is None
        assert req.frozen == frozenset()
        assert req.final_stable is None
        assert req.horizon == 3
        assert req.vehicles == frozenset({"c1"})

    def test_missing_horizon(self):
        with pytest.raises(ParseError, match="horizon"):
            parse_request("lane(l1, ra).\n#init\non(c1, l1).\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="#steps"):
            parse_request("lane(l1, ra).\n#steps 3\n")

    def test_bad_mode(self):
        with pytest.raises(ParseError, match="fastest"):
            parse_request(
                "lane(l1, ra).\n#init\non(c1, l1).\n#horizon 2\n#mode fastest\n"
            )

    def test_goal_splitting_and_negation(self):
        req = parse_request(
            req_text(
                """
                lane(l1, ra).
                lane(l2, ra).
                left(l1, l2).
                #init
                on(c1, l1).
                on(c2, l1).
                lonr(c1, c2, behind).
                #horizon 4
                #goal lonr(c1, c2, ahead), not on(c1, l2)
                """
            )
        )
        assert req.goal is not None
        kinds = [(a.kind, a.negated) for a in req.goal.atoms]
        assert kinds == [("lonr", False), ("on", True)]
        assert req.goal.atoms[0].rel is LonRel.AHEAD

    def test_goal_unknown_vehicle(self):
        with pytest.raises(RequestError, match="c9"):
            parse_request(
                "lane(l1, ra).\n#init\non(c1, l1).\n#horizon 2\n#goal on(c9, l1)\n"
            )

    def test_goal_unknown_point(self):
        with pytest.raises(RequestError, match="px"):
            parse_request(
                "lane(l1, ra).\n#init\non(c1, l1).\n#horizon 2\n"
                "#goal lonpr(c1, px, ahead)\n"
            )

    def test_goal_unknown_lane(self):
        with pytest.raises(RequestError, match="l9"):
            parse_request(
                "lane(l1, ra).\n#init\non(c1, l1).\n#horizon 2\n#goal on(c1, l9)\n"
            )

    def test_bad_final_value(self):
        with pytest.raises(ParseError, match="sometimes"):
            parse_request(
                "lane(l1, ra).\n#init\non(c1, l1).\n#horizon 2\n#final sometimes\n"
            )

    def test_goal_bad_relation_value(self):
        with pytest.raises(ParseError, match="sideways"):
            parse_request(
                "lane(l1, ra).\n#init\non(c1, l1).\n#horizon 2\n"
                "#goal lonr(c1, c1, sideways)\n"
            )

    def test_freeze_unknown_vehicle(self):
        with pytest.raises(RequestError, match="ghost"):
            parse_request(
                "lane(l1, ra).\n#init\non(c1, l1).\n#horizon 2\n#freeze ghost\n"
            )

    def test_goal_atom_holds_on_multilane_occupancy(self):
        req = load_request("ex1_overtake.req")
        straddle = req.initial  # c1 and c2 both on l2
        assert GoalAtom("on", ("c1", "l2"), None).holds(straddle)
        assert not GoalAtom("on", ("c1", "l1"), None).holds(straddle)
        assert GoalAtom("lonr", ("c1", "c2"), LonRel.BEHIND).holds(straddle)
        assert GoalAtom("lonr", ("c1", "c2"), LonRel.BEHIND, negated=True).holds(
            straddle
        ) is False


class TestExpansionSemantics:
    ONE_LANE = "lane(l1, ra).\n#init\non(c1, l1).\n"
    TWO_LANE = (
        "lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).\n#init\non(c1, l1).\n"
    )

    def test_single_lane_cannot_move(self):
        # the only scene repeats, and repetition is not a step
        assert len(expand(parse_request(self.ONE_LANE + "#horizon 1\n")).scenarios) == 1
        assert expand(parse_request(self.ONE_LANE + "#horizon 2\n")).scenarios == ()

    def test_lane_change_goes_through_straddling(self):
        res = expand(parse_request(self.TWO_LANE + "#horizon 2\n"))
        occs = [sc.scenes[1].occ_of("c1") for sc in res.scenarios]
        assert occs == [frozenset({"l1", "l2"})]

    def test_goal_filters_exact_mode_leaves(self):
        res = expand(
            parse_request(self.TWO_LANE + "#horizon 3\n#goal on(c1, l2), not on(c1, l1)\n")
        )
        assert len(res.scenarios) == 1
        assert res.scenarios[0].scenes[-1].occ_of("c1") == frozenset({"l2"})

    def test_shortest_mode_respects_steadiness(self):
        base = self.TWO_LANE + "#mode shortest\n#horizon 5\n#goal on(c1, l2)\n"
        settled = expand(parse_request(base))
        assert settled.shortest_length == 3  # straddling final scenes excluded
        eager = expand(parse_request(base + "#final any\n"))
        assert eager.shortest_length == 2

    def test_shortest_mode_needs_goal(self):
        with pytest.raises(RequestError, match="goal"):
            expand(parse_request(self.TWO_LANE + "#horizon 2\n#mode shortest\n"))

    def test_nonpositive_horizon_rejected(self):
        req = parse_request(self.ONE_LANE + "#horizon 1\n")
        req.horizon = 0
        with pytest.raises(RequestError, match="horizon"):
            expand(req)

    def test_unknown_mode_rejected(self):
        req = parse_request(self.ONE_LANE + "#horizon 1\n")
        req.mode = "fastest"
        with pytest.raises(RequestError, match="fastest"):
            expand(req)

    def test_invalid_initial_scene_rejected(self):
        bad = (
            "lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).\n"
            "#init\non(c1, l1).\non(c2, l2).\n#horizon 2\n"
        )
        with pytest.raises(RequestError, match="initial scene"):
            expand(parse_request(bad))

    def test_goal_already_true_in_shortest_mode(self):
        res = expand(
            parse_request(self.TWO_LANE + "#mode shortest\n#horizon 4\n#goal on(c1, l1)\n")
        )
        assert res.shortest_length == 1
        assert len(res.scenarios) == 1

    def test_freeze_pins_occupancy(self):
        text = (
            "lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).\n"
            "#init\non(c1, l1).\non(c2, l1).\nlonr(c1, c2, behind).\n"
            "#horizon 3\n#freeze c2\n"
        )
        res = expand(parse_request(text))
        assert res.scenarios  # something still moves
        for sc in res.scenarios:
            for sn in sc.scenes:
                assert sn.occ_of("c2") == frozenset({"l1"})
        unfrozen = expand(parse_request(text.replace("#freeze c2\n", "")))
        assert len(unfrozen.scenarios) > len(res.scenarios)

    @pytest.mark.parametrize(
        "extra",
        [
            "#horizon 3\n",
            "#horizon 3\n#goal on(c1, l2)\n",
            "#horizon 4\n#mode shortest\n#goal on(c1, l2), not on(c1, l1)\n",
            "#horizon 3\n#freeze c2\n",
        ],
    )
    def test_engine_matches_oracle_on_small_requests(self, extra):
        text = (
            "lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).\n"
            "#init\non(c1, l1).\non(c2, l1).\nlonr(c1, c2, behind).\n" + extra
        )
        req = parse_request(text)
        got = sorted(render_scenario(sc) for sc in expand(req).scenarios)
        assert got == oracle_expand(parse_request(text))


class TestChainNetworks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["shortest", "exact"])
    def test_engine_matches_oracle_on_chains(self, n, mode):
        text = chain_request(n, f"#mode {mode}\n#horizon {n + 2}\n")
        got = sorted(render_scenario(sc) for sc in expand(parse_request(text)).scenarios)
        assert got == oracle_expand(parse_request(text))

    @pytest.mark.parametrize("n", [2, 3, 4, 80])
    def test_one_road_per_step(self, n):
        # entering a road may already cover its exit connection, so the
        # chain is crossed at one road per step: T* = n + 1, one scenario
        res = expand(parse_request(chain_request(n, f"#mode shortest\n#horizon {2 * n}\n")))
        assert res.shortest_length == n + 1
        assert len(res.scenarios) == 1

    def test_entering_past_the_exit_is_a_dead_end(self):
        net = chain_network(3)
        covering = parse_request(net + "#init\non(c1, l1).\nlonpr(c1, pc1, cover).\n#horizon 1\n")
        stuck = parse_request(
            net + "#init\non(c1, l2).\nlonpr(c1, pc1, ahead).\nlonpr(c1, pc2, ahead).\n#horizon 1\n"
        )
        assert stuck.initial in successors(covering.initial, covering.network)
        assert successors(stuck.initial, stuck.network) == ()

    @pytest.mark.parametrize("mode", ["shortest", "exact"])
    def test_long_horizon_needs_no_recursion(self, mode):
        n = 250
        req = parse_request(chain_request(n, f"#mode {mode}\n#horizon {n + 1}\n"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            res = expand(req)
        finally:
            sys.setrecursionlimit(limit)
        assert [sc.horizon for sc in res.scenarios] == [n + 1]


class TestFixtureRequests:
    @pytest.mark.parametrize(
        "name,count,length",
        [
            ("ex1_overtake.req", 4, 4),
            ("ex2_crossing.req", 2, 4),
            ("ex3_branching.req", 3, 3),
            ("ex4_two_crossings.req", 2, 5),
            ("ex5_opposing_pass.req", 2, 6),
        ],
    )
    def test_counts_and_lengths(self, name, count, length):
        res = expand(load_request(name))
        assert len(res.scenarios) == count
        assert {sc.horizon for sc in res.scenarios} == {length}
        for sc in res.scenarios:
            assert check_scenario(sc) == []
        keys = [render_scenario(sc) for sc in res.scenarios]
        assert keys == sorted(keys) and len(set(keys)) == count

    @pytest.mark.parametrize(
        "name",
        [
            "ex1_overtake.req",
            "ex2_crossing.req",
            "ex3_branching.req",
            "ex4_two_crossings.req",
        ],
    )
    def test_fixtures_match_oracle(self, name):
        req = load_request(name)
        got = sorted(render_scenario(sc) for sc in expand(req).scenarios)
        assert got == oracle_expand(load_request(name))

    def test_overtake_search_effort_is_stable(self):
        res = expand(load_request("ex1_overtake.req"))
        assert res.stats.nodes == 33

    def test_opposing_pass_search_effort_is_stable(self):
        res = expand(load_request("ex5_opposing_pass.req"))
        assert res.stats.nodes == 90

    @pytest.mark.parametrize("name", ["ex1_overtake.req", "ex5_opposing_pass.req"])
    def test_worker_fanout_is_deterministic(self, name):
        serial = expand(load_request(name), workers=1)
        fanned = expand(load_request(name), workers=4)
        assert [render_scenario(s) for s in serial.scenarios] == [
            render_scenario(s) for s in fanned.scenarios
        ]
        assert serial.stats.nodes == fanned.stats.nodes
        assert serial.stats.pruned == fanned.stats.pruned

    #: four vehicles on three lanes, c3 and c4 free to move for two steps
    DENSE = (
        "lane(l1, ra).\nlane(l2, ra).\nlane(l3, ra).\nleft(l1, l2).\nleft(l2, l3).\n#init\n"
        "on(c1, l1).\non(c2, l2).\non(c3, l2).\non(c4, l3).\n"
        + "".join(f"lonr(c{i}, c{j}, behind).\n" for i in range(1, 5) for j in range(i + 1, 5))
        + "#horizon 3\n#freeze c1, c2\n"
    )

    #: the transition judgments `rules.check_transition` is made of, as the generator calls them
    JUDGMENTS = ("vrel_step_ok", "occ_step_ok", "prel_step_ok", "connection_step_ok", "window_step_ok")

    @pytest.mark.parametrize(
        "text,scopes",
        [
            ((DATA / "ex5_opposing_pass.req").read_text(), {"vrel", "occ", "prel", "window"}),
            ((DATA / "ex3_branching.req").read_text(), {"occ", "prel", "connection"}),
            (DENSE, {"vrel", "occ"}),
        ],
        ids=["ex5_opposing_pass", "ex3_branching", "dense-4v-3l"],
    )
    def test_each_distinct_scene_is_judged_once(self, text, scopes, monkeypatch):
        """`expand` shares scene verdicts across parents and never checks a whole transition.

        Each transition judgment runs at most once per (parent, scope, value).
        """
        plain = expand(parse_request(text)).texts
        judged, transitions, judgments = [], [], []
        parent: list[Scene] = []
        check_scene, gen_successors = reasoner.check_scene, reasoner._gen_successors

        def counting_scene(scene, n, step=1):
            judged.append(scene)
            return check_scene(scene, n, step)

        def generating(scene, *args, **kwargs):
            parent[:] = [scene]
            return gen_successors(scene, *args, **kwargs)

        def counting(name, judge):
            def wrapper(*args):
                # windows are unhashable dataclasses; one network's zones are told apart by identity
                key = tuple(id(a) if isinstance(a, OverlapZone) else a for a in args)
                judgments.append((parent[0], name, key))
                return judge(*args)

            return wrapper

        monkeypatch.setattr(reasoner, "check_scene", counting_scene)
        monkeypatch.setattr(reasoner, "check_transition", lambda *args: transitions.append(args))
        monkeypatch.setattr(reasoner, "_gen_successors", generating)
        for name in self.JUDGMENTS:
            monkeypatch.setattr(reasoner, name, counting(name, getattr(reasoner, name)))
        assert expand(parse_request(text)).texts == plain
        assert len(judged) == len(set(judged))
        assert transitions == []
        assert len(judgments) == len(set(judgments))
        assert {name.removesuffix("_step_ok") for _, name, _ in judgments} == scopes

    def test_result_rendering_roundtrips(self):
        res = expand(load_request("ex3_branching.req"))
        text = facts.render_result(res.scenarios)
        again = facts.parse_scenarios(text, load_request("ex3_branching.req").network)
        assert [render_scenario(s) for s in again] == [
            render_scenario(s) for s in res.scenarios
        ]

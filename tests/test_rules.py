"""One falsifying fixture per rule, plus clean counterparts.

Each test builds the smallest scene (or scene pair) that breaks exactly
the rule under test and asserts the checker reports it; neighbouring
tests assert the legal variant stays clean, so the rules neither
under- nor over-fire.
"""

from __future__ import annotations

import pathlib
from itertools import combinations, permutations, product
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import stepwise_violations
from reference_rules import reference_check_scene
from reference_transition import reference_transition

from trafficlogic import facts
from trafficlogic.domain import LonRel, Scenario, Scene, invert
from trafficlogic.reasoner import _VREL_TRIPLES
from trafficlogic.rules import (
    COMPOSITION,
    PREL_NEXT,
    VREL_NEXT,
    RuleId,
    Violation,
    check_scene,
    check_scenario,
    check_transition,
    render_report,
)

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE


def _net(text: str):
    net, _ = facts.parse_network(text)
    return net

ROAD2 = _net("lane(l1,ra).\nlane(l2,ra).\nleft(l1,l2).")
CROSSING = _net(
    "lane(l1,ra).\nlane(l2,rb).\nlane(l4,rb).\nleft(l2,l4).\n"
    "class(px,x).\npon(px,l1).\npon(px,l2)."
)
CONNECTION = _net(
    "lane(l1,ra).\nlane(l2,rb).\nclass(pc,c).\n"
    "pon(pc,l1).\npon(pc,l2).\nsuccl(pc,l2)."
)
OVERLAP = _net(
    "lane(l2,ra).\nlane(l1,ra).\nleft(l2,l1).\nlane(l3,rb).\n"
    "class(pos,os).\nclass(poe,oe).\n"
    "pon(pos,l2).\npon(poe,l2).\npon(pos,l3).\npon(poe,l3).\n"
    "succp(l2,pos,poe).\nsuccp(l3,poe,pos).\noverlap(pos,poe)."
)
#: Two roads that traverse one window the same way, from pos to poe.
SAME_WAY = _net(
    "lane(l1,ra).\nlane(l2,rb).\nclass(pos,os).\nclass(poe,oe).\n"
    "pon(pos,l1).\npon(poe,l1).\npon(pos,l2).\npon(poe,l2).\n"
    "succp(l1,pos,poe).\nsuccp(l2,pos,poe).\noverlap(pos,poe)."
)


def rules_of(violations: list[Violation]) -> set[RuleId]:
    return {v.rule for v in violations}


def scene(occ, vrel=None, prel=None, orel=None) -> Scene:
    return Scene.build(occ, vrel or {}, prel or {}, orel or {})


def engaged_ra(c: str, prel: dict) -> dict:
    """Relations putting ``c`` (travelling on ra) inside the window."""
    prel[(c, "pos")] = A
    prel[(c, "poe")] = B
    return prel


def engaged_rb(c: str, prel: dict) -> dict:
    """Relations putting ``c`` (travelling on rb) inside the window."""
    prel[(c, "poe")] = A
    prel[(c, "pos")] = B
    return prel


class TestTransitionTables:
    def test_vrel_steps_never_jump_across_cover(self):
        assert VREL_NEXT[A] == {A, C}
        assert VREL_NEXT[B] == {B, C}
        assert VREL_NEXT[C] == {A, C, B}

    def test_prel_steps_are_monotone(self):
        assert PREL_NEXT[B] == {B, C}
        assert PREL_NEXT[C] == {C, A}
        assert PREL_NEXT[A] == {A}

    def test_composition_identity_rows(self):
        assert COMPOSITION[(A, A)] == {A}
        assert COMPOSITION[(B, B)] == {B}
        assert COMPOSITION[(A, B)] == {A, C, B}
        assert COMPOSITION[(C, C)] == {A, C, B}

    def test_vehicle_triangles_are_the_composition_closure(self):
        """The generator's vehicle triangles (PR2, PR3) are the triples `COMPOSITION` admits in every order.

        `window_breaks` judges window triangles by that table, so the two
        cannot drift apart unseen.
        """

        def composes(xy: LonRel, xz: LonRel, yz: LonRel) -> bool:
            rel = {(0, 1): xy, (0, 2): xz, (1, 2): yz}
            rel.update({(b, a): invert(v) for (a, b), v in rel.items()})
            return all(rel[a, c] in COMPOSITION[rel[a, b], rel[b, c]] for a, b, c in permutations(range(3)))

        closure = {t for t in product((A, C, B), repeat=3) if composes(*t)}
        assert len(closure) == 19
        assert _VREL_TRIPLES == closure


class TestSceneRules:
    def test_pr1_asymmetric_mirror(self):
        s = Scene(
            {"c1": frozenset({"l1"}), "c2": frozenset({"l1"})},
            {("c1", "c2"): A, ("c2", "c1"): A},
            {},
            {},
        )
        assert RuleId.PR1 in rules_of(check_scene(s, ROAD2))

    def test_pr2_broken_transitivity(self):
        s = scene(
            {"c1": ["l1"], "c2": ["l1"], "c3": ["l1"]},
            vrel={("c1", "c2"): A, ("c2", "c3"): A, ("c1", "c3"): C},
        )
        assert RuleId.PR2 in rules_of(check_scene(s, ROAD2))

    def test_pr2_clean_chain(self):
        s = scene(
            {"c1": ["l1"], "c2": ["l1"], "c3": ["l1"]},
            vrel={("c1", "c2"): A, ("c2", "c3"): A, ("c1", "c3"): A},
        )
        assert check_scene(s, ROAD2) == []

    def test_pr3_cover_cycle(self):
        s = scene(
            {"c1": ["l1"], "c2": ["l2"], "c3": ["l1"]},
            vrel={("c1", "c2"): A, ("c2", "c3"): C, ("c3", "c1"): A},
        )
        assert RuleId.PR3 in rules_of(check_scene(s, ROAD2))

    def test_pr5_occupancy_must_be_adjacent(self):
        wide = _net(
            "lane(l1,ra).\nlane(l2,ra).\nlane(l3,ra).\nleft(l1,l2).\nleft(l2,l3)."
        )
        s = scene({"c1": ["l1", "l3"]})
        assert RuleId.PR5 in rules_of(check_scene(s, wide))
        assert check_scene(scene({"c1": ["l1", "l2"]}), wide) == []

    def test_pr6_empty_occupancy(self):
        s = scene({"c1": []})
        assert RuleId.PR6 in rules_of(check_scene(s, ROAD2))

    def test_pr8_two_roads_at_once(self):
        s = scene({"c1": ["l1", "l2"]})
        assert RuleId.PR8 in rules_of(check_scene(s, CONNECTION))

    def test_pr10_missing_point_relation_on_own_road(self):
        s = scene({"c1": ["l1"]})
        assert RuleId.PR10 in rules_of(check_scene(s, CROSSING))
        ok = scene({"c1": ["l1"]}, prel={("c1", "px"): B})
        assert check_scene(ok, CROSSING) == []

    def test_pr10_applies_road_wide(self):
        # px sits on l2 only, yet a vehicle on the neighbour lane l4 of the
        # same road still relates to it
        s = scene({"c2": ["l4"]})
        assert RuleId.PR10 in rules_of(check_scene(s, CROSSING))

    def test_pr11_two_coverers_on_carrying_lanes(self):
        s = scene(
            {"c1": ["l1"], "c2": ["l2"]},
            prel={("c1", "px"): C, ("c2", "px"): C},
        )
        assert RuleId.PR11 in rules_of(check_scene(s, CROSSING))

    def test_pr11_spares_non_carrying_occupancy(self):
        s = scene(
            {"c1": ["l1"], "c2": ["l4"]},
            prel={("c1", "px"): C, ("c2", "px"): C},
        )
        assert check_scene(s, CROSSING) == []

    def test_pr13_engaged_pair_needs_window_relation(self):
        prel = engaged_ra("c1", engaged_rb("c3", {}))
        s = scene({"c1": ["l1"], "c3": ["l3"]}, prel=prel)
        assert RuleId.PR13 in rules_of(check_scene(s, OVERLAP))

    def test_pr13_same_road_relation_must_copy(self):
        prel = engaged_ra("c1", engaged_ra("c2", {}))
        s = scene(
            {"c1": ["l1"], "c2": ["l1"]},
            vrel={("c1", "c2"): B},
            prel=prel,
            orel={("c1", "c2"): C, ("c2", "c1"): C},
        )
        assert RuleId.PR13 in rules_of(check_scene(s, OVERLAP))

    def test_pr13_head_on_cover_needs_a_free_lane(self):
        prel = engaged_ra("c1", engaged_rb("c3", {}))
        clash = scene(
            {"c1": ["l2"], "c3": ["l3"]},
            prel=prel,
            orel={("c1", "c3"): C, ("c3", "c1"): C},
        )
        assert RuleId.PR13 in rules_of(check_scene(clash, OVERLAP))
        # same meeting, but the passer has moved to the non-carrying lane
        swerved = scene(
            {"c1": ["l1"], "c3": ["l3"]},
            prel=prel,
            orel={("c1", "c3"): C, ("c3", "c1"): C},
        )
        assert check_scene(swerved, OVERLAP) == []

    def test_pr14_sym_opposing_relation_is_mutual(self):
        prel = engaged_ra("c1", engaged_rb("c3", {}))
        s = scene(
            {"c1": ["l1"], "c3": ["l3"]},
            prel=prel,
            orel={("c1", "c3"): B, ("c3", "c1"): A},
        )
        assert RuleId.PR14_SYM in rules_of(check_scene(s, OVERLAP))

    def test_pr14_trans_point_order_vs_relations(self):
        two_points = _net(
            "lane(l1,ra).\nlane(lx,rx).\nlane(ly,ry).\n"
            "class(px1,x).\nclass(px2,x).\n"
            "pon(px1,l1).\npon(px1,lx).\npon(px2,l1).\npon(px2,ly).\n"
            "succp(l1,px1,px2)."
        )
        # past the later point while still approaching the earlier one
        s = scene({"c1": ["l1"]}, prel={("c1", "px1"): B, ("c1", "px2"): A})
        assert RuleId.PR14_TRANS in rules_of(check_scene(s, two_points))

    def test_pr14_trans_vehicle_point_agreement(self):
        # c1 ahead of c2, c2 already past px => c1 must be past px too
        s = scene(
            {"c1": ["l1"], "c2": ["l1"]},
            vrel={("c1", "c2"): A},
            prel={("c1", "px"): C, ("c2", "px"): A},
        )
        assert RuleId.PR14_TRANS in rules_of(check_scene(s, CROSSING))

    def test_pr14_trans_window_triangle(self):
        prel = engaged_ra("c1", engaged_ra("c2", engaged_rb("c3", {})))
        s = scene(
            {"c1": ["l1"], "c2": ["l1"], "c3": ["l3"]},
            vrel={("c1", "c2"): A},
            prel=prel,
            orel={
                ("c1", "c2"): A, ("c2", "c1"): B,
                ("c2", "c3"): C, ("c3", "c2"): C,
                ("c1", "c3"): B, ("c3", "c1"): B,
            },
        )
        assert RuleId.PR14_TRANS in rules_of(check_scene(s, OVERLAP))

    def test_window_triangle_waits_for_every_relation(self):
        # the c1-c3 window relation is missing: PR13 fires, the triangle is not judged
        prel = engaged_ra("c1", engaged_ra("c2", engaged_rb("c3", {})))
        s = scene(
            {"c1": ["l1"], "c2": ["l1"], "c3": ["l3"]},
            vrel={("c1", "c2"): A},
            prel=prel,
            orel={("c1", "c2"): A, ("c2", "c1"): B, ("c2", "c3"): C, ("c3", "c2"): C},
        )
        assert rules_of(check_scene(s, OVERLAP)) == {RuleId.PR13}

    def test_tr1_at_most_two_lanes(self):
        wide = _net(
            "lane(l1,ra).\nlane(l2,ra).\nlane(l3,ra).\nleft(l1,l2).\nleft(l2,l3)."
        )
        s = scene({"c1": ["l1", "l2", "l3"]})
        assert RuleId.TR1 in rules_of(check_scene(s, wide))

    def test_tr2_no_cover_on_a_shared_lane(self):
        s = scene(
            {"c1": ["l1", "l2"], "c2": ["l2"]},
            vrel={("c1", "c2"): C},
        )
        assert RuleId.TR2 in rules_of(check_scene(s, ROAD2))
        apart = scene(
            {"c1": ["l1"], "c2": ["l2"]},
            vrel={("c1", "c2"): C},
        )
        assert check_scene(apart, ROAD2) == []


class TestWellFormedness:
    def test_unknown_lane(self):
        vs = check_scene(scene({"c1": ["nope"]}), ROAD2)
        assert any(v.rule is RuleId.WF and "unknown_lane" in v.witnesses for v in vs)

    def test_missing_vehicle_relation_on_shared_road(self):
        vs = check_scene(scene({"c1": ["l1"], "c2": ["l2"]}), ROAD2)
        assert any(v.rule is RuleId.WF and "missing_lonr" in v.witnesses for v in vs)

    def test_vehicle_relation_across_roads(self):
        s = scene({"c1": ["l1"], "c2": ["l2"]}, vrel={("c1", "c2"): A})
        vs = check_scene(s, CONNECTION)
        assert any(v.rule is RuleId.WF and "crossroad_lonr" in v.witnesses for v in vs)

    def test_point_relation_off_road(self):
        s = scene(
            {"c1": ["l2"]},
            prel={("c1", "pc"): C, ("c1", "px"): B},
        )
        combined = _net(
            "lane(l1,ra).\nlane(l2,rb).\nlane(l3,rc).\n"
            "class(px,x).\npon(px,l1).\npon(px,l3).\n"
            "class(pc,c).\npon(pc,l1).\npon(pc,l2).\nsuccl(pc,l2)."
        )
        vs = check_scene(s, combined)
        assert any(v.rule is RuleId.WF and "unsupported_lonpr" in v.witnesses for v in vs)

    def test_point_relation_to_unknown_point(self):
        s = scene({"c1": ["l1"]}, prel={("c1", "p9"): A})
        vs = check_scene(s, ROAD2)
        assert any(v.rule is RuleId.WF and "unknown_point" in v.witnesses for v in vs)

    def test_window_relation_without_engagement(self):
        s = scene(
            {"c1": ["l1"], "c3": ["l3"]},
            prel=engaged_ra("c1", {("c3", "poe"): A, ("c3", "pos"): A}),
            orel={("c1", "c3"): B, ("c3", "c1"): B},
        )
        vs = check_scene(s, OVERLAP)
        assert any(v.rule is RuleId.WF and "unsupported_lonro" in v.witnesses for v in vs)

    def test_self_relation(self):
        s = Scene({"c1": frozenset({"l1"})}, {("c1", "c1"): C}, {}, {})
        vs = check_scene(s, ROAD2)
        assert any(v.rule is RuleId.WF and "self_relation" in v.witnesses for v in vs)

    def test_self_window_relation(self):
        s = Scene({"c1": frozenset({"l1"})}, {}, engaged_ra("c1", {}), {("c1", "c1"): C})
        vs = check_scene(s, OVERLAP)
        assert any(v.rule is RuleId.WF and "self_relation" in v.witnesses for v in vs)


class TestTransitionRules:
    def test_pr4_no_jump_across_cover(self):
        before = scene({"c1": ["l1"], "c2": ["l1"]}, vrel={("c1", "c2"): B})
        after = scene({"c1": ["l1"], "c2": ["l1"]}, vrel={("c1", "c2"): A})
        assert RuleId.PR4 in rules_of(check_transition(before, after, ROAD2))

    def test_pr4_cover_step_is_fine(self):
        before = scene({"c1": ["l1"], "c2": ["l1"]}, vrel={("c1", "c2"): B})
        after = scene({"c1": ["l1"], "c2": ["l1"]}, vrel={("c1", "c2"): C})
        assert check_transition(before, after, ROAD2) == []

    def test_pr7_single_lane_step(self):
        before = scene({"c1": ["l1"]})
        after = scene({"c1": ["l2"]})
        assert RuleId.PR7 in rules_of(check_transition(before, after, ROAD2))
        widen = scene({"c1": ["l1", "l2"]})
        assert check_transition(before, widen, ROAD2) == []

    def test_pr7_licensed_road_change(self):
        before = scene({"c1": ["l1"]}, prel={("c1", "pc"): C})
        after = scene({"c1": ["l2"]}, prel={("c1", "pc"): A})
        assert check_transition(before, after, CONNECTION) == []

    def test_pr7_unlicensed_road_change(self):
        before = scene({"c1": ["l1"]}, prel={("c1", "pc"): B})
        after = scene({"c1": ["l2"]}, prel={("c1", "pc"): A})
        vs = check_transition(before, after, CONNECTION)
        assert RuleId.PR7 in rules_of(vs)

    def test_pr9_point_relations_never_regress(self):
        before = scene({"c1": ["l1"]}, prel={("c1", "px"): A})
        after = scene({"c1": ["l1"]}, prel={("c1", "px"): C})
        assert RuleId.PR9 in rules_of(check_transition(before, after, CROSSING))

    def test_pr9_no_skipping_cover(self):
        before = scene({"c1": ["l1"]}, prel={("c1", "px"): B})
        after = scene({"c1": ["l1"]}, prel={("c1", "px"): A})
        assert RuleId.PR9 in rules_of(check_transition(before, after, CROSSING))

    def test_pr12_covered_connection_stays_or_crosses(self):
        before = scene({"c1": ["l1"]}, prel={("c1", "pc"): C})
        drift = scene({"c1": ["l1"]}, prel={("c1", "pc"): A})
        vs = check_transition(before, drift, CONNECTION)
        assert RuleId.PR12 in rules_of(vs)
        stays = scene({"c1": ["l1"]}, prel={("c1", "pc"): C})
        # identical scenes would stutter; flip nothing else, so compare
        # against the crossing variant instead
        crosses = scene({"c1": ["l2"]}, prel={("c1", "pc"): A})
        assert check_transition(before, crosses, CONNECTION) == []
        assert RuleId.PR12 not in rules_of(check_transition(before, stays, CONNECTION))

    def test_pr14_cont_window_walk_is_monotone(self):
        prel = engaged_ra("c1", engaged_rb("c3", {}))
        before = scene(
            {"c1": ["l1"], "c3": ["l3"]},
            prel=prel,
            orel={("c1", "c3"): B, ("c3", "c1"): B},
        )
        jumped = scene(
            {"c1": ["l1"], "c3": ["l3"]},
            prel=prel,
            orel={("c1", "c3"): A, ("c3", "c1"): A},
        )
        assert RuleId.PR14_CONT in rules_of(check_transition(before, jumped, OVERLAP))
        met = scene(
            {"c1": ["l1"], "c3": ["l3"]},
            prel=prel,
            orel={("c1", "c3"): C, ("c3", "c1"): C},
        )
        assert check_transition(before, met, OVERLAP) == []
        # a missing window relation is PR13's fault in its own scene, not PR14_CONT's
        lost = scene({"c1": ["l1"], "c3": ["l3"]}, prel=prel)
        assert check_transition(before, lost, OVERLAP) == []

    def test_pr14_cont_same_way_on_two_roads_passes_through_cover(self):
        prel = engaged_ra("c1", engaged_ra("c2", {}))

        def window(rel: LonRel) -> Scene:
            return scene(
                {"c1": ["l1"], "c2": ["l2"]}, prel=prel,
                orel={("c1", "c2"): rel, ("c2", "c1"): invert(rel)},
            )

        ahead, cover, behind = window(A), window(C), window(B)
        for s in (ahead, cover, behind):
            assert check_scene(s, SAME_WAY) == []
        assert rules_of(check_transition(ahead, behind, SAME_WAY)) == {RuleId.PR14_CONT}
        assert rules_of(check_transition(behind, ahead, SAME_WAY)) == {RuleId.PR14_CONT}
        assert check_transition(ahead, cover, SAME_WAY) == []
        assert check_transition(cover, behind, SAME_WAY) == []

    def test_stutter_flagged(self):
        s = scene({"c1": ["l1"]})
        vs = check_transition(s, scene({"c1": ["l1"]}), ROAD2)
        assert any(v.rule is RuleId.WF and "stutter" in v.witnesses for v in vs)


_REL = st.sampled_from((A, C, B, None))  # None: the atom is absent (NONE)
_MOSTLY = st.integers(0, 3).map(bool)  # True three times in four


@st.composite
def scene_pairs(draw, net):
    """Two scenes on ``net``, arbitrary or malformed.

    The second scene keeps each of the first's entries three times in
    four (window relations: one in two), so most pairs differ in a few
    slots; it may also be the first scene again (a stutter).  Vehicles are
    mostly put inside every window their road carries.  NONE relations,
    occupancies on two roads, road hops and same-way window pairs on two
    roads (``SAME_WAY``) all occur.
    """
    vehicles = ("c1", "c2", "c3")[: draw(st.integers(2, 3))]
    lanes, points = net.lanes, sorted(net.points)
    pairs = [(x, y) for x in vehicles for y in vehicles if x != y]

    def draw_scene(base: Optional[Scene]) -> Scene:
        keep = base is not None
        base = base or Scene({}, {}, {}, {})

        def pick(old, strategy, kept=_MOSTLY):
            return old if keep and draw(kept) else draw(strategy)

        def rels(keys, old: dict, kept=_MOSTLY) -> dict:
            drawn = {k: pick(old.get(k), _REL, kept) for k in keys}
            return {k: v for k, v in drawn.items() if v is not None}

        lane = st.sampled_from(lanes)
        lane_sets = st.one_of(lane.map(lambda l: frozenset((l,))), st.frozensets(lane, max_size=2))
        occ = {c: pick(base.occ_of(c), lane_sets) for c in vehicles}
        vrel = rels(pairs, base.vrel)
        prel = rels([(c, p) for c in vehicles for p in points], base.prel)
        for c in vehicles:
            if draw(_MOSTLY):
                for z in net.zones:
                    ee = z.entry_exit_for(net.road_of(occ[c]))
                    if ee is not None:
                        prel[c, ee[0]], prel[c, ee[1]] = A, B
        return Scene(occ, vrel, prel, rels(pairs, base.orel, st.booleans()))

    prev = draw_scene(None)
    return prev, prev if not draw(_MOSTLY) and draw(st.booleans()) else draw_scene(prev)


class TestScopedTransition:
    """`check_transition`, composed of per-scope judgments, against the whole-scene reference."""

    @pytest.mark.parametrize(
        "net", [ROAD2, CROSSING, CONNECTION, OVERLAP, SAME_WAY],
        ids=["road2", "crossing", "connection", "overlap", "same-way"],
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, net, data):
        prev, next_ = data.draw(scene_pairs(net))
        assert check_transition(prev, next_, net, 3) == reference_transition(prev, next_, net, 3)

    @pytest.mark.parametrize("net", [OVERLAP, SAME_WAY], ids=["overlap", "same-way"])
    def test_window_pairs_match_reference(self, net):
        """Two vehicles inside the window at both steps: every lane each, road hops, every window value."""
        z = net.zones[0]

        def inside(lanes: tuple[str, str]) -> dict:
            prel = {}
            for c, l in zip(("c1", "c2"), lanes):
                first, second = z.entry_exit_for(net.road_of_lane(l))
                prel[c, first], prel[c, second] = A, B
            return prel

        found = set()
        for before, after in product(product(net.lanes, repeat=2), repeat=2):
            for u, v in product((A, C, B, None), repeat=2):
                prev, next_ = (
                    Scene(
                        {"c1": frozenset({ls[0]}), "c2": frozenset({ls[1]})},
                        {},
                        inside(ls),
                        {} if rel is None else {("c1", "c2"): rel},
                    )
                    for ls, rel in ((before, u), (after, v))
                )
                got = check_transition(prev, next_, net)
                assert got == reference_transition(prev, next_, net)
                found.update(x.rule for x in got)
        assert RuleId.PR14_CONT in found


EX5 = _net((pathlib.Path(__file__).parent / "data" / "ex5_opposing_pass.net").read_text())
_VEHICLES = ("c1", "c2", "c3", "c4")


@st.composite
def odd_scenes(draw, net):
    """A scene on ``net`` with 2 to 4 vehicles, valid or malformed in the ways `check_scene` reads.

    Occupancies hold one lane, two (perhaps on two roads), three or none,
    and perhaps a lane the network lacks.  ``lonr`` is mostly mirrored but
    may be asymmetric, and self and unknown-vehicle relations occur.  Each
    ``lonpr`` of a vehicle to a point of the network is drawn, plus stray
    ones to an unknown point or from an unknown vehicle; vehicles are mostly
    put inside every window their road carries.  Window relations are
    mirrored by the window, one-sided, drawn both ways or to an unknown
    vehicle.
    """
    vehicles = _VEHICLES[: draw(st.integers(2, 4))]
    lane = st.sampled_from((*net.lanes, "lx"))
    occ = {
        c: draw(st.one_of(lane.map(lambda l: frozenset((l,))), st.frozensets(lane, max_size=3)))
        for c in vehicles
    }
    vrel: dict = {}
    for x, y in combinations(vehicles, 2):
        v = draw(_REL)
        if v is not None:
            vrel[x, y] = v
        back = draw(st.sampled_from(("mirror", "mirror", "mirror", "drawn")))
        w = invert(v) if v is not None and back == "mirror" else draw(_REL)
        if w is not None:
            vrel[y, x] = w
    odd = st.sampled_from(_VEHICLES[:2] + ("cz",))
    for _ in range(draw(st.integers(0, 1))):
        x = draw(odd)
        vrel[x, draw(odd) if draw(st.booleans()) else x] = draw(st.sampled_from((A, C, B)))
    prel = {}
    for c in vehicles:
        for p in sorted(net.points):
            v = draw(_REL)
            if v is not None:
                prel[c, p] = v
        if draw(_MOSTLY):
            for z in net.zones:
                ee = z.entry_exit_for(net.road_of(occ[c]))
                if ee is not None:
                    prel[c, ee[0]], prel[c, ee[1]] = A, B
    if draw(st.booleans()):
        prel[draw(odd), draw(st.sampled_from((*sorted(net.points), "pz")))] = draw(st.sampled_from((A, C, B)))
    orel: dict = {}
    for x, y in combinations(vehicles, 2):
        v = draw(_REL)
        if v is None:
            continue
        orel[x, y] = v
        back = draw(st.sampled_from(("mirror", "none", "drawn")))
        rx, ry = net.road_of(occ[x]), net.road_of(occ[y])
        zs = [z for z in net.zones if rx in z.orientation and ry in z.orientation]
        w = zs[0].mirror(rx, ry, v) if back == "mirror" and zs else None if back == "none" else draw(_REL)
        if w is not None:
            orel[y, x] = w
    if draw(st.integers(0, 3)) == 0:
        orel[draw(odd), draw(odd)] = draw(st.sampled_from((A, C, B)))
    return Scene(occ, vrel, prel, orel)


class TestSceneDifferential:
    """`check_scene` against the reference checker with its own PR2/PR3 conditions and road derivation."""

    @pytest.mark.parametrize(
        "net", [ROAD2, CROSSING, CONNECTION, OVERLAP, EX5], ids=["road2", "crossing", "connection", "overlap", "ex5"]
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, net, data):
        s = data.draw(odd_scenes(net))
        assert check_scene(s, net, 2) == reference_check_scene(s, net, 2)


class TestScenarioChecking:
    def _overtake(self) -> Scenario:
        steps = [
            scene({"c1": ["l2"], "c2": ["l2"]}, vrel={("c1", "c2"): B}),
            scene({"c1": ["l1", "l2"], "c2": ["l2"]}, vrel={("c1", "c2"): B}),
            scene({"c1": ["l1"], "c2": ["l2"]}, vrel={("c1", "c2"): C}),
            scene({"c1": ["l1"], "c2": ["l2"]}, vrel={("c1", "c2"): A}),
        ]
        return Scenario(frozenset({"c1", "c2"}), ROAD2, tuple(steps))

    def test_valid_scenario_is_clean(self):
        assert check_scenario(self._overtake()) == []

    def test_every_tail_of_a_valid_scenario_is_valid(self):
        sc = self._overtake()
        for i in range(sc.horizon):
            assert check_scenario(Scenario(sc.vehicles, sc.network, sc.scenes[i:])) == []

    def test_universe_mismatch_flagged(self):
        sc = Scenario(
            frozenset({"c1", "c2"}),
            ROAD2,
            (scene({"c1": ["l1"]}),),
        )
        vs = check_scenario(sc)
        assert any(v.rule is RuleId.WF and "universe" in v.witnesses for v in vs)

    def test_violation_rendering_is_sorted_and_stable(self):
        before = scene({"c1": ["l1"], "c2": ["l1"]}, vrel={("c1", "c2"): B})
        after = scene({"c1": ["l2"], "c2": ["l1"]}, vrel={("c1", "c2"): A})
        sc = Scenario(frozenset({"c1", "c2"}), ROAD2, (before, after))
        report = render_report(check_scenario(sc))
        assert report.splitlines() == sorted(report.splitlines())
        assert "PR4 @step 1->2 [c1, c2]" in report
        assert "PR7 @step 1->2 [c1]" in report



class TestSharedVerdicts:
    def test_shared_verdicts_give_the_stepwise_report(self, dense_result):
        shared: dict = {}
        broken = set()
        for i, sc in enumerate(dense_result.parse(), start=1):
            expected = stepwise_violations(sc)
            assert check_scenario(sc, shared) == expected
            assert check_scenario(sc) == expected
            if expected:
                broken.add(i)
        assert broken == dense_result.broken

    def test_repeated_bad_scene_reported_at_each_step(self, dense_result):
        sc = dense_result.parse()[dense_result.repeated - 1]
        assert sc.scenes[0] is sc.scenes[2]
        vs = check_scenario(sc, {})
        assert {v.step for v in vs if v.rule is RuleId.PR1} == {1, 3}
        assert vs == stepwise_violations(sc)

    def test_whole_file_parses_like_its_sections(self, dense_result):
        net, declared = facts.parse_network(dense_result.network.read_text())
        text = dense_result.path.read_text()
        apart = [
            sc
            for section in text.split("#scenario ")[1:]
            for sc in facts.parse_scenarios("#scenario " + section, net, declared)
        ]
        whole = facts.parse_scenarios(text, net, declared)
        assert [(sc.vehicles, sc.scenes) for sc in whole] == [
            (sc.vehicles, sc.scenes) for sc in apart
        ]

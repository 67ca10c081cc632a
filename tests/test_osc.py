"""OSC emission: golden documents, structural invariants, coordinate sidecars."""

from __future__ import annotations

import pathlib
import re

import pytest

from trafficlogic import facts, osc
from trafficlogic.domain import LonRel, Scenario, Scene
from trafficlogic.reasoner import expand, parse_request

DATA = pathlib.Path(__file__).parent / "data"

FIXTURES = [
    ("ex1_overtake.req", "ex1_overtake.net", "golden_ex1_first.osc"),
    ("ex2_crossing.req", "ex2_crossing.net", "golden_ex2_first.osc"),
    ("ex5_opposing_pass.req", "ex5_opposing_pass.net", "golden_ex5_first.osc"),
]


def first_scenario(req_name: str):
    req = parse_request((DATA / req_name).read_text())
    return expand(req).scenarios[0], req.network


class TestGoldenDocuments:
    @pytest.mark.parametrize("req_name,net_name,golden", FIXTURES)
    def test_first_scenario_matches_frozen_document(self, req_name, net_name, golden):
        sc, _ = first_scenario(req_name)
        net, _ = facts.parse_network((DATA / net_name).read_text())
        text = osc.emit_osc(sc, net)
        assert text == (DATA / golden).read_text()

    def test_emission_is_deterministic(self):
        sc, net = first_scenario("ex5_opposing_pass.req")
        assert osc.emit_osc(sc, net) == osc.emit_osc(sc, net)


class TestDocumentStructure:
    def test_blocks_follow_scene_order(self):
        sc, net = first_scenario("ex1_overtake.req")
        text = osc.emit_osc(sc, net)
        labels = re.findall(r"^\s*(step_\d+): parallel:$", text, re.M)
        assert labels == [f"step_{k}" for k in range(1, sc.horizon + 1)]
        assert text.startswith("scenario traffic_scenario:\n")
        assert text.endswith("\n")
        assert "\t" not in text

    def test_every_network_point_declared_exactly_once(self):
        sc, net = first_scenario("ex5_opposing_pass.req")
        text = osc.emit_osc(sc, net)
        for pid in net.points:
            decls = re.findall(rf"^\s*{pid}: position_3d", text, re.M)
            assert len(decls) == 1

    def test_one_modifier_per_nonnull_relation_atom(self):
        sc, net = first_scenario("ex2_crossing.req")
        text = osc.emit_osc(sc, net)
        body = text.split("do serial:", 1)[1]
        step_chunks = re.split(r"^\s*step_\d+: parallel:\n", body, flags=re.M)[1:]
        assert len(step_chunks) == sc.horizon
        for scene, chunk in zip(sc.scenes, step_chunks):
            want = len(scene.vrel) + len(scene.prel)
            assert chunk.count("position(") == want

    def test_vehicle_relations_emitted_from_both_sides(self):
        sc, net = first_scenario("ex1_overtake.req")
        text = osc.emit_osc(sc, net)
        final = text.split("step_4", 1)[1]
        assert "position(ahead_of: c2)" in final
        assert "position(behind: c1)" in final

    def test_phrases_cover_all_relations(self):
        assert osc._PHRASE[LonRel.AHEAD] == "ahead_of"
        assert osc._PHRASE[LonRel.BEHIND] == "behind"
        assert osc._PHRASE[LonRel.COVER] == "same_as"
        assert LonRel.NONE not in osc._PHRASE

    def test_coordinates_inlined_when_available(self):
        sc, net = first_scenario("ex5_opposing_pass.req")
        coords = {"pos": (30.0, -2.0, 0.0)}
        text = osc.emit_osc(sc, net, coords)
        assert "pos: position_3d = position_3d(x: 30.000000, y: -2.000000, z: 0.000000)" in text
        # point without coordinates falls back to a bare declaration
        assert re.search(r"^\s*poe: position_3d$", text, re.M)

    def test_networks_without_points_skip_the_anchor_section(self):
        sc, net = first_scenario("ex1_overtake.req")
        text = osc.emit_osc(sc, net)
        assert "anchor points" not in text
        assert "position_3d" not in text


class TestEmissionErrors:
    def test_invalid_scenario_is_rejected(self):
        net, _ = facts.parse_network("lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).")
        jump = Scenario(
            frozenset({"c1"}),
            net,
            (
                Scene.build({"c1": ["l1"]}, {}, {}, {}),
                Scene.build({"c1": ["l2"]}, {}, {}, {}),
            ),
        )
        with pytest.raises(ValueError, match="scenario is invalid"):
            osc.emit_osc(jump, net)
        with pytest.raises(ValueError, match="PR7"):
            osc.emit_osc(jump, net)


class TestCoordSidecar:
    def test_parses_points_and_comments(self):
        text = "# produced by ingest\npos1 30.0 -2.0 0.0\n\npoe1 70 -2 0 # window end\n"
        got = osc.parse_coords(text)
        assert got == {"pos1": (30.0, -2.0, 0.0), "poe1": (70.0, -2.0, 0.0)}

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="line 1"):
            osc.parse_coords("pos1 30.0 -2.0\n")

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="line 2"):
            osc.parse_coords("pos1 1 2 3\npoe1 x 2 3\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite(self, value):
        with pytest.raises(facts.ParseError, match="coords line 2: non-finite coordinate"):
            osc.parse_coords(f"pos1 1 2 3\npoe1 1 {value} 3\n")

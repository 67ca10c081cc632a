"""Unit tests for the core value types."""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import trafficlogic
from trafficlogic.domain import (
    LonRel,
    OverlapZone,
    PointKind,
    Road,
    RoadNetwork,
    Scenario,
    Scene,
    SRange,
    invert,
    lon_rel_of_ranges,
    validate_network,
)

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE


def _srange(lo: float, hi: float) -> SRange:
    return SRange(min(lo, hi), max(lo, hi))


ranges = st.tuples(
    st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
).map(lambda t: _srange(*t))


class TestLonRel:
    def test_values_are_fact_keywords(self):
        assert {r.value for r in LonRel} == {"ahead", "cover", "behind", "none"}

    def test_invert_pairs(self):
        assert invert(A) is B
        assert invert(B) is A
        assert invert(C) is C
        assert invert(N) is N

    @given(st.sampled_from(list(LonRel)))
    def test_invert_is_an_involution(self, rel):
        assert invert(invert(rel)) is rel


class TestSRange:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SRange(2.0, 1.0)

    def test_strictly_separated_ranges(self):
        assert lon_rel_of_ranges(SRange(5, 7), SRange(1, 3)) is A
        assert lon_rel_of_ranges(SRange(1, 3), SRange(5, 7)) is B

    def test_boundary_contact_counts_as_cover(self):
        assert lon_rel_of_ranges(SRange(3, 5), SRange(1, 3)) is C
        assert lon_rel_of_ranges(SRange(1, 3), SRange(3, 5)) is C

    def test_containment_is_cover(self):
        assert lon_rel_of_ranges(SRange(2, 3), SRange(0, 10)) is C

    @given(ranges, ranges)
    def test_antisymmetric(self, a, b):
        assert lon_rel_of_ranges(a, b) is invert(lon_rel_of_ranges(b, a))

    @given(ranges, ranges)
    def test_total_and_never_none(self, a, b):
        assert lon_rel_of_ranges(a, b) in (A, C, B)


class TestRoad:
    def test_duplicate_lanes_rejected(self):
        with pytest.raises(ValueError):
            Road("r1", ("l1", "l1"))

    def test_empty_road_rejected(self):
        with pytest.raises(ValueError):
            Road("r1", ())


class TestOverlapZone:
    def test_entry_exit_follows_orientation(self):
        z = OverlapZone("ps", "pe", {"ra": 1, "rb": -1})
        assert z.entry_exit_for("ra") == ("ps", "pe")
        assert z.entry_exit_for("rb") == ("pe", "ps")
        assert z.entry_exit_for("rz") is None

    def test_holds_inside_between_entry_and_exit(self):
        z = OverlapZone("ps", "pe", {"ra": 1, "rb": -1})
        assert z.holds_inside("ra", "c1", {("c1", "ps"): A, ("c1", "pe"): B})
        assert z.holds_inside("rb", "c1", {("c1", "pe"): A, ("c1", "ps"): B})
        assert not z.holds_inside("ra", "c1", {("c1", "ps"): C, ("c1", "pe"): B})
        assert not z.holds_inside("ra", "c2", {("c1", "ps"): A, ("c1", "pe"): B})

    def test_holds_inside_is_false_off_the_zone(self):
        z = OverlapZone("ps", "pe", {"ra": 1, "rb": -1})
        prel = {("c1", "ps"): A, ("c1", "pe"): B}
        assert not z.holds_inside("rz", "c1", prel)
        assert not z.holds_inside(None, "c1", prel)

    def test_frame_reads_along_start_to_end(self):
        z = OverlapZone("ps", "pe", {"ra": 1, "rb": -1})
        assert [z.frame("ra", v) for v in (A, C, B)] == [A, C, B]
        assert [z.frame("rb", v) for v in (A, C, B)] == [B, C, A]

    @pytest.mark.parametrize(
        "road_x,road_y,expected",
        [("ra", "ra", B), ("ra", "rc", B), ("ra", "rb", A), ("rb", "ra", A), ("rb", "rb", B)],
        ids=["same-road", "same-direction", "opposed", "opposed-reversed", "same-road-reversed"],
    )
    def test_mirror(self, road_x, road_y, expected):
        z = OverlapZone("ps", "pe", {"ra": 1, "rb": -1, "rc": 1})
        assert z.mirror(road_x, road_y, A) is expected
        for v in (A, C, B):
            # the mirror, read along the window, is the inverse of the relation read along it
            assert z.frame(road_y, z.mirror(road_x, road_y, v)) is invert(z.frame(road_x, v))

    def test_carrying_lanes_from_the_network(self):
        n = RoadNetwork(
            roads=[Road("ra", ("l1", "l2")), Road("rb", ("l3",)), Road("rc", ("l4",))],
            points={"ps": PointKind.OVERLAP_START, "pe": PointKind.OVERLAP_END},
            succ_p=[("l2", "ps", "pe"), ("l3", "pe", "ps"), ("l4", "ps", "pe")],
            overlaps=[("ps", "pe")],
            affiliation=[
                ("ps", "l1"), ("ps", "l2"), ("pe", "l2"), ("ps", "l3"), ("pe", "l3"),
                ("ps", "l4"), ("pe", "l4"),
            ],
        )
        (z,) = n.zones
        assert z.carrying == {"l2", "l3", "l4"}  # l1 holds the start point only
        assert dict(z.orientation) == {"ra": 1, "rb": -1, "rc": 1}
        assert z.mirror("ra", "rc", A) is B and z.mirror("ra", "rb", A) is A


def _tee_network() -> RoadNetwork:
    return RoadNetwork(
        roads=[Road("ra", ("l1", "l2")), Road("rb", ("l3",)), Road("rc", ("l4",))],
        points={"px": PointKind.INTERSECTION, "pc": PointKind.CONNECTION},
        succ_p=[("l3", "px", "pc")],
        succ_c=[("pc", "l4")],
        affiliation=[("px", "l1"), ("px", "l3"), ("pc", "l3"), ("pc", "l4")],
    )


class TestRoadNetwork:
    def test_lane_and_road_lookups(self):
        n = _tee_network()
        assert n.lanes == ("l1", "l2", "l3", "l4")
        assert n.road_of_lane("l2") == "ra"
        assert n.road_of_lane("nope") is None
        assert n.road("rb").lanes == ("l3",)
        assert n.lane_index("l1") == 0 and n.lane_index("l2") == 1

    def test_road_of_lanes(self):
        n = _tee_network()
        assert n.road_of(["l1", "l2"]) == "ra"
        assert n.road_of(frozenset({"l3"})) == "rb"
        assert n.road_of(["l1", "nope"]) == "ra"  # unknown lanes are ignored
        assert n.road_of(["nope"]) is None
        assert n.road_of(["l1", "l3"]) is None  # two roads
        assert n.road_of([]) is None

    def test_adjacency_is_same_road_neighbours(self):
        n = _tee_network()
        assert n.adjacent_lanes("l1") == ("l2",)
        assert n.adjacent_lanes("l2") == ("l1",)
        assert n.adjacent_lanes("l3") == ()

    def test_adjacency_of_an_unknown_lane_is_empty(self):
        assert _tee_network().adjacent_lanes("nope") == ()

    def test_point_incidence(self):
        n = _tee_network()
        assert n.points_of_lane("l3") == {"px", "pc"}
        assert n.points_of_road("ra") == {"px"}
        assert n.lanes_of_point("px") == {"l1", "l3"}
        assert n.successor_lanes("pc") == ("l4",)
        assert n.connections_on("l3") == ("pc",)
        assert n.connections_on("l1") == ()

    def test_point_order_is_transitively_closed(self):
        n = _tee_network()
        assert n.precedes("l3", "px", "pc")
        assert not n.precedes("l3", "pc", "px")
        assert n.lane_order_pairs("l3") == {("px", "pc")}
        assert n.lane_order_pairs("l1") == frozenset()
        chained = RoadNetwork(
            roads=[Road("ra", ("l1",))],
            points={p: PointKind.CONNECTION for p in ("p1", "p2", "p3")},
            succ_p=[("l1", "p1", "p2"), ("l1", "p2", "p3")],
            affiliation=[("p1", "l1"), ("p2", "l1"), ("p3", "l1")],
        )
        assert ("p1", "p3") in chained.lane_order_pairs("l1")
        assert chained.precedes("l1", "p1", "p3")

    def test_zone_orientation_from_point_order(self):
        n = RoadNetwork(
            roads=[Road("ra", ("l1",)), Road("rb", ("l2",))],
            points={"ps": PointKind.OVERLAP_START, "pe": PointKind.OVERLAP_END},
            succ_p=[("l1", "ps", "pe"), ("l2", "pe", "ps")],
            overlaps=[("ps", "pe")],
            affiliation=[("ps", "l1"), ("pe", "l1"), ("ps", "l2"), ("pe", "l2")],
        )
        (zone,) = n.zones
        assert zone.orientation == {"ra": 1, "rb": -1}

    def test_window_members_and_the_windows_holding_each_pair(self):
        # l1 carries p1s, p2s, p1e, p2e in order: (p1s, p1e) and (p2s, p2e) interleave
        n = RoadNetwork(
            roads=[Road("ra", ("l1",)), Road("rb", ("l2",))],
            points={"p1s": PointKind.OVERLAP_START, "p1e": PointKind.OVERLAP_END,
                    "p2s": PointKind.OVERLAP_START, "p2e": PointKind.OVERLAP_END},
            succ_p=[("l1", "p1s", "p2s"), ("l1", "p2s", "p1e"), ("l1", "p1e", "p2e")],
            overlaps=[("p1s", "p1e"), ("p2s", "p2e")],
            affiliation=[(p, "l1") for p in ("p1s", "p1e", "p2s", "p2e")],
        )
        first, second = n.zones
        rel = {"p1s": A, "p2s": A, "p1e": B, "p2e": B}  # between p2s and p1e: in both windows
        prel = {(c, p): v for c in ("c1", "c2") for p, v in rel.items()}
        prel.update({("c3", "p1e"): A, ("c3", "p2s"): A, ("c3", "p2e"): B})  # in the second only
        road_of = {"c1": "ra", "c2": "ra", "c3": "ra", "c4": None}
        inside, held = n.window_members(road_of, prel)
        assert inside == [(first, ["c1", "c2"]), (second, ["c1", "c2", "c3"])]
        assert held == {("c1", "c2"): [first, second], ("c1", "c3"): [second], ("c2", "c3"): [second]}
        assert RoadNetwork([Road("ra", ("l1",))]).window_members(road_of, prel) == ([], {})


class TestValidateNetwork:
    def test_well_formed_network_is_clean(self):
        assert validate_network(_tee_network()) == []

    def test_lane_on_two_roads(self):
        n = RoadNetwork(roads=[Road("ra", ("l1",)), Road("rb", ("l1",))])
        assert any("two roads" in d for d in validate_network(n))

    def test_bad_ids(self):
        n = RoadNetwork(
            roads=[Road("Ra", ("L1",))], points={"P1": PointKind.CONNECTION}, affiliation=[("P1", "L1")]
        )
        defects = validate_network(n)
        assert "bad road id: 'Ra'" in defects
        assert "bad lane id: 'L1'" in defects
        assert "bad point id: 'P1'" in defects

    def test_dangling_point_reference(self):
        n = RoadNetwork(roads=[Road("ra", ("l1",))], affiliation=[("ghost", "l1")])
        assert any("unknown point" in d for d in validate_network(n))

    def test_intersection_arity(self):
        n = RoadNetwork(
            roads=[Road("ra", ("l1",))],
            points={"px": PointKind.INTERSECTION},
            affiliation=[("px", "l1")],
        )
        assert any("exactly two lanes" in d for d in validate_network(n))

    def test_succl_source_must_be_connection(self):
        n = RoadNetwork(
            roads=[Road("ra", ("l1",)), Road("rb", ("l2",))],
            points={"px": PointKind.INTERSECTION},
            succ_c=[("px", "l2")],
            affiliation=[("px", "l1"), ("px", "l2")],
        )
        assert any("not a connection point" in d for d in validate_network(n))

    def test_point_order_must_be_total_per_lane(self):
        # two disjoint chains on one lane leave p1 vs p3 incomparable
        n = RoadNetwork(
            roads=[Road("ra", ("l1",))],
            points={p: PointKind.CONNECTION for p in ("p1", "p2", "p3", "p4")},
            succ_p=[("l1", "p1", "p2"), ("l1", "p3", "p4")],
            affiliation=[("p1", "l1"), ("p2", "l1"), ("p3", "l1"), ("p4", "l1")],
        )
        assert any("not total" in d for d in validate_network(n))

    def test_cyclic_point_order_rejected(self):
        n = RoadNetwork(
            roads=[Road("ra", ("l1",))],
            points={"p1": PointKind.CONNECTION, "p2": PointKind.CONNECTION},
            succ_p=[("l1", "p1", "p2"), ("l1", "p2", "p1")],
            affiliation=[("p1", "l1"), ("p2", "l1")],
        )
        assert any("not acyclic" in d for d in validate_network(n))


class TestScene:
    def test_build_drops_none_and_fills_mirrors(self):
        s = Scene.build(
            {"c1": ["l1"], "c2": ["l1"]},
            vrel={("c1", "c2"): B, ("c1", "c1"): N},
            prel={("c1", "p"): N},
        )
        assert s.vrel == {("c1", "c2"): B, ("c2", "c1"): A}
        assert s.prel == {}
        assert s.occ_of("c1") == frozenset({"l1"})

    def test_total_accessors_default_to_none(self):
        s = Scene.build({"c1": ["l1"]})
        assert s.vrel_of("c1", "zz") is N
        assert s.prel_of("c1", "zz") is N
        assert s.orel_of("c1", "zz") is N

    def test_equality_ignores_insertion_order(self):
        a = Scene.build({"c1": ["l1", "l2"], "c2": ["l1"]}, vrel={("c1", "c2"): C})
        b = Scene.build({"c2": ["l1"], "c1": ["l2", "l1"]}, vrel={("c2", "c1"): C})
        assert a == b
        assert hash(a) == hash(b)

    def test_explicit_mirror_is_preserved_not_overwritten(self):
        s = Scene.build({"c1": ["l1"], "c2": ["l1"]}, vrel={("c1", "c2"): A, ("c2", "c1"): A})
        # ill-formed on purpose; the rule checker must flag it, not the type
        assert s.vrel[("c2", "c1")] is A

    def test_unpickled_scene_hashes_like_a_local_one(self):
        # a scene pickled in one process and loaded in another, under another
        # string-hash seed, both ways: here to a child process and back
        local = Scene.build(
            {"c1": ["l1"], "c2": ["l1"]}, vrel={("c1", "c2"): B}, prel={("c1", "p"): C}, orel={("c1", "c2"): A}
        )
        code = (
            "import pickle, sys\n"
            "from trafficlogic.domain import LonRel as R, Scene\n"
            "twin = Scene.build({'c1': ['l1'], 'c2': ['l1']}, vrel={('c1', 'c2'): R.BEHIND},\n"
            "                   prel={('c1', 'p'): R.COVER}, orel={('c1', 'c2'): R.AHEAD})\n"
            "s = pickle.loads(sys.stdin.buffer.read())\n"
            "print(s == twin, hash(s) == hash(twin), {twin: 'found'}.get(s), pickle.dumps(twin).hex())\n"
        )
        src = str(pathlib.Path(trafficlogic.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(local), env=env, capture_output=True, check=True
        )
        *verdicts, sent = out.stdout.split()
        assert verdicts == [b"True", b"True", b"found"]
        remote = pickle.loads(bytes.fromhex(sent.decode()))
        assert remote == local
        assert hash(remote) == hash(local)
        assert len({remote, local}) == 1


class TestScenario:
    def test_requires_scenes(self):
        n = _tee_network()
        with pytest.raises(ValueError):
            Scenario(frozenset({"c1"}), n, ())

    def test_horizon_counts_scenes(self):
        n = _tee_network()
        s1 = Scene.build({"c1": ["l1"]})
        s2 = Scene.build({"c1": ["l1", "l2"]})
        sc = Scenario(frozenset({"c1"}), n, (s1, s2))
        assert sc.horizon == 2

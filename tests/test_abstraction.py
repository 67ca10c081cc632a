"""Map compilation and trace abstraction on the bundled fixture maps."""

from __future__ import annotations

import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from trafficlogic import facts
from trafficlogic.cli import main
from trafficlogic.abstraction import (
    AbstractionError,
    NetworkAbstraction,
    TraceError,
    abstract_network,
    abstract_trace,
    connection_structures,
    read_trace_csv,
)
from trafficlogic.config import Config
from trafficlogic.domain import LonRel, PointKind, validate_network
from trafficlogic.opendrive import parse_opendrive
from trafficlogic.rules import check_scenario

DATA = pathlib.Path(__file__).parent / "data"


def compile_map(name: str, cfg: Config | None = None) -> NetworkAbstraction:
    model = parse_opendrive((DATA / name).read_bytes())
    return NetworkAbstraction(model, cfg or Config())


CROSSING_XODR = """<?xml version="1.0"?>
<OpenDRIVE>
<header revMajor="1" revMinor="6"/>
<road id="1" length="100" junction="-1">
  <planView>
    <geometry s="0" x="-50" y="0" hdg="0" length="100"><line/></geometry>
  </planView>
  <lanes><laneSection s="0">
    <center><lane id="0" type="none" level="false"/></center>
    <right><lane id="-1" type="driving" level="false">
      <width sOffset="0" a="4.0" b="0" c="0" d="0"/></lane></right>
  </laneSection></lanes>
</road>
<road id="2" length="100" junction="-1">
  <planView>
    <geometry s="0" x="0" y="-50" hdg="1.5707963267948966" length="100"><line/></geometry>
  </planView>
  <lanes><laneSection s="0">
    <center><lane id="0" type="none" level="false"/></center>
    <right><lane id="-1" type="driving" level="false">
      <width sOffset="0" a="4.0" b="0" c="0" d="0"/></lane></right>
  </laneSection></lanes>
</road>
</OpenDRIVE>
"""


class TestNetworkCompilation:
    def test_tee_junction_statistics(self):
        abst = compile_map("tee_junction.xodr")
        n = abst.network
        assert len(n.lanes) == 12
        assert len(n.roads) == 12
        kinds = {}
        for p, k in n.points.items():
            kinds.setdefault(k, set()).add(p)
        assert len(kinds[PointKind.CONNECTION]) == 9
        assert len(kinds[PointKind.INTERSECTION]) == 3
        assert len(n.succ_c) == 12
        assert n.overlaps == frozenset()
        assert validate_network(n) == []

    def test_tee_intersections_pair_the_conflicting_connectors(self):
        n = compile_map("tee_junction.xodr").network
        crossing_pairs = {
            tuple(sorted(n.lanes_of_point(p)))
            for p, k in n.points.items()
            if k is PointKind.INTERSECTION
        }
        assert crossing_pairs == {("l10", "l8"), ("l11", "l8"), ("l10", "l11")}

    def test_tee_connection_structures(self):
        n = compile_map("tee_junction.xodr").network
        assert connection_structures(n) == ("r10", "r11", "r12", "r7", "r8", "r9")

    def test_metadata_traces_ids_back_to_the_map(self):
        abst = compile_map("tee_junction.xodr")
        assert abst.metadata["lane.l1"] == "1:-1"
        assert abst.metadata["road.r1"] == "1:right"
        assert abst.metadata["sampling_step"] == "0.5"

    def test_straight_road_compiles_to_two_plain_lanes(self):
        n = compile_map("ex1_straight.xodr").network
        assert len(n.lanes) == 2
        assert len(n.roads) == 1
        assert not n.points
        assert validate_network(n) == []

    def test_opposing_overlap_window(self):
        abst = compile_map("ex5_overlap.xodr")
        n = abst.network
        assert n.overlaps == frozenset({("pos1", "poe1")})
        assert n.points["pos1"] is PointKind.OVERLAP_START
        assert n.points["poe1"] is PointKind.OVERLAP_END
        assert n.lanes_of_point("pos1") == frozenset({"l1", "l3"})
        assert ("l1", "pos1", "poe1") in n.succ_p
        assert ("l3", "poe1", "pos1") in n.succ_p
        zone = n.zones[0]
        assert zone.orientation == {"r1": 1, "r2": -1}
        assert abst.point_s["pos1"] == pytest.approx({"l1": 30.0, "l3": 40.0})
        assert abst.point_s["poe1"] == pytest.approx({"l1": 70.0, "l3": 0.0})

    def test_coords_text_is_stable(self):
        abst = compile_map("ex5_overlap.xodr")
        assert abst.coords_text() == (
            "poe1 70.000000 -2.000000 0.000000\n"
            "pos1 30.000000 -2.000000 0.000000\n"
        )

    def test_unconnected_crossing_yields_one_intersection_point(self):
        model = parse_opendrive(CROSSING_XODR)
        n = abstract_network(model)
        xs = [p for p, k in n.points.items() if k is PointKind.INTERSECTION]
        assert len(xs) == 1
        assert len(n.lanes_of_point(xs[0])) == 2
        assert validate_network(n) == []

    def test_compilation_is_deterministic(self):
        a = compile_map("tee_junction.xodr")
        b = compile_map("tee_junction.xodr")
        assert a.facts_text() == b.facts_text()
        assert a.coords_text() == b.coords_text()

    def test_sampling_refinement_is_stable(self):
        coarse = compile_map("tee_junction.xodr")
        fine = compile_map("tee_junction.xodr", Config(sampling_step=0.25))
        ca = sorted(map(tuple, coarse.point_coords.values()))
        cb = sorted(map(tuple, fine.point_coords.values()))
        assert len(ca) == len(cb)
        for (ax, ay), (bx, by) in zip(ca, cb):
            assert abs(ax - bx) <= 0.05 and abs(ay - by) <= 0.05

    def test_facts_text_parses_back(self):
        abst = compile_map("tee_junction.xodr")
        net, _ = facts.parse_network(abst.facts_text())
        assert facts.render_network(net) == facts.render_network(abst.network)
        assert "% meta lane.l1=1:-1" in abst.facts_text().splitlines()


def _lane(lane_id: int, kind: str = "driving", successor: int | None = None) -> str:
    link = "" if successor is None else f'<link><successor id="{successor}"/></link>'
    return (
        f'<lane id="{lane_id}" type="{kind}" level="false">{link}'
        '<width sOffset="0" a="4.0" b="0" c="0" d="0"/></lane>'
    )


def _road(
    road_id: str, x: float, y: float, hdg: float, length: float, lanes: list[str], link: str = "", side: str = "right"
) -> str:
    """A straight road with ``lanes`` on one side."""
    return f"""
<road id="{road_id}" length="{length}" junction="-1">{link}
  <planView><geometry s="0" x="{x}" y="{y}" hdg="{hdg}" length="{length}"><line/></geometry></planView>
  <lanes><laneSection s="0">
    <center><lane id="0" type="none" level="false"/></center>
    <{side}>{"".join(lanes)}</{side}>
  </laneSection></lanes>
</road>"""


def _map(*roads: str) -> str:
    return '<?xml version="1.0"?>\n<OpenDRIVE>\n<header revMajor="1" revMinor="6"/>' + "".join(roads) + "\n</OpenDRIVE>\n"


_TO_ROAD_2 = '<link><successor elementType="road" elementId="2" contactPoint="start"/></link>'
#: map name -> (map text, the ``ingest`` error it exits 2 with)
MAP_FAULTS = {
    "junction-lane-not-at-contact-point": (
        _map(
            _road("1", 0, 0, 0, 100, [_lane(-1)]),
            _road("2", 0, 0, 0, 100, [_lane(1)], side="left"),
            '<junction id="10" name="j"><connection id="0" incomingRoad="1" connectingRoad="2" '
            'contactPoint="start"><laneLink from="-1" to="1"/></connection></junction>',
        ),
        "junction 10 connection 0: lane 1 of road 2 does not begin at contact point 'start'",
    ),
    "dangling-lane-link": (
        _map(
            _road("1", 0, 0, 0, 50, [_lane(-1, successor=-5), _lane(-2, "sidewalk")], _TO_ROAD_2),
            _road("2", 50, 0, 0, 50, [_lane(-1)]),
        ),
        "road 1 lane -1: dangling lane link to lane -5 of road 2",
    ),
    "same-direction-overlap": (
        _map(_road("1", 0, 0, 0, 100, [_lane(-1)]), _road("2", 20, 0, 0, 50, [_lane(-1)])),
        "lanes l1 and l2 overlap in the same direction; merging them into a single lane is not"
        " supported - edit the map",
    ),
    "opposed-overlap-that-crosses": (
        _map(_road("1", 0, 0, 0, 100, [_lane(-1)]), _road("2", 100, -4.5, math.pi - 0.01, 100, [_lane(-1)])),
        "tolerance-ambiguous geometry: lanes l1 and l2 both overlap and cross near s=50.01 on l1",
    ),
}


class TestMapFaults:
    @pytest.mark.parametrize("name", sorted(MAP_FAULTS))
    def test_ingest_rejects(self, name, tmp_path, capsys):
        text, message = MAP_FAULTS[name]
        path = tmp_path / f"{name}.xodr"
        path.write_text(text)
        assert main(["ingest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_link_from_or_to_a_lane_that_is_not_driving_makes_no_connection(self, tmp_path, capsys):
        lanes = {kind: _map(
            _road("1", 0, 0, 0, 50, [_lane(-1, successor=-2), _lane(-2, "sidewalk", successor=-1)], _TO_ROAD_2),
            _road("2", 50, 0, 0, 50, [_lane(-1), _lane(-2, kind)]),
        ) for kind in ("driving", "sidewalk")}
        out = {}
        for kind, text in lanes.items():
            (tmp_path / f"{kind}.xodr").write_text(text)
            assert main(["ingest", str(tmp_path / f"{kind}.xodr")]) == 0
            out[kind] = capsys.readouterr().out
        assert "succl(pc1,l3)." in out["driving"]
        assert "class(" not in out["sidewalk"]

    def test_opposed_overlap_shorter_than_the_minimum_is_no_window(self, tmp_path, capsys):
        out = {}
        for length in (0.8, 5.0):
            path = tmp_path / f"{length}.xodr"
            path.write_text(
                _map(_road("1", 0, 0, 0, 100, [_lane(-1)]), _road("2", 50.4, -4, math.pi, length, [_lane(-1)]))
            )
            assert main(["ingest", str(path)]) == 0
            out[length] = capsys.readouterr().out
        assert "overlap(" not in out[0.8]
        assert "overlap(pos1,poe1)." in out[5.0]


class TestTraceReading:
    def test_header_must_match(self):
        with pytest.raises(TraceError, match="header"):
            read_trace_csv("time,vehicle,x,y\n0,c1,0,0\n")

    def test_malformed_number(self):
        with pytest.raises(TraceError, match="row 3"):
            read_trace_csv(
                "t,vehicle,x,y,heading,length\n0,c1,0,0,0,4\n0.1,c1,zz,0,0,4\n"
            )

    def test_empty_trace(self):
        with pytest.raises(TraceError, match="no samples"):
            read_trace_csv("t,vehicle,x,y,heading,length\n")

    def test_duplicate_sample_rejected(self):
        samples = read_trace_csv(
            "t,vehicle,x,y,heading,length\n0,c1,0,0,0,4\n0,c1,1,0,0,4\n"
        )
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        net = abstract_network(model)
        with pytest.raises(TraceError, match="duplicate"):
            abstract_trace(samples, net, model)

    def test_incomplete_time_grid_rejected(self):
        samples = read_trace_csv(
            "t,vehicle,x,y,heading,length\n"
            "0,c1,10,-6,0,4\n0,c2,30,-6,0,4\n0.1,c1,11,-6,0,4\n"
        )
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        net = abstract_network(model)
        with pytest.raises(TraceError, match="no sample at"):
            abstract_trace(samples, net, model)

    def test_off_road_sample_reports_source_row(self):
        samples = read_trace_csv(
            "t,vehicle,x,y,heading,length\n0,c1,10,-50,0,4\n"
        )
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        net = abstract_network(model)
        with pytest.raises(TraceError, match="row 2.*off-road"):
            abstract_trace(samples, net, model)

    def test_map_without_driving_lanes_puts_every_sample_off_road(self):
        text = (DATA / "ex1_straight.xodr").read_text().replace('type="driving"', 'type="sidewalk"')
        model = parse_opendrive(text)
        samples = read_trace_csv("t,vehicle,x,y,heading,length\n0,c1,10,-6,0,4\n")
        with pytest.raises(TraceError, match="row 2: vehicle c1 is off-road at t=0.0"):
            abstract_trace(samples, None, model)

    @pytest.mark.parametrize("vehicle", ["C1", " ", "", "1c", "c-1"])
    def test_bad_vehicle_id_rejected(self, vehicle):
        with pytest.raises(TraceError, match="row 3: bad vehicle id"):
            read_trace_csv(
                f"t,vehicle,x,y,heading,length\n0,c1,10,-6,0,4\n0,{vehicle},30,-6,0,4\n"
            )

    @pytest.mark.parametrize(
        "row", ["nan,c1,10,-6,0,4", "0,c1,inf,-6,0,4", "0,c1,10,-6,-inf,4", "0,c1,10,-6,0,nan"]
    )
    def test_non_finite_number_rejected(self, row):
        with pytest.raises(TraceError, match="row 2: non-finite"):
            read_trace_csv(f"t,vehicle,x,y,heading,length\n{row}\n")

    @pytest.mark.parametrize("row", ["0,c1,10,-6,0,4,99,junk", "0,c1,10,-6,0,4,"])
    def test_fields_beyond_the_header_rejected(self, row):
        with pytest.raises(TraceError, match="row 2: more fields than the header"):
            read_trace_csv(f"t,vehicle,x,y,heading,length\n{row}\n")

    def test_negative_length_rejected(self):
        with pytest.raises(TraceError, match="row 3: negative vehicle length"):
            read_trace_csv("t,vehicle,x,y,heading,length\n0,c1,10,-6,0,4\n0,c2,30,-6,0,-4\n")

    def test_zero_length_accepted(self):
        (sample,) = read_trace_csv("t,vehicle,x,y,heading,length\n0,c1,10,-6,0,0\n")
        assert sample.length == 0.0

    def test_mismatched_network_rejected(self):
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        other, _ = facts.parse_network("lane(l9, rz).")
        samples = read_trace_csv("t,vehicle,x,y,heading,length\n0,c1,10,-6,0,4\n")
        with pytest.raises(AbstractionError, match="do not match"):
            abstract_trace(samples, other, model)


class TestTraceAbstraction:
    def test_static_vehicle_collapses_to_one_scene(self):
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        net = abstract_network(model)
        rows = ["t,vehicle,x,y,heading,length"]
        rows += [f"{t/10:.1f},c1,40.0,-6.0,0.0,4.5" for t in range(20)]
        sc = abstract_trace(read_trace_csv("\n".join(rows) + "\n"), net, model)
        assert sc.horizon == 1
        assert sc.scenes[0].occ_of("c1") == frozenset({"l2"})

    def test_overtake_trace_walks_behind_cover_ahead(self):
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        net = abstract_network(model)
        sc = abstract_trace(
            read_trace_csv((DATA / "ex1_overtake_trace.csv").read_text()), net, model
        )
        assert check_scenario(sc) == []
        assert sc.horizon == 7
        rels = [s.vrel_of("c1", "c2") for s in sc.scenes]
        assert rels == [
            LonRel.BEHIND, LonRel.BEHIND, LonRel.BEHIND, LonRel.COVER,
            LonRel.AHEAD, LonRel.AHEAD, LonRel.AHEAD,
        ]
        occs = [sorted(s.occ_of("c1")) for s in sc.scenes]
        assert occs == [
            ["l2"], ["l1", "l2"], ["l1"], ["l1"], ["l1"], ["l1", "l2"], ["l2"],
        ]
        assert all(s.occ_of("c2") == frozenset({"l2"}) for s in sc.scenes)

    def test_opposing_squeeze_trace(self):
        model = parse_opendrive((DATA / "ex5_overlap.xodr").read_bytes())
        net = abstract_network(model)
        sc = abstract_trace(
            read_trace_csv((DATA / "ex5_squeeze_trace.csv").read_text()), net, model
        )
        assert check_scenario(sc) == []
        assert sc.horizon == 13
        # the passer meets the oncoming vehicle inside the shared window
        o13 = [s.orel_of("c1", "c3") for s in sc.scenes]
        assert o13[5] is LonRel.BEHIND
        assert o13[9] is LonRel.COVER
        assert o13[10] is LonRel.NONE  # window left behind
        o23 = [s.orel_of("c2", "c3") for s in sc.scenes]
        assert o23[0] is LonRel.NONE
        assert o23[3] is LonRel.BEHIND
        assert o23[12] is LonRel.COVER
        # point walk of the passer across the window boundaries
        prel = [(s.prel_of("c1", "pos1"), s.prel_of("c1", "poe1")) for s in sc.scenes]
        assert prel[0] == (LonRel.BEHIND, LonRel.BEHIND)
        assert prel[4] == (LonRel.COVER, LonRel.BEHIND)
        assert prel[10] == (LonRel.AHEAD, LonRel.COVER)
        assert prel[12] == (LonRel.AHEAD, LonRel.AHEAD)

    @pytest.mark.parametrize(
        "trace,xodr",
        [
            ("ex1_overtake_trace.csv", "ex1_straight.xodr"),
            ("ex5_squeeze_trace.csv", "ex5_overlap.xodr"),
        ],
    )
    def test_no_network_means_the_compiled_one(self, trace, xodr):
        model = parse_opendrive((DATA / xodr).read_bytes())
        samples = read_trace_csv((DATA / trace).read_text())
        own = abstract_trace(samples, None, model)
        given = abstract_trace(samples, abstract_network(model), model)
        assert facts.render_scenario(own) == facts.render_scenario(given)
        assert facts.render_network(own.network) == facts.render_network(given.network)

    def test_long_trace_projects_in_bounded_memory(self):
        """2,000 samples on 200-segment lanes: projections are made in blocks, not all at once."""
        rows = [f"{i * 0.05:.2f},c1,{1 + i * 0.045:.3f},-2.0,0.0,4.5" for i in range(2000)]
        samples = read_trace_csv("t,vehicle,x,y,heading,length\n" + "\n".join(rows) + "\n")
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        tracemalloc.start()
        try:
            abstract_trace(samples, None, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block is at most 2**16 pairs; all 2,000 x 200 pairs at once peaked near 27 MB
        assert peak < 8e6

    def test_trace_abstraction_is_deterministic(self):
        model = parse_opendrive((DATA / "ex1_straight.xodr").read_bytes())
        net = abstract_network(model)
        text = (DATA / "ex1_overtake_trace.csv").read_text()
        a = abstract_trace(read_trace_csv(text), net, model)
        b = abstract_trace(read_trace_csv(text), net, model)
        assert facts.render_scenario(a) == facts.render_scenario(b)

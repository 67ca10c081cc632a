"""Map-format parsing: document mirroring, subset policing, sampling."""

from __future__ import annotations

import math
import pathlib

import numpy as np
import pytest

from trafficlogic.cli import main
from trafficlogic.opendrive import (
    MapParseError,
    RefLineSegment,
    UnsupportedFeatureError,
    parse_opendrive,
    sample_centerline,
)

DATA = pathlib.Path(__file__).parent / "data"


def doc(body: str) -> str:
    return (
        '<?xml version="1.0"?>\n<OpenDRIVE>\n'
        "<header revMajor=\"1\" revMinor=\"6\"/>\n" + body + "\n</OpenDRIVE>\n"
    )


def straight_road(road_id: str = "1", length: float = 100.0, lanes_left: int = 2) -> str:
    lane_xml = "\n".join(
        f'<lane id="{i}" type="driving" level="false">'
        f'<width sOffset="0" a="4.0" b="0" c="0" d="0"/></lane>'
        for i in range(1, lanes_left + 1)
    )
    return f"""
<road id="{road_id}" length="{length}" junction="-1">
  <planView>
    <geometry s="0" x="0" y="0" hdg="0" length="{length}">
      <line/>
    </geometry>
  </planView>
  <lanes>
    <laneSection s="0">
      <left>{lane_xml}</left>
      <center><lane id="0" type="none" level="false"/></center>
    </laneSection>
  </lanes>
</road>"""


JUNCTION = """
<junction id="10" name="j">
  <connection id="0" incomingRoad="1" connectingRoad="2" contactPoint="start">
    <laneLink from="1" to="1"/>
  </connection>
</junction>"""


class TestRefLineSegment:
    def test_line_point_and_heading(self):
        seg = RefLineSegment("line", (1.0, 2.0), math.pi / 2, 10.0, 0.0)
        x, y, h = seg.poses(np.array([4.0]))
        assert (x[0], y[0]) == pytest.approx((1.0, 6.0))
        assert h[0] == pytest.approx(math.pi / 2)

    def test_arc_matches_circle_parametrization(self):
        # curvature 0.01 over 10 m, starting east from the origin
        seg = RefLineSegment("arc", (0.0, 0.0), 0.0, 10.0, 0.01)
        r = 100.0
        (x,), (y,), (h,) = seg.poses(np.array([10.0]))
        assert x == pytest.approx(r * math.sin(10.0 / r), abs=1e-9)
        assert y == pytest.approx(r * (1.0 - math.cos(10.0 / r)), abs=1e-9)
        assert h == pytest.approx(0.1)

    def test_negative_curvature_bends_right(self):
        seg = RefLineSegment("arc", (0.0, 0.0), 0.0, 10.0, -0.01)
        _, y, _ = seg.poses(np.array([10.0]))
        assert y[0] < 0.0

    def test_invalid_segments_rejected(self):
        with pytest.raises(ValueError):
            RefLineSegment("line", (0.0, 0.0), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RefLineSegment("arc", (0.0, 0.0), 0.0, 5.0, 0.0)


class TestParsing:
    def test_single_road_mirrors_document(self):
        model = parse_opendrive(doc(straight_road()))
        assert list(model.roads) == ["1"]
        road = model.road("1")
        assert road.length == 100.0
        assert len(road.sections) == 1
        lanes = road.sections[0].all_lanes()
        assert sorted(l.id for l in lanes) == [1, 2]
        assert {l.side for l in lanes} == {"left"}
        assert lanes[0].width_at(50.0) == pytest.approx(4.0)

    def test_duplicate_road_id(self):
        body = straight_road("7") + straight_road("7")
        with pytest.raises(MapParseError, match="duplicate road id"):
            parse_opendrive(doc(body))

    def test_dangling_road_link(self):
        body = straight_road("1").replace(
            "<planView>",
            '<link><successor elementType="road" elementId="99"/></link><planView>',
        )
        with pytest.raises(MapParseError, match="dangling"):
            parse_opendrive(doc(body))

    def test_junction_with_missing_lane_rejected(self):
        body = (
            straight_road("1")
            + straight_road("2")
            + """
<junction id="10" name="j">
  <connection id="0" incomingRoad="1" connectingRoad="2" contactPoint="start">
    <laneLink from="1" to="9"/>
  </connection>
</junction>"""
        )
        with pytest.raises(MapParseError, match="missing lane 9"):
            parse_opendrive(doc(body))

    @pytest.mark.parametrize("kind", ["spiral", "poly3", "paramPoly3"])
    def test_unsupported_geometry_named_with_line(self, kind):
        body = straight_road().replace("<line/>", f"<{kind}/>")
        with pytest.raises(UnsupportedFeatureError, match=kind) as err:
            parse_opendrive(doc(body))
        assert "(line " in str(err.value)

    def test_second_lane_section_named_with_road_and_line(self):
        wider = straight_road("2", lanes_left=3)
        second = wider[wider.index("<laneSection") : wider.index("</lanes>")].replace('s="0"', 's="50"')
        two_sections = straight_road("2").replace("</lanes>", second + "</lanes>")
        text = doc(straight_road("1") + two_sections)
        line = text.splitlines().index('<road id="2" length="100.0" junction="-1">') + 1
        message = f"road 2: multiple lane sections are outside the supported subset (line {line})"
        with pytest.raises(UnsupportedFeatureError) as err:
            parse_opendrive(text)
        assert str(err.value) == message
        # a junction naming a lane only the second section has is refused the same way
        with pytest.raises(UnsupportedFeatureError) as err:
            parse_opendrive(doc(straight_road("1") + two_sections + JUNCTION.replace('to="1"', 'to="3"')))
        assert str(err.value) == message

    def test_malformed_xml(self):
        with pytest.raises(MapParseError, match="XML"):
            parse_opendrive("<OpenDRIVE><road></OpenDRIVE>")

    def test_wrong_root_element(self):
        with pytest.raises(MapParseError, match="OpenDRIVE"):
            parse_opendrive("<granny/>")

    def test_elevation_ignored_with_warning(self, caplog):
        body = straight_road().replace(
            "<planView>", "<elevationProfile/><planView>"
        )
        with caplog.at_level("WARNING"):
            model = parse_opendrive(doc(body))
        assert "planar" in caplog.text
        assert list(model.roads) == ["1"]

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ('length="100.0">', 'length="nan">', "length='nan' is not a finite number"),
            ('length="100.0">', 'length="0">', "segment length must be positive"),
            ('<line/>', '<arc curvature="0"/>', "arc segment needs nonzero curvature"),
            ('<road id="1" length="100.0"', '<road id="1" length="inf"', "not a finite number"),
            ('<road id="1" length="100.0"', '<road id="1" length="nan"', "not a finite number"),
            ('<road id="1" length="100.0"', '<road id="1" length="0"', "sum of its geometry"),
            ('<road id="1" length="100.0"', '<road id="1" length="-5"', "sum of its geometry"),
            ('<road id="1" length="100.0"', '<road id="1" length="1e9"', "sum of its geometry"),
            ('hdg="0"', 'hdg="inf"', "hdg='inf' is not a finite number"),
            ('x="0"', 'x="nan"', "x='nan' is not a finite number"),
            ('a="4.0"', 'a="nan"', "a='nan' is not a finite number"),
            ('a="4.0"', 'a="inf"', "a='inf' is not a finite number"),
            ('sOffset="0"', 'sOffset="nan"', "sOffset='nan' is not a finite number"),
            ('<laneSection s="0">', '<laneSection s="nan">', "s='nan' is not a finite number"),
            ('<line/>', '<arc curvature="nan"/>', "curvature='nan' is not a finite number"),
            ('<line/>', '<arc curvature="1e308"/>', "arc segment turns through a non-finite angle"),
            (
                '<lane id="1" type="driving" level="false">',
                '<lane id="1" type="driving" level="false"><link><successor id="x"/></link>',
                "id='x' is not an integer",
            ),
            ('a="4.0" b="0"', 'a="1e308" b="1e308"', "vertices must be finite"),
            # at x = 1e16 the 0.5 m sampling step rounds away: vertices coincide
            ('x="0"', 'x="1e16"', "vertices must be distinct"),
        ],
    )
    def test_bad_number_is_input_error(self, old, new, message, tmp_path, capsys):
        text = doc(straight_road())
        assert old in text
        text = text.replace(old, new, 1)
        path = tmp_path / "bad.xodr"
        path.write_text(text)
        assert main(["ingest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "(line " in err

    @pytest.mark.parametrize(
        "encoding,message",
        [
            ("bogus", "unknown encoding: bogus"),  # LookupError
            ("utf-32", "multi-byte encodings are not supported"),  # ValueError
            ("idna", "decoding with 'idna' codec failed"),  # UnicodeError
        ],
    )
    def test_undecodable_encoding_is_input_error(self, encoding, message, tmp_path, capsys):
        text = (DATA / "ex1_straight.xodr").read_text()
        assert 'encoding="UTF-8"' in text
        path = tmp_path / "enc.xodr"
        path.write_text(text.replace('encoding="UTF-8"', f'encoding="{encoding}"', 1))
        trace = str(DATA / "ex1_overtake_trace.csv")
        for argv in (["ingest", str(path)], ["abstract", trace, str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: undecodable XML encoding: ") and message in err
            assert err.endswith("(line 1)\n")

    @pytest.mark.parametrize(
        "edits,anchor,message",
        [
            ([('x="0" y="0"', 'y="0"')], "<geometry", "<geometry> missing attribute 'x'"),
            ([('hdg="0"', 'hdg="abc"')], "<geometry", "<geometry> attribute hdg='abc' is not a finite number"),
            ([('<lane id="1" type', '<lane type')], "<lane type", "<lane> missing attribute 'id'"),
            (
                [('<lane id="1" type="driving"', '<lane id="0" type="driving"')],
                '<lane id="0" type="driving"',
                "center lane listed under a side group",
            ),
            (
                [("<laneSection ", "<section "), ("</laneSection>", "</section>")],
                "<lanes>",
                "road without <laneSection>",
            ),
            ([('<laneLink from="1" to="1"/>', "")], "<connection", "junction connection without <laneLink>"),
            (
                [('connectingRoad="2"', 'connectingRoad="9"')],
                "<connection",
                "junction 10: dangling road reference '9'",
            ),
            (
                [('to="1"', 'to="9"')],
                "<connection",
                "junction 10: connection 0 references missing lane 9 of road 2",
            ),
            (
                [("</junction>", '</junction>\n<junction id="10" name="again"></junction>')],
                '<junction id="10" name="again"',
                "duplicate junction id '10'",
            ),
        ],
    )
    def test_structural_fault_names_its_line(self, edits, anchor, message, tmp_path, capsys):
        text = doc(straight_road("1") + straight_road("2") + JUNCTION)
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        path = tmp_path / "bad.xodr"
        path.write_text(text)
        assert main(["ingest", str(path)]) == 2
        line = text[: text.index(anchor)].count("\n") + 1
        assert capsys.readouterr().err == f"error: {message} (line {line})\n"

    def test_omitted_optional_numbers_take_their_defaults(self, tmp_path, capsys):
        full = doc(straight_road())
        short = full.replace('<laneSection s="0">', "<laneSection>")
        short = short.replace('<width sOffset="0" a="4.0" b="0" c="0" d="0"/>', '<width a="4.0"/>')
        assert short.count("<width a=") == 2
        outputs = []
        for name, text in (("full", full), ("short", short)):
            (tmp_path / f"{name}.xodr").write_text(text)
            assert main(["ingest", str(tmp_path / f"{name}.xodr"), "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_text())
        assert outputs[0] == outputs[1]

    def test_junction_lane_link_must_be_an_integer(self, tmp_path, capsys):
        body = (
            straight_road("1")
            + straight_road("2")
            + """
<junction id="10" name="j">
  <connection id="0" incomingRoad="1" connectingRoad="2" contactPoint="start">
    <laneLink from="1" to="two"/>
  </connection>
</junction>"""
        )
        with pytest.raises(MapParseError, match="to='two' is not an integer"):
            parse_opendrive(doc(body))

    def test_tee_junction_has_six_connecting_roads(self):
        model = parse_opendrive((DATA / "tee_junction.xodr").read_bytes())
        connecting = {
            conn.connecting_road
            for junc in model.junctions.values()
            for conn in junc.connections
        }
        assert len(connecting) == 6


class TestSampling:
    def test_constant_width_left_lane(self):
        model = parse_opendrive(doc(straight_road(lanes_left=1)))
        line = sample_centerline(model, ("1", 1), step=50.0)
        np.testing.assert_allclose(
            line.points, [[0.0, 2.0], [50.0, 2.0], [100.0, 2.0]], atol=1e-12
        )

    def test_right_lane_offsets_negative(self):
        body = straight_road(lanes_left=1).replace(
            "<center><lane id=\"0\" type=\"none\" level=\"false\"/></center>",
            "<center><lane id=\"0\" type=\"none\" level=\"false\"/></center>"
            '<right><lane id="-1" type="driving" level="false">'
            '<width sOffset="0" a="4.0" b="0" c="0" d="0"/></lane></right>',
        )
        model = parse_opendrive(doc(body))
        line = sample_centerline(model, ("1", -1), step=50.0)
        assert line.points[0][1] == pytest.approx(-2.0)

    def test_width_polynomial_is_evaluated(self):
        body = straight_road(lanes_left=1).replace(
            'a="4.0" b="0"', 'a="2.0" b="0.01"'
        )
        model = parse_opendrive(doc(body))
        line = sample_centerline(model, ("1", 1), step=100.0)
        # center offset at the end is half of width(100) = (2 + 0.01*100)/2
        assert line.points[-1][1] == pytest.approx(1.5)

    def test_arc_endpoint_exact(self):
        body = straight_road(lanes_left=1).replace(
            "<line/>", '<arc curvature="0.01"/>'
        ).replace('length="100"', 'length="10"')
        body = body.replace('length="100.0"', 'length="10.0"')
        model = parse_opendrive(doc(body))
        road = model.road("1")
        r = 100.0
        (x,), (y,), _ = road.poses(np.array([road.length]))
        assert x == pytest.approx(r * math.sin(road.length / r), abs=1e-9)
        assert y == pytest.approx(r * (1.0 - math.cos(road.length / r)), abs=1e-9)

    def test_step_bounds_spacing_and_keeps_endpoints(self):
        model = parse_opendrive(doc(straight_road(lanes_left=1)))
        line = sample_centerline(model, ("1", 1), step=7.0)
        gaps = np.diff(line.arclength)
        assert gaps.max() <= 7.0 + 1e-9
        assert line.points[0][0] == pytest.approx(0.0)
        assert line.points[-1][0] == pytest.approx(100.0)

    def test_unknown_lane(self):
        model = parse_opendrive(doc(straight_road(lanes_left=1)))
        with pytest.raises(KeyError):
            sample_centerline(model, ("1", 5), step=10.0)
        with pytest.raises(MapParseError, match="unknown road"):
            model.road("42")

    def test_nonpositive_step(self):
        model = parse_opendrive(doc(straight_road(lanes_left=1)))
        with pytest.raises(ValueError):
            sample_centerline(model, ("1", 1), step=0.0)

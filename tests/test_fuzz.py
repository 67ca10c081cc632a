"""Generated inputs fed to the command line: every run ends in a documented exit code.

A traceback fails the test; so does an exit-0 output that the fact parser
cannot read back, a ``check`` report that differs from one made by
checking every step on its own, and an edited map that ``parse_opendrive``
accepts with a lane edge to a lane it does not have.  Traces go
through ``abstract``, edited result files and network files through
``check`` (results also through ``export``), ``--config`` files and edited
OpenDRIVE maps through ``ingest``, edited requests through ``generate`` and
coordinate sidecars through ``export``.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import os
import pathlib
import re
import tempfile
import xml.etree.ElementTree as ET
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import stepwise_violations

from trafficlogic import facts
from trafficlogic.abstraction import abstract_network
from trafficlogic.cli import main
from trafficlogic.config import Config
from trafficlogic.domain import validate_network
from trafficlogic.opendrive import MapError, parse_opendrive
from trafficlogic.reasoner import expand, parse_request
from trafficlogic.rules import check_scenario, render_report

DATA = pathlib.Path(__file__).parent / "data"
STRAIGHT = DATA / "ex1_straight.xodr"
STRAIGHT_NET = abstract_network(parse_opendrive(STRAIGHT.read_bytes()))

VALID_ID = st.sampled_from(["c1", "c2", "v_3", "l1"])  # "l1" is also a lane name
ODD_ID = st.sampled_from(["C1", "", " ", " c1 ", "1c", "c-1"]) | st.text(
    alphabet="acC1_ -", max_size=3
)
# on-road poses: x 0..100, the lanes span y -8..0, travel along +x
X = st.floats(0.0, 100.0)
Y = st.floats(-8.0, 0.0)
HEADING = st.floats(-0.5, 0.5)
LENGTH = st.floats(0.0, 6.0)
ODD_NUMBER = st.sampled_from([float("nan"), float("inf"), float("-inf")]) | st.floats()
ODD_FIELD = ODD_ID | ODD_NUMBER.map(repr)


@st.composite
def trace_rows(draw) -> list[list[str]]:
    """A full time grid of on-road samples, with up to two fields replaced by odd values."""
    vehicles = draw(st.lists(VALID_ID | ODD_ID, min_size=1, max_size=3, unique=True))
    times = draw(
        st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3]), min_size=1, max_size=3, unique=True)
    )
    rows = [
        [repr(t), v, repr(draw(X)), repr(draw(Y)), repr(draw(HEADING)), repr(draw(LENGTH))]
        for t in times
        for v in vehicles
    ]
    for _ in range(draw(st.integers(0, 2))):
        draw(st.sampled_from(rows))[draw(st.integers(0, 5))] = draw(ODD_FIELD)
    return draw(st.permutations(rows))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(trace_rows())
def test_abstract_fuzzed_traces_exit_0_or_2(rows):
    lines = ["t,vehicle,x,y,heading,length"] + [",".join(row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / "trace.csv"
        out = pathlib.Path(tmp) / "trace.scenario"
        trace.write_text("\n".join(lines) + "\n")
        code = main(["abstract", str(trace), str(STRAIGHT), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            assert facts.parse_scenarios(out.read_text(), STRAIGHT_NET)


OPPOSING_NET = DATA / "ex5_opposing_pass.net"
RELATION = st.sampled_from(["ahead", "cover", "behind", "none"])
UNKNOWN_ID = st.sampled_from(["c9", "l9", "p9", "zz"])
COMMENT = st.sampled_from(["% note", "%", "  % indented note"])


@pytest.fixture(scope="module")
def opposing_result() -> str:
    """The ex5_opposing_pass result file; a generator fault fails only the tests that use it."""
    res = expand(parse_request((DATA / "ex5_opposing_pass.req").read_text()))
    return facts.render_result(res.scenarios, res.texts)


@pytest.fixture(scope="module")
def opposing_first(opposing_result) -> str:
    """The first scenario of `opposing_result`."""
    return opposing_result[: opposing_result.index("#scenario 2")]


@st.composite
def mutated_results(draw, result: str) -> list[str]:
    """The ex5_opposing_pass result, or its first scenario, with a few lines edited."""
    lines = result.splitlines()
    if draw(st.booleans()):
        lines = lines[: lines.index("#scenario 2")]
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["duplicate", "drop", "swap", "relation", "unknown", "comment"]))
        if op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "relation" and lines[i].startswith("lon"):
            head = lines[i][: lines[i].rindex(",") + 1]
            lines[i] = f"{head}{draw(RELATION)})."
        elif op == "unknown" and "(" in lines[i]:
            args = lines[i][lines[i].index("(") + 1 : -2].split(",")
            args[draw(st.integers(0, len(args) - 1))] = draw(UNKNOWN_ID)
            lines[i] = f"{lines[i][: lines[i].index('(')]}({','.join(args)})."
        elif op == "comment":
            lines.insert(i, draw(COMMENT))
    return lines


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _assert_stepwise_report(code: int, out: str, result_text: str, net_text: str) -> None:
    """A ``check`` exit 0 or 1 carries the report that checking every step on its own gives."""
    net, declared = facts.parse_network(net_text)
    scenarios = facts.parse_scenarios(result_text, net, declared)
    prefix = "scenario {}: " if len(scenarios) > 1 else ""
    expected = [
        prefix.format(i) + line
        for i, sc in enumerate(scenarios, start=1)
        for line in render_report(stepwise_violations(sc)).splitlines()
    ]
    assert out.splitlines() == expected
    assert code == (1 if expected else 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_check_and_export_fuzzed_results(opposing_result, data):
    text = "\n".join(data.draw(mutated_results(opposing_result))) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        result = pathlib.Path(tmp) / "opposing.result"
        result.write_text(text)
        code, out = _run(["check", str(result), str(OPPOSING_NET)])
        assert code in (0, 1, 2, 3)
        if code in (0, 1):
            _assert_stepwise_report(code, out, text, OPPOSING_NET.read_text())
        osc = pathlib.Path(tmp) / "opposing.osc"
        code, _ = _run(["export", str(result), str(OPPOSING_NET), "--out", str(osc)])
        assert code in (0, 1, 2, 3)


CONFIG_KEY = st.sampled_from([f.name for f in dataclasses.fields(Config)] + ["colour"])
ODD_VALUE = st.sampled_from(["nan", "inf", "-inf", "1e999", "0", "-1", "abc", "", "1,5"])
# floats bounded so that sampling_step cannot make the sampled map huge
SANE_VALUE = st.floats(0.25, 50.0).map(repr) | st.integers(1, 4).map(str)
KEY_VALUE = st.builds("{}={}".format, CONFIG_KEY, SANE_VALUE | ODD_VALUE)
NOISE = st.sampled_from(
    ["sampling_step", "workers 2", "# a comment", "", "sampling_step=0.5  # trailing note"]
)


@st.composite
def config_lines(draw) -> list[str]:
    """Up to four key=value lines and at most one other line, so that many files load."""
    lines = draw(st.lists(KEY_VALUE, max_size=4))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE))
    return lines


@settings(derandomize=True, max_examples=150, deadline=None)
@given(config_lines())
def test_ingest_fuzzed_configs(lines):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "fuzz.cfg"
        out = pathlib.Path(tmp) / "net.facts"
        cfg.write_text("\n".join(lines) + "\n")
        cwd = os.getcwd()
        os.chdir(tmp)  # a fuzzed relative outdir lands in the temporary directory
        try:
            code, _ = _run(["--config", str(cfg), "ingest", str(STRAIGHT), "--out", str(out)])
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        if code == 0:
            net, _ = facts.parse_network(out.read_text())
            assert net.lanes


XODR = {
    name: (DATA / f"{name}.xodr").read_bytes()
    for name in ("ex1_straight", "ex5_overlap", "tee_junction")
}
ATTRIBUTE_VALUE = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "0", "-1", "abc", "", "road", "junction", "start", "end"]
) | st.floats(0.25, 50.0).map(repr)


# decodable, unknown, multi-byte and bytes-to-bytes encodings
ENCODING = st.sampled_from(
    ["UTF-8", "ascii", "latin-1", "utf-16", "bogus", "mbcs", "rot13", "hex", "utf-32",
     "shift_jis", "big5", "utf-7", "idna"]
)


@st.composite
def mutated_maps(draw) -> bytes:
    """A fixture map with up to four elements dropped, duplicated or given an odd attribute.

    An attribute value may also be one of the map's own road or lane ids, or
    a lane id with its sign flipped.  Half the maps start with an XML
    declaration naming a drawn encoding, which ``ET.tostring`` leaves out.
    """
    root = ET.fromstring(XODR[draw(st.sampled_from(sorted(XODR)))])
    lane_ids = {int(lane.get("id")) for lane in root.iter("lane")}
    own_ids = {road.get("id") for road in root.iter("road")} | {str(i) for i in lane_ids | {-i for i in lane_ids}}
    value = ATTRIBUTE_VALUE | st.sampled_from(sorted(own_ids))
    for _ in range(draw(st.integers(1, 4))):
        pairs = [(parent, child) for parent in root.iter() for child in parent]
        if not pairs:
            break
        parent, child = pairs[draw(st.integers(0, len(pairs) - 1))]
        op = draw(st.sampled_from(["attribute", "drop", "duplicate"]))
        if op == "drop":
            parent.remove(child)
        elif op == "duplicate":
            parent.insert(list(parent).index(child), copy.deepcopy(child))
        elif child.attrib:
            child.set(draw(st.sampled_from(sorted(child.attrib))), draw(value))
    xml = ET.tostring(root)
    if draw(st.booleans()):
        xml = f'<?xml version="1.0" encoding="{draw(ENCODING)}"?>\n'.encode() + xml
    return xml


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_maps())
def test_ingest_fuzzed_maps(xodr):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.xodr"
        out = pathlib.Path(tmp) / "fuzz.facts"
        path.write_bytes(xodr)
        code, _ = _run(["ingest", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 0:
            facts.parse_network(out.read_text())
    # every lane edge of a map the reader accepts joins two lanes of its roads
    try:
        model = parse_opendrive(xodr)
    except MapError:
        return
    for edge in model.lane_edges:
        for rid, lane_id in edge:
            assert lane_id in {lane.id for lane in model.roads[rid].sections[0].all_lanes()}


NETWORK_LINES = OPPOSING_NET.read_text().splitlines()
NETWORK_ID = st.sampled_from(["l1", "l2", "l3", "ra", "rb", "pos", "poe", "c1", "zz", "x", "c"])
NETWORK_NAME = st.sampled_from(
    ["lane", "left", "class", "pon", "succp", "succl", "overlap", "vehicle", "lanes", "on"]
)


def _edit_atom(draw, line: str) -> str:
    """``line`` with one argument replaced, one dropped or one added, or its name changed."""
    if "(" not in line or not line.endswith(")."):
        return line
    name, args = line[: line.index("(")], line[line.index("(") + 1 : -2].split(",")
    op = draw(st.sampled_from(["argument", "drop", "add", "name"]))
    i = draw(st.integers(0, len(args) - 1))
    if op == "argument":
        args[i] = draw(NETWORK_ID)
    elif op == "drop":
        del args[i]
    elif op == "add":
        args.insert(i, draw(NETWORK_ID))
    else:
        name = draw(NETWORK_NAME)
    return f"{name}({','.join(args)})."


def _edit_lines(draw, lines: list[str], extra: st.SearchStrategy[str]) -> list[str]:
    """One to four line edits: duplicate, drop, swap, edit an atom or insert an ``extra`` line."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["duplicate", "drop", "swap", "atom", "insert"]))
        if op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "atom":
            lines[i] = _edit_atom(draw, lines[i])
        elif op == "insert":
            lines.insert(i, draw(extra))
    return lines


NETWORK_LINE = st.sampled_from(["#step 1", "% note", "vehicle(c9).", "left(l1,l2).", "class(pq,os)."])


@st.composite
def mutated_networks(draw) -> list[str]:
    """The ex5_opposing_pass network with a few lines edited."""
    return _edit_lines(draw, NETWORK_LINES, NETWORK_LINE)


def _network_defects(net_text: str) -> Optional[list[str]]:
    """What `validate_network` finds in the network a text builds, or None when it builds none."""
    with mock.patch.object(facts, "validate_network", lambda net: []):
        try:
            net, _ = facts.parse_network(net_text)
        except facts.ParseError:
            return None
    return validate_network(net)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lines=mutated_networks())
def test_check_fuzzed_networks(opposing_result, lines):
    net_text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        result = pathlib.Path(tmp) / "opposing.result"
        net = pathlib.Path(tmp) / "opposing.net"
        result.write_text(opposing_result)
        net.write_text(net_text)
        code, out = _run(["check", str(result), str(net)])
        assert code in (0, 1, 2, 3)
        defects = _network_defects(net_text)
        if defects:
            assert code == 2
        if code in (0, 1):
            assert defects == []
            _assert_stepwise_report(code, out, opposing_result, net_text)


REQUESTS = {path.name: path.read_text().splitlines() for path in sorted(DATA.glob("*.req"))}
REQUEST_LINE = st.sampled_from(
    ["#init", "#horizon x", "#horizon 0", "#mode fast", "#mode exact", "#final any", "#final x",
     "#freeze c9", "#freeze c1", "#goal on(c9, l1)", "#goal lonr(c1, c2, sideways)",
     "#goal not lonpr(c1, pz, ahead)", "#bogus", "on(c1, l1).", "lonro(c1, c2, cover).", "% note"]
)


@st.composite
def mutated_requests(draw) -> list[str]:
    """A fixture request with a few lines edited."""
    return _edit_lines(draw, REQUESTS[draw(st.sampled_from(sorted(REQUESTS)))], REQUEST_LINE)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutated_requests())
def test_generate_fuzzed_requests(lines):
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        request = pathlib.Path(tmp) / "fuzz.req"
        out = pathlib.Path(tmp) / "fuzz.result"
        request.write_text(text)
        code, _ = _run(["generate", str(request), "--horizon", "3", "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            req = parse_request(text)
            verdicts: dict = {}
            for sc in facts.parse_scenarios(out.read_text(), req.network, req.vehicles):
                assert check_scenario(sc, verdicts) == []


ODD_COORD = st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", ""])
FINITE_COORD = st.floats(-1e6, 1e6).map(repr)


@st.composite
def coords_sidecars(draw) -> str:
    """Lines ``point x y z`` for the window points and maybe a stray point; one value in six is odd."""
    points = draw(st.lists(st.sampled_from(["pos", "poe", "px"]), min_size=1, max_size=3))

    def coord() -> str:
        return draw(ODD_COORD if draw(st.integers(0, 5)) == 0 else FINITE_COORD)

    lines = [" ".join([p, coord(), coord(), coord()]) for p in points]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# from ingest")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(coords=coords_sidecars())
def test_export_fuzzed_coords(opposing_first, coords):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = pathlib.Path(tmp) / "first.scenario"
        sidecar = pathlib.Path(tmp) / "fuzz.coords"
        osc = pathlib.Path(tmp) / "first.osc"
        scenario.write_text(opposing_first)
        sidecar.write_text(coords)
        argv = ["export", str(scenario), str(OPPOSING_NET), "--coords", str(sidecar)]
        code, _ = _run(argv + ["--out", str(osc)])
        assert code in (0, 2)
        if code == 0:
            assert not re.search(r"\b(nan|inf)\b", osc.read_text())

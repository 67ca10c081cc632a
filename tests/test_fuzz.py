"""Generated inputs fed to the command line: every run ends in a documented exit code.

A traceback fails the test; so does an exit-0 output that the fact parser
cannot read back, and a ``check`` report that differs from one made by
checking every step on its own.  Traces go through ``abstract``, edited
result files through ``check`` and ``export``, and ``--config`` files and
edited OpenDRIVE maps through ``ingest``.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import os
import pathlib
import tempfile
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import stepwise_violations

from trafficlogic import facts
from trafficlogic.abstraction import abstract_network
from trafficlogic.cli import main
from trafficlogic.config import Config
from trafficlogic.opendrive import parse_opendrive
from trafficlogic.reasoner import expand, parse_request
from trafficlogic.rules import render_report

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
_opposing = expand(parse_request((DATA / "ex5_opposing_pass.req").read_text()))
OPPOSING_LINES = facts.render_result(_opposing.scenarios, _opposing.texts).splitlines()
RELATION = st.sampled_from(["ahead", "cover", "behind", "none"])
UNKNOWN_ID = st.sampled_from(["c9", "l9", "p9", "zz"])
COMMENT = st.sampled_from(["% note", "%", "  % indented note"])


@st.composite
def mutated_results(draw) -> list[str]:
    """The ex5_opposing_pass result, or its first scenario, with a few lines edited."""
    lines = list(OPPOSING_LINES)
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_results())
def test_check_and_export_fuzzed_results(lines):
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        result = pathlib.Path(tmp) / "opposing.result"
        result.write_text(text)
        code, out = _run(["check", str(result), str(OPPOSING_NET)])
        assert code in (0, 1, 2, 3)
        if code in (0, 1):
            net, declared = facts.parse_network(OPPOSING_NET.read_text())
            scenarios = facts.parse_scenarios(text, net, declared)
            prefix = "scenario {}: " if len(scenarios) > 1 else ""
            expected = [
                prefix.format(i) + line
                for i, sc in enumerate(scenarios, start=1)
                for line in render_report(stepwise_violations(sc)).splitlines()
            ]
            assert out.splitlines() == expected
            assert code == (1 if expected else 0)
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
ATTRIBUTE_VALUE = st.sampled_from(["nan", "inf", "-inf", "1e999", "0", "-1", "abc", ""]) | (
    st.floats(0.25, 50.0).map(repr)
)


@st.composite
def mutated_maps(draw) -> bytes:
    """A fixture map with up to four elements dropped, duplicated or given an odd attribute."""
    root = ET.fromstring(XODR[draw(st.sampled_from(sorted(XODR)))])
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
            child.set(draw(st.sampled_from(sorted(child.attrib))), draw(ATTRIBUTE_VALUE))
    return ET.tostring(root)


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

"""Generated inputs fed to the command line: every run ends in a documented exit code.

A traceback fails the test; so does an exit-0 output that the fact parser
cannot read back.
"""

from __future__ import annotations

import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from trafficlogic import facts
from trafficlogic.abstraction import abstract_network
from trafficlogic.cli import main
from trafficlogic.opendrive import parse_opendrive

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

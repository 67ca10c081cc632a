"""Fact-file parsing and canonical rendering round-trips."""

from __future__ import annotations

import pathlib
from itertools import islice
from typing import Optional

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from reference_facts import reference_parse_scenarios
from test_generator_soundness import requests as soundness_requests
from test_successors import FAMILIES, _explore

from trafficlogic import facts
from trafficlogic.domain import LonRel, Scenario, Scene
from trafficlogic.reasoner import _gen_successors, expand, parse_request
from trafficlogic.rules import check_scene, render_report

A, C, B, N = LonRel.AHEAD, LonRel.COVER, LonRel.BEHIND, LonRel.NONE

NETWORK = """\
% a two-lane road beside an opposing strip, with an overlap window
lane(l2, ra).
lane(l1, ra).
left(l2, l1).
lane(l3, rb).
class(pos, os).
class(poe, oe).
pon(pos, l2).  % window carried by l2 and l3
pon(poe, l2).
pon(pos, l3).
pon(poe, l3).
succp(l2, pos, poe).
succp(l3, poe, pos).
overlap(pos, poe).
vehicle(c1).
"""


class TestParseAtom:
    def test_basic(self):
        assert facts.parse_atom("lane(l1,ra).") == ("lane", ("l1", "ra"))
        assert facts.parse_atom("  lonr( c1 , c2 , ahead ). ") == (
            "lonr",
            ("c1", "c2", "ahead"),
        )

    @pytest.mark.parametrize(
        "bad",
        ["lane(l1,ra)", "lane l1 ra.", "Lane(l1,ra).", "lane(L1,ra).", ""],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(facts.ParseError):
            facts.parse_atom(bad)

    def test_wrong_arity_rejected_by_network_parser(self):
        with pytest.raises(facts.ParseError):
            facts.parse_network("lane(l1).\n")

    def test_error_carries_line_number(self):
        with pytest.raises(facts.ParseError, match="line 7"):
            facts.parse_atom("nope", lineno=7)


class TestParseNetwork:
    def test_parses_and_indexes(self):
        net, declared = facts.parse_network(NETWORK)
        assert net.lanes == ("l1", "l2", "l3")
        assert net.road("ra").lanes == ("l2", "l1")
        assert declared == {"c1"}
        (zone,) = net.zones
        assert zone.orientation == {"ra": 1, "rb": -1}

    def test_round_trip_is_identity(self):
        net, declared = facts.parse_network(NETWORK)
        text = facts.render_network(net, declared)
        net2, declared2 = facts.parse_network(text)
        assert facts.render_network(net2, declared2) == text

    def test_metadata_comments_survive_parsing(self):
        net, _ = facts.parse_network(NETWORK)
        text = facts.render_network(net, meta={"sampling_step": "0.5"})
        assert "% meta sampling_step=0.5" in text
        net2, _ = facts.parse_network(text)
        assert facts.render_network(net2) == facts.render_network(net)

    def test_directives_rejected(self):
        with pytest.raises(facts.ParseError, match="directive"):
            facts.parse_network("lane(l1,ra).\n#horizon 3\n")

    def test_unknown_fact_rejected(self):
        with pytest.raises(facts.ParseError, match="unknown network fact"):
            facts.parse_network("lane(l1,ra).\nspeed(l1,fast).\n")

    def test_left_facts_must_chain(self):
        with pytest.raises(facts.ParseError):
            facts.parse_network(
                "lane(l1,ra).\nlane(l2,ra).\nlane(l3,ra).\n"
                "left(l1,l2).\nleft(l1,l3).\n"
            )


class TestScenes:
    def test_scene_from_atoms_fills_vrel_mirror(self):
        s = facts.scene_from_atoms(
            [("on", ("c1", "l1")), ("on", ("c2", "l1")), ("lonr", ("c1", "c2", "behind"))],
            vehicles=("c1", "c2"),
        )
        assert s.vrel_of("c2", "c1") is A

    def test_scene_from_atoms_fills_opposing_orel_symmetrically(self):
        net, _ = facts.parse_network(NETWORK)
        s = facts.scene_from_atoms(
            [
                ("on", ("c1", "l2")),
                ("on", ("c3", "l3")),
                ("lonro", ("c1", "c3", "behind")),
            ],
            vehicles=("c1", "c3"),
            net=net,
        )
        # opposite directions share the window axis: the relation is mutual
        assert s.orel_of("c3", "c1") is B

    #: roads ra and rb share two windows, the same way through (p1s, p1e) and
    #: opposed through (p2s, p2e); x on ra and y on rb are past p1e and inside
    #: the opposed window only
    TWO_WINDOWS = (
        "lane(l1, ra).\nlane(l2, rb).\n"
        "class(p1s, os).\nclass(p1e, oe).\nclass(p2s, os).\nclass(p2e, oe).\n"
        + "".join(f"pon({p}, {l}).\n" for p in ("p1s", "p1e", "p2s", "p2e") for l in ("l1", "l2"))
        + "overlap(p1s, p1e).\noverlap(p2s, p2e).\n"
        "succp(l1, p1s, p2s).\nsuccp(l1, p2s, p1e).\nsuccp(l1, p1e, p2e).\n"
        "succp(l2, p1s, p2e).\nsuccp(l2, p2e, p1e).\nsuccp(l2, p1e, p2s).\n"
    )
    INSIDE_OPPOSED = [("on", ("x", "l1")), ("on", ("y", "l2"))] + [
        ("lonpr", (c, p, "behind" if p == last else "ahead"))
        for c, last in (("x", "p2e"), ("y", "p2s"))
        for p in ("p1s", "p1e", "p2s", "p2e")
    ]

    @pytest.mark.parametrize("stated", [("x", "y"), ("y", "x")], ids=["x-y", "y-x"])
    def test_a_one_sided_window_relation_is_mirrored_by_the_window_holding_the_pair(self, stated):
        net, _ = facts.parse_network(self.TWO_WINDOWS)
        both = facts.scene_from_atoms(
            self.INSIDE_OPPOSED + [("lonro", ("x", "y", "ahead")), ("lonro", ("y", "x", "ahead"))], net=net
        )
        assert check_scene(both, net) == []
        one = facts.scene_from_atoms(self.INSIDE_OPPOSED + [("lonro", (*stated, "ahead"))], net=net)
        assert one == both
        assert check_scene(one, net) == []

    @pytest.mark.parametrize("xy,yx", [("ahead", "cover"), ("cover", "ahead")])
    def test_head_on_cover_is_judged_on_both_stored_orientations(self, xy, yx):
        """PR13 reads ``orel(y, x)`` as it reads ``orel(x, y)``: cover on either side is reported."""
        net, _ = facts.parse_network(self.TWO_WINDOWS)
        scene = facts.scene_from_atoms(
            self.INSIDE_OPPOSED + [("lonro", ("x", "y", xy)), ("lonro", ("y", "x", yx))], net=net
        )
        assert render_report(check_scene(scene, net)) == "PR13 @step 1 [x, y]\nPR14_SYM @step 1 [x, y]"

    def test_declared_vehicles_get_empty_occupancy(self):
        s = facts.scene_from_atoms([("on", ("c1", "l1"))], vehicles=("c1", "c2"))
        assert s.occ_of("c2") == frozenset()


class TestScenarioFiles:
    def _scenario(self, net) -> Scenario:
        s1 = facts.scene_from_atoms(
            [("on", ("c1", "l1")), ("lonpr", ("c1", "pos", "behind")),
             ("lonpr", ("c1", "poe", "behind"))],
            vehicles=("c1",), net=net,
        )
        s2 = facts.scene_from_atoms(
            [("on", ("c1", "l1")), ("lonpr", ("c1", "pos", "cover")),
             ("lonpr", ("c1", "poe", "behind"))],
            vehicles=("c1",), net=net,
        )
        return Scenario(frozenset({"c1"}), net, (s1, s2))

    def test_scenario_round_trip(self):
        net, _ = facts.parse_network(NETWORK)
        sc = self._scenario(net)
        text = facts.render_scenario(sc)
        (back,) = facts.parse_scenarios(text, net)
        assert facts.render_scenario(back) == text

    def test_result_round_trip_multi(self):
        net, _ = facts.parse_network(NETWORK)
        sc = self._scenario(net)
        text = facts.render_result([sc, sc])
        back = facts.parse_scenarios(text, net)
        assert len(back) == 2
        assert facts.render_result(back) == text

    def test_scene_without_atoms_renders_an_empty_block(self):
        """A scene with no atoms is its ``#step`` line alone, and round-trips."""
        net, _ = facts.parse_network(NETWORK)
        first, last = self._scenario(net).scenes
        empty = facts.scene_from_atoms([], vehicles=("c1",), net=net)
        sc = Scenario(frozenset({"c1"}), net, (first, empty, last))
        text = facts.render_scenario(sc)
        assert text == (
            "#step 1\nlonpr(c1,poe,behind).\nlonpr(c1,pos,behind).\non(c1,l1).\n"
            "#step 2\n#step 3\nlonpr(c1,poe,behind).\nlonpr(c1,pos,cover).\non(c1,l1).\n"
        )
        result = facts.render_result([sc])
        assert result == "#scenario 1\n" + text
        (back,) = facts.parse_scenarios(result, net)
        assert back.scenes == sc.scenes
        assert facts.render_result([back]) == result

    def test_atoms_sorted_canonically_per_step(self):
        net, _ = facts.parse_network(NETWORK)
        text = facts.render_scenario(self._scenario(net))
        for block in text.split("#step")[1:]:
            body = block.splitlines()[1:]
            body = [l for l in body if l]
            assert body == sorted(body)

    def test_scene_atom_before_step_rejected(self):
        net, _ = facts.parse_network(NETWORK)
        with pytest.raises(facts.ParseError, match="before any #step"):
            facts.parse_scenarios("on(c1,l1).\n", net)

    def test_unknown_scene_atom_rejected(self):
        net, _ = facts.parse_network(NETWORK)
        with pytest.raises(facts.ParseError, match="unknown scene atom"):
            facts.parse_scenarios("#step 1\nlane(l9,rz).\n", net)

    def test_declared_universe_extends_scenes(self):
        net, _ = facts.parse_network(NETWORK)
        (sc,) = facts.parse_scenarios("#step 1\non(c1,l1).\n", net, frozenset({"c9"}))
        assert sc.vehicles == {"c1", "c9"}


DATA = pathlib.Path(__file__).parent / "data"
OPPOSING_NET, OPPOSING_DECLARED = facts.parse_network((DATA / "ex5_opposing_pass.net").read_text())
_opposing = expand(parse_request((DATA / "ex5_opposing_pass.req").read_text()))
#: The lines of each section of the ex5_opposing_pass result, without its #scenario header.
SECTIONS = [text.splitlines() for text in _opposing.texts]
#: Every line break of ``str.splitlines``, ``\r\n`` included.
BREAK = st.sampled_from(["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
BLANK = st.sampled_from([" ", "  ", "\t", "\xa0", "\x1f", "\u3000"])
NOTE = st.sampled_from(["% note", "%", "  % indented note", "% #step 1"])
ODD_HEADER = st.sampled_from(
    ["#step", "#step x", "#step 1 2", "#step -1", "#step +1", "#step 1.", "#step \u0663",
     "#step%1", "#steps 1", "#stop 1", "#", "#scenario", "#scenario 0", "#scenario 99",
     "#step 9", "#horizon 3", "# step 1"]
)
#: Well-formed headers for step 1 and scenario 1 written another way.
ODD_FIRST = st.sampled_from(
    ["#step 01", "#step\t1", "#step\xa01 ", "#step 1%", "#step  1\x1f% x", "#scenario 001 %%"]
)
RELATION = st.sampled_from(["ahead", "cover", "behind", "none", "sideways"])


def _headers(lines: list[str], directive: str = "#") -> list[int]:
    return [i for i, line in enumerate(lines) if line.lstrip().startswith(directive)]


@st.composite
def edited_results(draw) -> str:
    """Sections of the ex5_opposing_pass result, repeated and edited, joined by drawn line breaks."""
    picks = draw(st.lists(st.integers(0, len(SECTIONS) - 1), min_size=1, max_size=4))
    lines: list[str] = []
    for n, k in enumerate(picks, start=1):
        lines += [f"#scenario {n}", *SECTIONS[k]]
    if len(picks) == 1 and draw(st.booleans()):
        del lines[0]  # bare #step blocks
    for _ in range(draw(st.integers(0, 5))):
        steps = _headers(lines, "#step")
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(
            ["copy", "empty", "header_note", "indent", "odd_header", "renumber", "drop", "swap",
             "duplicate", "relation", "note", "atom_first", "empty_scenario", "drop_header"]
        ))
        if op == "copy" and len(steps) > 1:
            # one step block takes another's atom lines: a repeat in a valid place
            a, b = draw(st.sampled_from(steps)), draw(st.sampled_from(steps))
            ends = _headers(lines) + [len(lines)]
            body = lines[b + 1 : min(e for e in ends if e > b)]
            lines[a + 1 : min(e for e in ends if e > a)] = body
        elif op == "empty":
            # one more step at the end of a scenario, empty or holding only comments
            at = draw(st.sampled_from(_headers(lines, "#scenario")[1:] + [len(lines)]))
            last = [j for j in steps if j < at]
            number = int(lines[last[-1]].split()[1]) + 1 if last else 1
            block = [f"#step {number}"] + draw(st.lists(NOTE | st.just(""), max_size=2))
            lines[at:at] = block
        elif op == "header_note" and steps:
            j = draw(st.sampled_from(_headers(lines)))
            lines[j] += draw(st.sampled_from([" % note", "%", "  %% #step 9", "\t% x"]))
        elif op == "indent":
            j = draw(st.sampled_from(_headers(lines))) if draw(st.booleans()) else i
            lines[j] = draw(BLANK) + lines[j]
        elif op == "odd_header":
            j = draw(st.sampled_from(_headers(lines)))
            lines[j] = draw(ODD_FIRST if lines[j] in ("#step 1", "#scenario 1") else ODD_HEADER)
        elif op == "renumber":
            j = draw(st.sampled_from(_headers(lines)))
            parts = lines[j].split()
            if len(parts) == 2 and parts[1].isdigit():
                lines[j] = f"{parts[0]} {int(parts[1]) + draw(st.sampled_from([-1, 1]))}"
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "relation" and lines[i].startswith("lon"):
            lines[i] = f"{lines[i][: lines[i].rindex(',') + 1]}{draw(RELATION)})."
        elif op == "note":
            lines.insert(i, draw(NOTE))
        elif op == "atom_first":
            j = draw(st.sampled_from(_headers(lines)))
            lines.insert(j + 1 if lines[j].startswith("#scenario") else j, "on(c1,l1).")
        elif op == "drop_header":
            # a step's atom lines, seen before as a block, now follow a #scenario header
            del lines[draw(st.sampled_from(_headers(lines)))]
        elif op == "empty_scenario":
            lines.append(f"#scenario {len(_headers(lines, '#scenario')) + 1}")
    breaks = ["\n"] * len(lines)
    if draw(st.booleans()):
        breaks = [draw(BREAK)] * len(lines)
    for j in draw(st.lists(st.integers(0, len(lines) - 1), max_size=4)):
        breaks[j] = draw(BREAK)
    if draw(st.booleans()):
        breaks[-1] = ""  # no break after the last line
    return "".join(line + end for line, end in zip(lines, breaks))


def _outcome(parse, text: str):
    """The scenarios' universes and scenes, or the `ParseError` text and line."""
    try:
        return [(sc.vehicles, sc.scenes) for sc in parse(text, OPPOSING_NET, OPPOSING_DECLARED)]
    except facts.ParseError as exc:
        return str(exc), exc.line


@settings(derandomize=True, max_examples=400, deadline=None)
@given(edited_results())
def test_parse_scenarios_matches_the_line_by_line_reference(text):
    assert _outcome(facts.parse_scenarios, text) == _outcome(reference_parse_scenarios, text)


# -- one-sided window relations round-trip ----------------------------------------


def _one_sided(scene: Scene) -> str:
    """``scene``'s atom lines without the ``lonro(y, x, ...)`` of each pair ``x < y``."""
    lines = []
    for line in facts.scene_atom_lines(scene):
        name, args = facts.parse_atom(line)
        if not (name == "lonro" and args[0] > args[1]):
            lines.append(line)
    return "\n".join(lines)


def _window_scenes(name: str):
    """The network and scenes of a window family of `test_successors`, or of ex5's result."""
    if name == "ex5_opposing_pass":
        return OPPOSING_NET, {s for sc in _opposing.scenarios for s in sc.scenes}
    _, text, bound = next(f for f in FAMILIES if f[0] == name)
    explored = _explore(text, bound)
    return explored.network, explored.scenes


@pytest.mark.parametrize("name", ["window-opposed", "window-same-way", "window-hop", "two-windows", "ex5_opposing_pass"])
def test_scenes_parse_back_from_one_sided_window_relations(name):
    """Each window relation's mirror comes from the window the checker reads it in."""
    net, scenes = _window_scenes(name)
    assert any(s.orel for s in scenes)
    for scene in scenes:
        (back,) = facts.parse_scenarios(f"#step 1\n{_one_sided(scene)}\n", net)
        assert back.scenes == (scene,)


# -- one atom memo per request ------------------------------------------------------


def _reached(req, depth: int, limit: Optional[int] = 100) -> list[Scene]:
    """The scenes within ``depth`` steps of ``req``'s initial scene, breadth first, up to ``limit`` parents (``None``: all)."""
    steps = {req.initial: 0}
    todo = [req.initial]
    interned: dict = {}
    for s in islice(todo, limit):  # the iterator sees the scenes appended below
        if steps[s] < depth:
            for t in _gen_successors(s, req.network, req.frozen, {}, interned):
                if t not in steps:
                    steps[t] = steps[s] + 1
                    todo.append(t)
    return list(steps)


def _memo_renders_as_fresh(scenes) -> None:
    """Every block rendered through one shared atom memo equals the block of freshly formatted lines."""
    memo: dict = {}
    for scene in scenes:
        assert facts.scene_block(scene, memo) == "".join(line + "\n" for line in facts.scene_atom_lines(scene))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(soundness_requests())
def test_shared_atom_memo_renders_every_reached_scene_as_fresh(case):
    text, depth = case
    try:
        req = parse_request(text)
    except facts.ParseError:
        reject()
    _memo_renders_as_fresh(_reached(req, depth))


def test_shared_atom_memo_renders_opposing_pass_scenes_as_fresh():
    req = parse_request((DATA / "ex5_opposing_pass.req").read_text())
    scenes = _reached(req, req.horizon - 1, None)
    lines = {line.split("(")[0] for s in scenes for line in facts.scene_atom_lines(s)}
    assert lines == {"on", "lonr", "lonpr", "lonro"}
    _memo_renders_as_fresh(scenes)

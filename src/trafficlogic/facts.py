"""Textual fact format: the package's canonical serialization.

One atom per line, terminated by ``.``; ``%`` starts a comment; ``#``
starts a directive (``#step``, ``#scenario``, and the request directives
handled in `reasoner`).  Network facts::

    lane(l1, ra).        % lane l1 belongs to road ra
    left(l2, l1).        % l2 is the immediate left neighbour of l1
    class(px, x).        % point kind: x | c | os | oe
    pon(px, l1).         % point affiliation
    succp(l1, p1, p2).   % p2 follows p1 along l1
    succl(pc, l2).       % connection pc continues onto lane l2
    overlap(pos, poe).   % shared-pavement window
    vehicle(c1).         % optional universe declaration

Scene atoms: ``on(c,l)``, ``lonr(c1,c2,rel)``, ``lonpr(c,p,rel)``,
``lonro(c1,c2,rel)`` with ``rel`` one of ahead/cover/behind/none.
Rendering is canonical: entries sorted, no whitespace inside atoms, NONE
entries omitted, pair relations present in both orientations.

Result files repeat a few scenes many times, so `parse_scenarios` works per
distinct step block, not per line: the text is split at its header lines
once, each distinct block is parsed line by line at its first occurrence
only, and later occurrences are a dict lookup.  Its cost grows with the
distinct blocks plus the header lines.
"""

from __future__ import annotations

import re
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from trafficlogic.domain import (
    ID_RE,
    LonRel,
    PointKind,
    Road,
    RoadNetwork,
    Scenario,
    Scene,
    validate_network,
)

_ATOM_RE = re.compile(r"([a-z][a-z0-9_]*)\s*\(\s*([^()]*?)\s*\)\s*\.\s*\Z")

#: The line breaks of ``str.splitlines`` other than ``\n``, and a pattern that
#: turns each of them (``\r\n`` as one) into ``\n``.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK_RE = re.compile(f"\r\n|[{_OTHER_BREAKS}]")
#: A line break and the directive line after it, whose first character that
#: is not blank is ``#``; and such a piece that is a well-formed header.
_HEADER_RE = re.compile(r"(\n[^\S\n]*#.*)")
_HEADER_LINE_RE = re.compile(r"\s*(#scenario|#step)\s+([0-9]+)\s*(?:%.*)?")

_REL = {r.value: r for r in LonRel}
_KIND = {k.value: k for k in PointKind}

_NETWORK_ARITY = {
    "lane": 2,
    "left": 2,
    "class": 2,
    "pon": 2,
    "succp": 3,
    "succl": 2,
    "overlap": 2,
    "vehicle": 1,
}
_SCENE_ARITY = {"on": 2, "lonr": 3, "lonpr": 3, "lonro": 3}

_Atom = tuple[str, tuple[str, ...]]


class ParseError(ValueError):
    """Input text that does not conform to the fact format."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 is a `ParseError` naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None


def strip_comment(raw: str) -> str:
    i = raw.find("%")
    return raw[:i] if i >= 0 else raw


def parse_atom(text: str, lineno: Optional[int] = None) -> tuple[str, tuple[str, ...]]:
    """Parse one ``name(arg,...).`` line into its functor and arguments."""
    m = _ATOM_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"not a fact: {text.strip()!r}", lineno)
    name = m.group(1)
    body = m.group(2)
    args = tuple(a.strip() for a in body.split(",")) if body.strip() else ()
    for a in args:
        if not ID_RE.match(a):
            raise ParseError(f"bad identifier {a!r} in {name}", lineno)
    return name, args


def _numbered_atoms(text: str, start: int = 1) -> list[tuple[int, str]]:
    """The numbered lines of ``text`` that hold more than a comment, stripped; the first is ``start``."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=start):
        line = strip_comment(raw).strip()
        if line:
            out.append((i, line))
    return out


def _check_arity(name: str, args: Sequence[str], arity: int, lineno: Optional[int]) -> None:
    if len(args) != arity:
        raise ParseError(f"{name} expects {arity} arguments, got {len(args)}", lineno)


def parse_scene_atom(text: str, lineno: Optional[int] = None) -> tuple[str, tuple[str, ...]]:
    """Parse one scene atom line, checking its name, arity and relation value (a `LonRel` value)."""
    name, args = parse_atom(text, lineno)
    if name not in _SCENE_ARITY:
        raise ParseError(f"unknown scene atom {name!r}", lineno)
    _check_arity(name, args, _SCENE_ARITY[name], lineno)
    if name != "on" and args[-1] not in _REL:
        raise ParseError(f"bad relation value {args[-1]!r}", lineno)
    return name, args


class NetworkBuilder:
    """Accumulates network facts and assembles a `RoadNetwork`.

    The left-neighbour facts must order every multi-lane road into a
    single left-to-right chain, and the network must pass
    `domain.validate_network`; anything else is a parse error.
    """

    def __init__(self) -> None:
        self.lane_road: dict[str, str] = {}
        self.left_pairs: set[tuple[str, str]] = set()
        self.kinds: dict[str, PointKind] = {}
        self.affiliation: set[tuple[str, str]] = set()
        self.succ_p: set[tuple[str, str, str]] = set()
        self.succ_c: set[tuple[str, str]] = set()
        self.overlaps: set[tuple[str, str]] = set()
        self.vehicles: set[str] = set()

    def add(self, name: str, args: tuple[str, ...], lineno: Optional[int] = None) -> None:
        """Record one network fact; an unknown name or a wrong arity is a `ParseError`."""
        if name not in _NETWORK_ARITY:
            raise ParseError(f"unknown network fact {name!r}", lineno)
        _check_arity(name, args, _NETWORK_ARITY[name], lineno)
        if name == "lane":
            l, r = args
            if self.lane_road.get(l, r) != r:
                raise ParseError(f"lane {l} declared on two roads", lineno)
            self.lane_road[l] = r
        elif name == "left":
            self.left_pairs.add(args)
        elif name == "class":
            p, k = args
            kind = _KIND.get(k)
            if kind is None:
                raise ParseError(f"unknown point kind {k!r}", lineno)
            if self.kinds.get(p, kind) is not kind:
                raise ParseError(f"point {p} declared with two kinds", lineno)
            self.kinds[p] = kind
        elif name == "pon":
            self.affiliation.add(args)
        elif name == "succp":
            self.succ_p.add(args)
        elif name == "succl":
            self.succ_c.add(args)
        elif name == "overlap":
            self.overlaps.add(args)
        elif name == "vehicle":
            self.vehicles.add(args[0])

    def _order_lanes(self, road_id: str, lanes: set[str]) -> tuple[str, ...]:
        if len(lanes) == 1:
            return (next(iter(lanes)),)
        right_of = {}
        left_of = {}
        for a, b in self.left_pairs:
            if a in lanes and b in lanes:
                if a in right_of or b in left_of:
                    raise ParseError(f"left facts for road {road_id} are not a chain")
                right_of[a] = b
                left_of[b] = a
        heads = [l for l in lanes if l not in left_of]
        if len(heads) != 1:
            raise ParseError(
                f"road {road_id} lanes cannot be ordered left-to-right from left() facts"
            )
        chain = [heads[0]]
        while chain[-1] in right_of:
            chain.append(right_of[chain[-1]])
        if len(chain) != len(lanes):
            raise ParseError(
                f"road {road_id} lanes cannot be ordered left-to-right from left() facts"
            )
        return tuple(chain)

    def build(self) -> RoadNetwork:
        by_road: dict[str, set[str]] = {}
        for l, r in self.lane_road.items():
            by_road.setdefault(r, set()).add(l)
        roads = [Road(rid, self._order_lanes(rid, ls)) for rid, ls in sorted(by_road.items())]
        net = RoadNetwork(
            roads,
            points=self.kinds,
            succ_p=self.succ_p,
            succ_c=self.succ_c,
            overlaps=self.overlaps,
            affiliation=self.affiliation,
        )
        defects = validate_network(net)
        if defects:
            raise ParseError("invalid network: " + "; ".join(defects))
        return net


def parse_network(text: str) -> tuple[RoadNetwork, frozenset[str]]:
    """Parse a pure network fact file; returns (network, declared vehicles)."""
    b = NetworkBuilder()
    for lineno, line in _numbered_atoms(text):
        if line.startswith("#"):
            raise ParseError(f"unexpected directive in network file: {line}", lineno)
        b.add(*parse_atom(line, lineno), lineno)
    return b.build(), frozenset(b.vehicles)


# -- scenes -----------------------------------------------------------------


def scene_from_atoms(
    atoms: Iterable[tuple[str, tuple[str, ...]]],
    vehicles: Iterable[str] = (),
    net: Optional[RoadNetwork] = None,
) -> Scene:
    """Assemble a scene from ``on``/``lonr``/``lonpr``/``lonro`` atoms.

    The atoms are `parse_scene_atom` results, so names, arities and
    relation values are already checked.  Vehicles listed in ``vehicles``
    receive (possibly empty) occupancy entries even without ``on`` atoms.
    Missing ``lonr`` mirrors are filled by inversion; with a network, a
    missing ``lonro`` mirror by `OverlapZone.mirror` of the first window
    holding both vehicles (`RoadNetwork.window_members`), which `rules`
    reads it in, or else of the first window carrying both roads.
    """
    occ: dict[str, set[str]] = {c: set() for c in vehicles}
    vrel: dict[tuple[str, str], LonRel] = {}
    prel: dict[tuple[str, str], LonRel] = {}
    orel: dict[tuple[str, str], LonRel] = {}
    relations = {"lonr": vrel, "lonpr": prel, "lonro": orel}
    for name, args in atoms:
        if name == "on":
            c, l = args
            occ.setdefault(c, set()).add(l)
        else:
            x, y, d = args
            relations[name][(x, y)] = _REL[d]
    orel = {k: v for k, v in orel.items() if v is not LonRel.NONE}
    one_sided = [(x, y) for x, y in orel if (y, x) not in orel] if net is not None else ()
    if one_sided:
        road_of = {c: net.road_of(occ[c]) for c in sorted(occ)}
        held = net.window_members(road_of, prel)[1]
        for x, y in one_sided:
            rx, ry = road_of.get(x), road_of.get(y)
            zones = held.get((x, y) if x < y else (y, x)) or [
                z for z in net.zones if rx in z.orientation and ry in z.orientation
            ]
            if zones:
                orel[(y, x)] = zones[0].mirror(rx, ry, orel[x, y])
    return Scene.build(occ, vrel, prel, orel)


def scene_atom_lines(scene: Scene) -> list[str]:
    """Canonical, sorted atom lines for one scene."""
    out = []
    for c, ls in scene.occ.items():
        for l in ls:
            out.append(f"on({c},{l}).")
    for (x, y), v in scene.vrel.items():
        out.append(f"lonr({x},{y},{v.value}).")
    for (c, p), v in scene.prel.items():
        out.append(f"lonpr({c},{p},{v.value}).")
    for (x, y), v in scene.orel.items():
        out.append(f"lonro({x},{y},{v.value}).")
    return sorted(out)


def scene_block(scene: Scene) -> str:
    """A scene's block: its `scene_atom_lines`, each ending in a line break."""
    return "".join(line + "\n" for line in scene_atom_lines(scene))


def render_scenario(sc: Scenario, block: Callable[[Scene], str] = scene_block) -> str:
    """``#step <k>`` and the scene's block (`scene_block`), for each scene in order.

    ``block`` renders each block: pass one ``functools.cache(scene_block)``
    to render many scenarios that share scenes, and each scene is formatted
    once.
    """
    return "".join(f"#step {k}\n{block(scene)}" for k, scene in enumerate(sc.scenes, start=1))


def render_result(scenarios: Sequence[Scenario], texts: Optional[Sequence[str]] = None) -> str:
    """Concatenated scenario renderings with ``#scenario <n>`` separators.

    ``texts``, when given, are the scenarios' ``render_scenario`` output,
    already made (``reasoner.ExpansionResult.texts``); otherwise each
    distinct scene's block is rendered once.
    """
    if texts is None:
        block = cache(scene_block)
        texts = [render_scenario(sc, block) for sc in scenarios]
    parts = []
    for i, text in enumerate(texts, start=1):
        parts += (f"#scenario {i}\n", text)
    return "".join(parts)


def _bad_header(raw: str, lineno: int) -> ParseError:
    """Why a directive line that `_HEADER_LINE_RE` rejects is not ``#scenario <n>`` or ``#step <n>``."""
    line = strip_comment(raw).strip()
    directive = line.split()[0]
    if directive not in ("#scenario", "#step"):
        return ParseError(f"unexpected directive {directive!r}", lineno)
    return ParseError(f"malformed header {line!r}, expected {directive} <number>", lineno)


def _parse_block(
    text: str, lineno: int, parsed: dict[str, _Atom], stepped: bool
) -> tuple[tuple[_Atom, ...], frozenset[str]]:
    """The atoms of a block whose first line is ``lineno``, and the vehicles of its ``on`` atoms.

    ``parsed`` interns atom lines across blocks.  Outside a step
    (``stepped`` false) the first atom line is an error.
    """
    atoms = []
    for i, line in _numbered_atoms(text, lineno):
        atom = parsed.get(line)
        if atom is None:
            atom = parsed[line] = parse_scene_atom(line, i)
        if not stepped:
            raise ParseError("scene atom before any #step header", i)
        atoms.append(atom)
    return tuple(atoms), frozenset(args[0] for name, args in atoms if name == "on")


def parse_scenarios(
    text: str, net: RoadNetwork, declared: frozenset[str] = frozenset()
) -> list[Scenario]:
    """Parse a scenario (or multi-scenario result) file.

    Accepts either bare ``#step`` blocks (one scenario) or ``#scenario``
    sections.  Headers are numbered: steps count 1, 2, ... within their
    scenario, and each ``#scenario`` header after the first carries the next
    number (the first may carry any number from 1, so one section cut from
    a result file parses on its own).  Any other ``#`` line is a
    `ParseError`.  The vehicle universe of each scenario is the union of the
    declared vehicles and every vehicle occurring in its ``on`` atoms.

    Parsing is per distinct block, not per line.  Line breaks are
    normalised once (the breaks of ``str.splitlines``, so line numbers are
    the same), and one regular expression splits the text at its header
    lines.  Each distinct header line is checked once.  Each distinct step
    block, the text between a ``#step`` header and the next header, is
    parsed line by line at its first occurrence only, so an error names
    the first line that has it; later occurrences are one dict lookup.
    Each distinct block builds one `Scene` per vehicle universe, shared by
    every scenario that holds it.
    """
    if any(c in text for c in _OTHER_BREAKS):
        text = _BREAK_RE.sub("\n", text)
    # With a line break in front, every header piece starts with one and
    # every block starts on the line of the header before it (line 0 for
    # the first block); without the breaks at the end, the last block reads
    # like the same block anywhere else.
    pieces = _HEADER_RE.split("\n" + text)  # block, header, block, ..., block
    pieces[-1] = pieces[-1].rstrip("\n")
    parsed: dict[str, _Atom] = {}  # atom line -> atom
    headers: dict[str, tuple[str, int]] = {}  # header piece -> directive, number
    block_ids: dict[str, int] = {}  # block text -> index into blocks
    blocks: list[tuple[tuple[_Atom, ...], frozenset[str]]] = []  # atoms, vehicles with an on atom
    groups: list[list[int]] = []  # scenario -> block of each step
    steps: Optional[list[int]] = None
    stepped = False  # whether the next block follows a #step header
    scenario_no = 0  # number of the last #scenario header, 0 before the first
    counted, lineno = 0, 0  # pieces[counted] starts on line lineno

    def line_at(i: int) -> int:
        nonlocal counted, lineno
        lineno += "".join(pieces[counted:i]).count("\n")
        counted = i
        return lineno

    for i in range(0, len(pieces), 2):
        block = pieces[i]
        b = block_ids.get(block)
        if b is None or (blocks[b][0] and not stepped):
            b = block_ids[block] = len(blocks)
            blocks.append(_parse_block(block, line_at(i), parsed, stepped))
        if stepped:
            steps.append(b)
        if i + 1 == len(pieces):
            break
        header = pieces[i + 1]
        checked = headers.get(header)
        if checked is None:
            m = _HEADER_LINE_RE.fullmatch(header)
            if m is None:
                raise _bad_header(header, line_at(i + 1) + 1)
            checked = headers[header] = m[1], int(m[2])
        directive, number = checked
        stepped = directive == "#step"
        if stepped:
            if steps is None:
                steps = []
                groups.append(steps)
            expected = len(steps) + 1
        else:
            expected = scenario_no + 1 if scenario_no else max(number, 1)
            scenario_no = number
            steps = []
            groups.append(steps)
        if number != expected:
            raise ParseError(
                f"{directive} {number} out of order, expected {directive} {expected}",
                line_at(i + 1) + 1,
            )
    declared = frozenset(declared)
    scenes: dict[frozenset[str], dict[int, Scene]] = {}  # universe -> block -> scene
    scenarios = []
    for steps in groups:
        if not steps:
            raise ParseError("scenario with no #step blocks")
        vehicles = declared.union(*[blocks[b][1] for b in steps])
        built = scenes.setdefault(vehicles, {})
        for b in steps:
            if b not in built:
                built[b] = scene_from_atoms(blocks[b][0], vehicles, net)
        scenarios.append(Scenario(vehicles, net, tuple(map(built.__getitem__, steps))))
    return scenarios


def render_network(
    net: RoadNetwork,
    vehicles: Iterable[str] = (),
    meta: Optional[Mapping[str, object]] = None,
) -> str:
    """Canonical network fact rendering, with optional metadata comments."""
    lines = []
    if meta:
        for k, v in sorted(meta.items()):
            lines.append(f"% meta {k}={v}")
    for r in net.roads:
        for l in r.lanes:
            lines.append(f"lane({l},{r.id}).")
        for a, b in zip(r.lanes, r.lanes[1:]):
            lines.append(f"left({a},{b}).")
    for p in sorted(net.points):
        lines.append(f"class({p},{net.points[p].value}).")
    for p, l in sorted(net.affiliation):
        lines.append(f"pon({p},{l}).")
    for l, p1, p2 in sorted(net.succ_p):
        lines.append(f"succp({l},{p1},{p2}).")
    for p, l in sorted(net.succ_c):
        lines.append(f"succl({p},{l}).")
    for a, b in sorted(net.overlaps):
        lines.append(f"overlap({a},{b}).")
    for c in sorted(set(vehicles)):
        lines.append(f"vehicle({c}).")
    return "\n".join(lines) + "\n"

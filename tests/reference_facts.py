"""The line-by-line scenario parser, kept as a reference.

This is ``facts.parse_scenarios`` as it was before it split the text at
header lines and parsed each distinct step block once: every line goes
through ``splitlines``, comment stripping and the header or atom parser
in turn.  ``tests/test_facts.py`` asserts that both give equal scenarios,
or the same `ParseError` text and line number, on edited result files.
Only the atom-level parsers are shared with `facts`: ``parse_scene_atom``
for an atom line and ``scene_from_atoms`` for a block.
"""

from __future__ import annotations

from typing import Optional

from trafficlogic.domain import RoadNetwork, Scenario, Scene
from trafficlogic.facts import ParseError, parse_scene_atom, scene_from_atoms, strip_comment

_Atom = tuple[str, tuple[str, ...]]


def _header(line: str, lineno: int) -> tuple[str, int]:
    """The directive and number of a ``#scenario <n>`` or ``#step <n>`` line."""
    parts = line.split()
    if parts[0] not in ("#scenario", "#step"):
        raise ParseError(f"unexpected directive {parts[0]!r}", lineno)
    if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
        raise ParseError(f"malformed header {line!r}, expected {parts[0]} <number>", lineno)
    return parts[0], int(parts[1])


def reference_parse_scenarios(
    text: str, net: RoadNetwork, declared: frozenset[str] = frozenset()
) -> list[Scenario]:
    """Parse a scenario or result file one line at a time."""
    numbered = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if line:
            numbered.append((i, line))
    parsed: dict[str, _Atom] = {}
    groups: list[list[list[_Atom]]] = []  # scenario -> step -> atoms
    current_steps: Optional[list[list[_Atom]]] = None
    current_atoms: Optional[list[_Atom]] = None
    scenario_no = 0  # number of the last #scenario header, 0 before the first
    for lineno, line in numbered:
        if line.startswith("#"):
            directive, number = _header(line, lineno)
            if directive == "#scenario":
                expected = scenario_no + 1 if scenario_no else max(number, 1)
                scenario_no = number
                current_steps = []
                groups.append(current_steps)
                current_atoms = None
            else:
                if current_steps is None:
                    current_steps = []
                    groups.append(current_steps)
                expected = len(current_steps) + 1
                current_atoms = []
                current_steps.append(current_atoms)
            if number != expected:
                raise ParseError(
                    f"{directive} {number} out of order, expected {directive} {expected}", lineno
                )
        else:
            atom = parsed.get(line)
            if atom is None:
                atom = parsed[line] = parse_scene_atom(line, lineno)
            if current_atoms is None:
                raise ParseError("scene atom before any #step header", lineno)
            current_atoms.append(atom)
    scenes: dict[tuple[frozenset[str], tuple[_Atom, ...]], Scene] = {}
    scenarios = []
    for steps in groups:
        if not steps:
            raise ParseError("scenario with no #step blocks")
        universe = set(declared)
        for atoms in steps:
            universe.update(args[0] for name, args in atoms if name == "on")
        vehicles = frozenset(universe)
        interned = []
        for atoms in steps:
            key = (vehicles, tuple(atoms))
            scene = scenes.get(key)
            if scene is None:
                scene = scenes[key] = scene_from_atoms(atoms, vehicles, net)
            interned.append(scene)
        scenarios.append(Scenario(vehicles, net, tuple(interned)))
    return scenarios

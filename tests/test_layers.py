"""Module boundaries: no module of the package imports another one's private names.

A name with a leading underscore belongs to its module.  When a second
module needs it, the name is made public or the decision it encodes moves
to one owner; this test keeps such imports from coming back.  Window
membership has one owner too: only `domain` asks a window whether it holds
a vehicle, and every other module reads `RoadNetwork.window_members`.  So
does the composition table: only `rules` reads `COMPOSITION`, and the
generator's vehicle triangles come from `rules.triangle_rule`.
"""

from __future__ import annotations

import ast
import pathlib

import trafficlogic

PACKAGE = pathlib.Path(trafficlogic.__file__).parent


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "trafficlogic":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}{module} import {alias.name}")
    return found


def test_modules_import_no_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _private_imports(path)] == []


def test_the_check_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from trafficlogic.facts import ParseError, _REL\nfrom . import _x\nfrom os import _exit\n")
    assert _private_imports(probe) == [
        "probe.py:1: from trafficlogic.facts import _REL",
        "probe.py:2: from . import _x",
    ]


def _holds_inside_calls(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "holds_inside"
    ]


def test_only_domain_asks_a_window_whether_it_holds_a_vehicle():
    modules = sorted(PACKAGE.glob("*.py"))
    assert _holds_inside_calls(PACKAGE / "domain.py")
    assert [hit for path in modules if path.name != "domain.py" for hit in _holds_inside_calls(path)] == []


def test_the_check_sees_a_holds_inside_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("inside = [c for c in cars if z.holds_inside(road[c], c, prel)]\nz.holds_inside\n")
    assert _holds_inside_calls(probe) == ["probe.py:1"]


def _composition_reads(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "COMPOSITION")
        or (isinstance(node, ast.Attribute) and node.attr == "COMPOSITION")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "COMPOSITION" for a in node.names))
    ]


def test_only_rules_reads_the_composition_table():
    modules = sorted(PACKAGE.glob("*.py"))
    assert _composition_reads(PACKAGE / "rules.py")
    assert [hit for path in modules if path.name != "rules.py" for hit in _composition_reads(path)] == []


def test_the_check_sees_a_composition_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from trafficlogic.rules import (\n    COMPOSITION,\n)\n"
        "ok = v in rules.COMPOSITION[a, b]\nCOMPOSITIONS = {}\n"
    )
    assert _composition_reads(probe) == ["probe.py:1", "probe.py:4"]

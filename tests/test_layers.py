"""Module boundaries: no module of the package imports another one's private names.

A name with a leading underscore belongs to its module.  When a second
module needs it, the name is made public or the decision it encodes moves
to one owner; this test keeps such imports from coming back.
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

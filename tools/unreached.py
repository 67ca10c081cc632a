"""Print the executable lines of ``src/trafficlogic`` that no tier-1 test reaches.

Runs the test suite in this process under a ``sys.settrace`` /
``threading.settrace`` line tracer (stdlib only), then compares the lines
it saw with the lines each module's compiled code can execute.  Code run
only in child processes is not seen, so ``__main__.py`` always shows up.

Usage, from the repository root::

    python tools/unreached.py                 # every module
    python tools/unreached.py reasoner rules  # only these modules
    python tools/unreached.py -- tests/test_rules.py   # run a subset of tests

Arguments after ``--`` go to pytest.  Not part of tier-1: tracing makes
the suite several times slower.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trafficlogic"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` can execute."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process; return its exit code and the lines reached per package file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    out: list[str] = []
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n is not None and n == prev + 1:
            prev = n
            continue
        out.append(str(start) if start == prev else f"{start}-{prev}")
        if n is not None:
            start = prev = n
    return ", ".join(out)


def main(argv: list[str]) -> int:
    if "--" in argv:
        i = argv.index("--")
        modules, pytest_args = argv[:i], argv[i + 1 :]
    else:
        modules, pytest_args = argv, []
    code, seen = traced_run(pytest_args or [str(ROOT / "tests")])
    files = sorted(PACKAGE.glob("*.py"))
    if modules:
        files = [f for f in files if f.stem in modules]
    total = missing = 0
    for f in files:
        lines = executable_lines(f)
        unreached = sorted(lines - seen.get(str(f), set()))
        total += len(lines)
        missing += len(unreached)
        if unreached:
            print(f"{f.relative_to(ROOT)}: {len(unreached)} of {len(lines)} unreached: {ranges(unreached)}")
    print(f"total: {missing} of {total} executable lines unreached (pytest exit {code})")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

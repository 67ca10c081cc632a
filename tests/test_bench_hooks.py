"""The benchmark's span hooks still find the functions they wrap.

``perfbench/tracer.py`` records per-layer metrics by replacing module
attributes of the program (``TARGETS``: owner, attribute, span name, counter).
A renamed or deleted attribute would leave a per-layer metric silently empty,
so every target must still resolve to a callable.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "owner,attr", [t[:2] for t in tracer.TARGETS], ids=[f"{t[0]}.{t[1]}" for t in tracer.TARGETS]
)
def test_target_resolves_to_a_callable(owner, attr):
    assert callable(getattr(tracer._owner(owner), attr, None))

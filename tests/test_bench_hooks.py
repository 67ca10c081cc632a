"""The benchmark's span hooks still find the functions they wrap.

``perfbench/tracer.py`` records per-layer metrics by replacing module
attributes of the program (``TARGETS``: owner, attribute, span name, counter).
A renamed or deleted attribute would leave a per-layer metric silently empty,
so every target must still resolve to a callable, and a traced run must
still record the spans the per-layer metrics are summed from.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from trafficlogic.cli import main

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
DATA = pathlib.Path(__file__).parent / "data"


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


def test_generate_records_scene_checks_under_successor_generation(tmp_path):
    """Generation checks only the initial scene and no transition; `check` records both spans."""
    result = str(tmp_path / "r.result")
    rec = tracer.Recorder()
    with tracer.Tracing(rec):
        assert main(["generate", str(DATA / "ex1_overtake.req"), "--out", result]) == 0
    counts = tracer.pass_counts(rec)
    assert counts["reasoner.successor_gen.calls"] > 0
    assert counts["reasoner.generator_checked"] == 0
    assert counts["rules.check_scene.calls"] == 1
    assert counts["reasoner.successors_out"] > 0
    assert counts["rules.check_transition.calls"] == 0
    rec = tracer.Recorder()
    with tracer.Tracing(rec):
        assert main(["check", result, str(DATA / "ex1_overtake.net")]) == 0
    counts = tracer.pass_counts(rec)
    assert counts["rules.check_scene.calls"] > 0
    assert counts["rules.check_transition.calls"] > 0


@pytest.mark.parametrize("args,count", [([], 4), (["--mode", "exact", "--horizon", "4"], 16), (["--horizon", "2"], 0)])
def test_traced_generate_counts_the_scenarios_it_writes(args, count, tmp_path):
    """The scenario counter builds `ExpansionResult.scenarios`, which `generate` itself never reads."""
    result = tmp_path / "r.result"
    rec = tracer.Recorder()
    with tracer.Tracing(rec):
        assert main(["generate", str(DATA / "ex1_overtake.req"), "--out", str(result), *args]) == 0
    written = result.read_text().count("#scenario ")
    assert tracer.pass_counts(rec)["reasoner.scenarios"] == written
    assert written == count


def test_ingest_and_abstract_record_map_and_trace_counts(tmp_path):
    rec = tracer.Recorder()
    with tracer.Tracing(rec):
        assert main(["ingest", str(DATA / "ex5_overlap.xodr"), "--out", str(tmp_path / "n.facts")]) == 0
        trace, xodr = str(DATA / "ex5_squeeze_trace.csv"), str(DATA / "ex5_overlap.xodr")
        assert main(["abstract", trace, xodr, "--out", str(tmp_path / "s.result")]) == 0
    counts = tracer.pass_counts(rec)
    assert counts["opendrive.vertices"] > 0
    assert counts["geometry.project_points.pairs"] > 0
    assert counts["abstraction.trace.samples"] > 0

"""End-to-end command-line behaviour: pipelines, outputs, exit codes."""

from __future__ import annotations

import collections
import multiprocessing.process
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import pytest
from oracle import stepwise_violations

import trafficlogic
from trafficlogic import abstraction, cli, domain, reasoner, rules
from trafficlogic.cli import main
from trafficlogic.rules import render_report

DATA = pathlib.Path(__file__).parent / "data"

OK, SEMANTIC, INPUT, UNSUPPORTED = 0, 1, 2, 3


def data(name: str) -> str:
    return str(DATA / name)


class TestIngest:
    def test_map_to_facts_and_coords(self, tmp_path, capsys):
        out = tmp_path / "net.facts"
        coords = tmp_path / "net.coords"
        code = main(
            ["ingest", data("ex5_overlap.xodr"), "--out", str(out), "--coords-out", str(coords)]
        )
        assert code == OK
        text = out.read_text()
        assert "overlap(pos1,poe1)." in text
        assert "% meta sampling_step=0.5" in text
        assert "pos1 30.000000 -2.000000 0.000000" in coords.read_text()

    def test_facts_to_stdout_by_default(self, capsys):
        assert main(["ingest", data("ex1_straight.xodr")]) == OK
        captured = capsys.readouterr()
        assert "lane(l1,r1)." in captured.out
        assert "left(l1,l2)." in captured.out

    def test_missing_file(self, capsys):
        assert main(["ingest", "no_such.xodr"]) == INPUT
        assert "error:" in capsys.readouterr().err

    def test_unsupported_geometry(self, tmp_path, capsys):
        bad = tmp_path / "spiral.xodr"
        text = (DATA / "ex1_straight.xodr").read_text().replace("<line/>", "<spiral/>")
        bad.write_text(text)
        assert main(["ingest", str(bad)]) == UNSUPPORTED
        assert "spiral" in capsys.readouterr().err

    def test_malformed_xml(self, tmp_path, capsys):
        bad = tmp_path / "broken.xodr"
        bad.write_text("<OpenDRIVE><road>")
        assert main(["ingest", str(bad)]) == INPUT


class TestGenerate:
    @pytest.mark.parametrize(
        "req,count,tstar",
        [
            ("ex1_overtake.req", 4, "4"),
            ("ex2_crossing.req", 2, "4"),
            ("ex3_branching.req", 3, "3"),
            ("ex4_two_crossings.req", 2, "5"),
            ("ex5_opposing_pass.req", 2, "6"),
        ],
    )
    def test_fixture_counts_on_stderr(self, req, count, tstar, tmp_path, capsys):
        out = tmp_path / "r.result"
        assert main(["generate", data(req), "--out", str(out)]) == OK
        err = capsys.readouterr().err
        assert f"scenarios: {count} (" in err
        assert f"T*={tstar}" in err
        assert out.read_text().count("#scenario ") == count

    def test_stats_line_shape(self, tmp_path, capsys):
        out = tmp_path / "r.result"
        assert main(["generate", data("ex1_overtake.req"), "--out", str(out)]) == OK
        err = capsys.readouterr().err.strip()
        assert err.startswith("scenarios: 4 (mode=shortest, T*=4, nodes=18, pruned=")
        assert err.endswith("s)")

    def test_mode_and_horizon_overrides(self, tmp_path, capsys):
        out = tmp_path / "r.result"
        code = main(
            ["generate", data("ex1_overtake.req"), "--out", str(out),
             "--mode", "exact", "--horizon", "4"]
        )
        assert code == OK
        # exact mode keeps straddling finals that steadiness filtered out
        err = capsys.readouterr().err
        assert "mode=exact" in err and "scenarios: 16 (" in err

    def test_workers_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", data("ex5_opposing_pass.req"), "--workers", "2"])
        assert exc.value.code == INPUT
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_workers_flag_changes_nothing_in_output(self, tmp_path, capsys):
        # the flag is gone; the ``workers`` parameter ``expand`` keeps is inert
        req = reasoner.parse_request(pathlib.Path(data("ex5_opposing_pass.req")).read_text())
        assert reasoner.expand(req, workers=4).texts == reasoner.expand(req).texts
        out = tmp_path / "r.result"
        with pytest.raises(SystemExit):
            main(["generate", data("ex5_opposing_pass.req"), "--out", str(out), "--workers", "4"])
        assert not out.exists()

    def test_workers_start_no_process(self, monkeypatch, capsys):
        def no_process(self):
            raise AssertionError("generation started a child process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        req = reasoner.parse_request(pathlib.Path(data("ex5_opposing_pass.req")).read_text())
        assert len(reasoner.expand(req, workers=4).texts) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_input_error(self, workers, capsys):
        # no value of the deleted flag is accepted, so no range check is left
        with pytest.raises(SystemExit) as exc:
            main(["generate", data("ex3_branching.req"), "--workers", workers])
        assert exc.value.code == INPUT
        assert f"unrecognized arguments: --workers {workers}" in capsys.readouterr().err

    def test_dot_timeline(self, tmp_path, capsys):
        dot = tmp_path / "t.dot"
        out = tmp_path / "r.result"
        assert main(
            ["generate", data("ex3_branching.req"), "--out", str(out), "--dot", str(dot)]
        ) == OK
        text = dot.read_text()
        assert text.startswith("digraph scenarios {")
        assert "s1_1 -> s1_2" in text

    def test_malformed_request(self, tmp_path, capsys):
        bad = tmp_path / "bad.req"
        bad.write_text("lane(l1, ra).\n#init\non(c1, l1).\n")  # no #horizon
        assert main(["generate", str(bad)]) == INPUT
        assert "horizon" in capsys.readouterr().err

    def test_infeasible_initial_scene(self, tmp_path, capsys):
        bad = tmp_path / "bad.req"
        bad.write_text(
            "lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).\n"
            "#init\non(c1, l1).\non(c2, l2).\n#horizon 2\n"
        )
        assert main(["generate", str(bad)]) == INPUT
        assert "initial scene" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where,line",
        [("#init\non(c1, l1).\non(c2, l1).\nlonr(c1, c2, sideways).\n#horizon 2\n", 5),
         ("#init\non(c1, l1).\n#horizon 2\n#goal lonr(c1, c2, sideways)\n", 5)],
        ids=["init", "goal"],
    )
    def test_unknown_relation_value_is_input_error(self, where, line, tmp_path, capsys):
        bad = tmp_path / "bad.req"
        bad.write_text("lane(l1, ra).\n" + where)
        assert main(["generate", str(bad)]) == INPUT
        assert f"error: line {line}: bad relation value 'sideways'" in capsys.readouterr().err

    def test_errors_do_not_depend_on_the_hash_seed(self, tmp_path):
        overtake = (DATA / "ex1_overtake.req").read_text()
        frozen = tmp_path / "frozen.req"  # two unknown vehicles
        frozen.write_text(overtake + "#freeze oe, c3\n")
        lanes = tmp_path / "lanes.req"  # two WF violations in one initial scene
        lanes.write_text(overtake.replace("#init\n", "#init\non(c1, l8).\non(c1, l9).\n"))
        script = "import sys\nfrom trafficlogic.cli import main\nfor p in sys.argv[1:]:\n    main(['generate', p])\n"
        src = str(pathlib.Path(trafficlogic.__file__).parents[1])
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(frozen), str(lanes)],
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in range(8)
        ]
        errs = {run.communicate()[1] for run in runs}
        assert len(errs) == 1
        (err,) = errs
        assert err == (
            "error: #freeze names unknown vehicle 'c3'\n"
            "error: initial scene violates rules: TR1 @step 1 [c1]; "
            "WF @step 1 [unknown_lane, c1, l8]; WF @step 1 [unknown_lane, c1, l9]\n"
        )

    def test_outdir_config_places_result(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        outdir = tmp_path / "results"
        cfg.write_text(f"outdir={outdir}\n")
        assert main(["--config", str(cfg), "generate", data("ex3_branching.req")]) == OK
        assert (outdir / "ex3_branching.result").exists()

    def test_outdir_under_a_file_is_input_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"outdir={afile}\n")
        assert main(["--config", str(cfg), "generate", data("ex3_branching.req")]) == INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_path_under_a_file_is_input_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        out = afile / "x.result"
        assert main(["generate", data("ex3_branching.req"), "--out", str(out)]) == INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_calls_in_one_process_behave_as_in_fresh_ones(self, tmp_path, capsys):
        """`main` builds its parser once; no option or config of one call reaches the next."""
        request = data("ex3_branching.req")
        fresh = subprocess.run(
            [sys.executable, "-m", "trafficlogic", "generate", request],
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(trafficlogic.__file__).parents[1])},
            capture_output=True,
            text=True,
            check=True,
        )
        stats = fresh.stderr.split(" wall=")[0]
        out = tmp_path / "r.result"
        assert main(["generate", request, "--out", str(out)]) == OK
        assert out.read_text() == fresh.stdout
        assert capsys.readouterr().err.split(" wall=")[0] == stats
        with pytest.raises(SystemExit) as exc:
            main(["generate", request, "--horizon", "2", "--bogus"])
        assert exc.value.code == INPUT
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"outdir={tmp_path / 'od'}\n")
        assert main(["--config", str(cfg), "generate", request]) == OK
        assert (tmp_path / "od" / "ex3_branching.result").read_text() == fresh.stdout
        assert capsys.readouterr().out == ""
        assert main(["generate", request]) == OK
        captured = capsys.readouterr()
        assert captured.out == fresh.stdout
        assert captured.err.split(" wall=")[0] == stats
        assert cli._build_parser() is cli._build_parser()


class TestCheck:
    def test_generated_results_pass(self, tmp_path, capsys):
        out = tmp_path / "r.result"
        assert main(["generate", data("ex1_overtake.req"), "--out", str(out)]) == OK
        capsys.readouterr()
        assert main(["check", str(out), data("ex1_overtake.net")]) == OK
        assert capsys.readouterr().out == ""

    def test_violations_reported_with_scenario_prefix(self, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        sc.write_text(
            "#scenario 1\n#step 1\non(c1,l2).\n#step 2\non(c1,l1).\n"
            "#scenario 2\n#step 1\non(c1,l1).\n"
        )
        assert main(["check", str(sc), data("ex1_overtake.net")]) == SEMANTIC
        out = capsys.readouterr().out
        assert "scenario 1: PR7 @step 1->2 [c1]" in out

    def test_single_scenario_report_has_no_prefix(self, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        sc.write_text(
            "#step 1\non(c1,l2).\non(c2,l2).\nlonr(c1,c2,behind).\n"
            "#step 2\non(c1,l1).\non(c2,l2).\nlonr(c1,c2,behind).\n"
        )
        assert main(["check", str(sc), data("ex1_overtake.net")]) == SEMANTIC
        out = capsys.readouterr().out
        assert out.splitlines() == ["PR7 @step 1->2 [c1]"]

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        sc.write_text("#step 1\nwobble(c1,l2).\n")
        assert main(["check", str(sc), data("ex1_overtake.net")]) == INPUT

    def test_unknown_relation_value_is_input_error(self, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        sc.write_text("#step 1\non(c1,l2).\non(c2,l2).\nlonr(c1,c2,sideways).\n")
        assert main(["check", str(sc), data("ex1_overtake.net")]) == INPUT
        assert "error: line 4: bad relation value 'sideways'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("#stepwise 9\non(c1,l1).\n#scenarios\n#step 1\non(c1,l1).\n",
             "line 1: unexpected directive '#stepwise'"),
            ("#step 1\non(c1,l1).\n#scenarios\n#step 1\non(c1,l1).\n",
             "line 3: unexpected directive '#scenarios'"),
            ("#step 1\non(c1,l1).\n#step 3\non(c1,l1).\n",
             "line 3: #step 3 out of order, expected #step 2"),
            ("#scenario 1\n#step 1\non(c1,l1).\n#scenario 3\n#step 1\non(c1,l1).\n",
             "line 4: #scenario 3 out of order, expected #scenario 2"),
            ("#scenario 1\n#step 1\non(c1,l1).\n#scenario 2\n#step 2\non(c1,l1).\n",
             "line 5: #step 2 out of order, expected #step 1"),
            ("#scenario 0\n#step 1\non(c1,l1).\n",
             "line 1: #scenario 0 out of order, expected #scenario 1"),
            ("#step\non(c1,l1).\n", "line 1: malformed header '#step', expected #step <number>"),
            ("#step one\non(c1,l1).\n", "line 1: malformed header '#step one'"),
            ("#scenario 1 2\n#step 1\non(c1,l1).\n", "line 1: malformed header '#scenario 1 2'"),
            ("#scenario 1\n#scenario 2\n#step 1\non(c1,l1).\n", "scenario with no #step blocks"),
            ("#scenario 1\n\non(c1,l1).\n#step 1\n", "line 3: scene atom before any #step header"),
        ],
    )
    def test_malformed_header_is_input_error(self, text, message, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        sc.write_text(text)
        assert main(["check", str(sc), data("ex1_overtake.net")]) == INPUT
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_bad_atom_reports_its_first_line(self, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        block = "#step 1\non(c1,l2).\non(c2,l2).\nlonr(c1,c2,sideways).\n"
        sc.write_text(f"#scenario 1\n{block}#scenario 2\n{block}")
        assert main(["check", str(sc), data("ex1_overtake.net")]) == INPUT
        assert "error: line 5: bad relation value 'sideways'" in capsys.readouterr().err

    def test_distinct_scenes_and_transitions_checked_once(
        self, dense_result, monkeypatch, capsys
    ):
        scenarios = dense_result.parse()
        report = [
            f"scenario {i}: {line}"
            for i, sc in enumerate(scenarios, start=1)
            for line in render_report(stepwise_violations(sc)).splitlines()
        ]
        scenes = {s for sc in scenarios for s in sc.scenes}
        transitions = {p for sc in scenarios for p in zip(sc.scenes, sc.scenes[1:])}
        # every scenario's universe is the declared {c1, c2}
        blocks = {
            step.split("\n", 1)[1]
            for section in dense_result.path.read_text().split("#scenario ")[1:]
            for step in section.split("#step ")[1:]
        }
        calls: collections.Counter = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(rules, "check_scene", counted("scene", rules.check_scene))
        monkeypatch.setattr(
            rules, "check_transition", counted("transition", rules.check_transition)
        )
        monkeypatch.setattr(domain.Scene, "__init__", counted("init", domain.Scene.__init__))
        assert main(["check", str(dense_result.path), str(dense_result.network)]) == SEMANTIC
        assert capsys.readouterr().out.splitlines() == report
        assert calls == {
            "scene": len(scenes),
            "transition": len(transitions),
            "init": len(blocks),
        }


#: (extra network facts, one defect line `domain.validate_network` reports);
#: one case per defect class a fact file can produce, on top of lanes l1
#: (road ra) and l2 (road rb).  Bad ids and a lane on two roads cannot
#: reach the check: the fact parser rejects them first.
NETWORK_DEFECTS = {
    "succp-unknown-point": ("succp(l1, p9, zz).", "unknown point in succp: p9"),
    "succp-unknown-lane": (
        "class(p1, c).\nclass(p2, c).\nsuccp(l9, p1, p2).", "unknown lane in succp: l9"
    ),
    "succp-unaffiliated": (
        "class(p1, c).\nclass(p2, c).\npon(p1, l1).\npon(p2, l2).\nsuccp(l1, p1, p2).",
        "succp point not affiliated with its lane: p2 on l1",
    ),
    "succl-unknown-point": ("succl(p9, l1).", "unknown point in succl: p9"),
    "succl-unknown-lane": ("class(p1, c).\npon(p1, l1).\nsuccl(p1, l9).", "unknown lane in succl: l9"),
    "succl-not-connection": (
        "class(q1, x).\npon(q1, l1).\npon(q1, l2).\nsuccl(q1, l2).",
        "succl source not a connection point: q1",
    ),
    "overlap-unknown-point": ("overlap(p8, p9).", "unknown point in overlap: p8"),
    "overlap-class-mismatch": (
        "class(pa, c).\nclass(pb, oe).\npon(pa, l1).\npon(pb, l1).\noverlap(pa, pb).",
        "overlap pair class mismatch: (pa, pb)",
    ),
    "pon-unknown-point": ("pon(p9, l1).", "unknown point in pon: p9"),
    "pon-unknown-lane": ("class(p1, c).\npon(p1, l9).", "unknown lane in pon: l9"),
    "point-on-no-lane": ("class(p1, c).", "point affiliated with no lane: p1"),
    "intersection-on-one-lane": (
        "class(q1, x).\npon(q1, l1).", "intersection point not on exactly two lanes of two roads: q1"
    ),
    "order-cycle": (
        "class(p1, c).\nclass(p2, c).\npon(p1, l1).\npon(p2, l1).\nsuccp(l1, p1, p2).\nsuccp(l1, p2, p1).",
        "point order not acyclic on lane l1",
    ),
    "order-partial": (
        "".join(f"class(p{i}, c).\npon(p{i}, l1).\n" for i in range(1, 5))
        + "succp(l1, p1, p2).\nsuccp(l1, p3, p4).",
        "point order not total on lane l1: p1 vs p3",
    ),
}


class TestInvalidNetwork:
    """A network that parses but breaks an invariant is an input error, never a run."""

    LANES = "lane(l1, ra).\nlane(l2, rb).\n"

    @pytest.mark.parametrize("facts,defect", NETWORK_DEFECTS.values(), ids=NETWORK_DEFECTS)
    @pytest.mark.parametrize("command", ["generate", "check"])
    def test_defect_is_input_error(self, command, facts, defect, tmp_path, capsys):
        net = tmp_path / "bad.net"
        net.write_text(self.LANES + facts + "\n")
        if command == "generate":
            net.write_text(net.read_text() + "#init\non(c1, l1).\n#horizon 2\n")
            argv = ["generate", str(net), "--out", str(tmp_path / "r.result")]
        else:
            sc = tmp_path / "one.scenario"
            sc.write_text("#scenario 1\n#step 1\non(c1,l1).\n")
            argv = ["check", str(sc), str(net)]
        assert main(argv) == INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid network: ") and captured.err.count("\n") == 1
        assert defect in captured.err.rstrip("\n").split(": ", 2)[2].split("; ")
        assert not (tmp_path / "r.result").exists()

    @pytest.mark.parametrize(
        "facts,message",
        [
            ("class(p1, y).", "line 3: unknown point kind 'y'"),
            ("class(p1, c).\nclass(p1, x).", "line 4: point p1 declared with two kinds"),
            # l1 is the one lane of ra with no left neighbour, but l3 and l4 are
            # each other's, so the chain from l1 misses them
            ("lane(l3, ra).\nlane(l4, ra).\nleft(l3, l4).\nleft(l4, l3).",
             "road ra lanes cannot be ordered left-to-right from left() facts"),
        ],
        ids=["unknown-kind", "two-kinds", "short-left-chain"],
    )
    def test_unbuildable_network_is_input_error(self, facts, message, tmp_path, capsys):
        net = tmp_path / "bad.net"
        net.write_text(self.LANES + facts + "\n")
        sc = tmp_path / "one.scenario"
        sc.write_text("#scenario 1\n#step 1\non(c1,l1).\n")
        assert main(["check", str(sc), str(net)]) == INPUT
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_every_defect_is_listed(self, tmp_path, capsys):
        req = tmp_path / "bad.req"
        req.write_text(
            self.LANES + "class(q1, x).\nsuccp(l1, p9, zz).\n#init\non(c1, l1).\n#horizon 2\n"
        )
        assert main(["generate", str(req)]) == INPUT
        assert capsys.readouterr().err == (
            "error: invalid network: unknown point in succp: p9; unknown point in succp: zz; "
            "point affiliated with no lane: q1; "
            "intersection point not on exactly two lanes of two roads: q1\n"
        )


class TestAbstract:
    def test_trace_pipeline_round_trip(self, tmp_path, capsys):
        out = tmp_path / "t.scenario"
        assert main(
            ["abstract", data("ex1_overtake_trace.csv"), data("ex1_straight.xodr"),
             "--out", str(out)]
        ) == OK
        net_out = tmp_path / "net.facts"
        assert main(["ingest", data("ex1_straight.xodr"), "--out", str(net_out)]) == OK
        capsys.readouterr()
        assert main(["check", str(out), str(net_out)]) == OK
        text = out.read_text()
        assert text.count("#step ") == 7

    def test_opposing_trace(self, tmp_path, capsys):
        out = tmp_path / "t.scenario"
        assert main(
            ["abstract", data("ex5_squeeze_trace.csv"), data("ex5_overlap.xodr"),
             "--out", str(out)]
        ) == OK
        assert "lonro(c1,c3,cover)." in out.read_text()

    def test_off_road_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("t,vehicle,x,y,heading,length\n0,c1,10,-50,0,4\n")
        assert main(["abstract", str(trace), data("ex1_straight.xodr")]) == INPUT
        assert "off-road" in capsys.readouterr().err

    @pytest.mark.parametrize("xy", ["73.200,1e308", "1e308,-6.0", "1e308,-1e308", "-1e308,-6.0"])
    def test_far_off_coordinate_is_off_road_without_warnings(self, xy, tmp_path, capsys):
        text = (DATA / "ex1_overtake_trace.csv").read_text()
        row = "5.4,c2,73.200,-6.0,0.0,4.5\n"
        assert text.count(row) == 1
        trace = tmp_path / "far.csv"
        trace.write_text(text.replace(row, f"5.4,c2,{xy},0.0,4.5\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["abstract", str(trace), data("ex1_straight.xodr")]) == INPUT
        assert capsys.readouterr().err == "error: trace row 110: vehicle c2 is off-road at t=5.4\n"

    def test_map_compiled_once(self, tmp_path, monkeypatch):
        builds = []
        init = abstraction.NetworkAbstraction.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(abstraction.NetworkAbstraction, "__init__", counting_init)
        out = tmp_path / "t.scenario"
        assert main(
            ["abstract", data("ex5_squeeze_trace.csv"), data("ex5_overlap.xodr"),
             "--out", str(out)]
        ) == OK
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "row,message",
        [
            ("0,C1,10,-6,0,4", "bad vehicle id"),
            ("0, ,10,-6,0,4", "bad vehicle id"),
            ("nan,c1,10,-6,0,4", "non-finite"),
            ("0,c1,10,-6,inf,4", "non-finite"),
            ("0,c1,10,-6,0,4,99,junk", "more fields than the header"),
            ("0,c1,10,-6,0,-4", "negative vehicle length"),
        ],
    )
    def test_bad_trace_row_is_input_error(self, row, message, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(f"t,vehicle,x,y,heading,length\n{row}\n")
        out = tmp_path / "t.scenario"
        assert main(["abstract", str(trace), data("ex1_straight.xodr"), "--out", str(out)]) == INPUT
        assert f"trace row 2: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unsupported_map_with_valid_trace(self, tmp_path, capsys):
        text = (DATA / "ex1_straight.xodr").read_text()
        start = text.index("<laneSection")
        end = text.index("</laneSection>") + len("</laneSection>")
        second = text[start:end].replace('s="0.0"', 's="50.0"', 1)
        two_sections = tmp_path / "two_sections.xodr"
        two_sections.write_text(text[:end] + second + text[end:])
        code = main(["abstract", data("ex1_overtake_trace.csv"), str(two_sections)])
        assert code == UNSUPPORTED
        message = capsys.readouterr().err
        assert "road 1: multiple lane sections are outside the supported subset (line " in message
        assert main(["ingest", str(two_sections)]) == UNSUPPORTED
        assert capsys.readouterr().err == message

    def test_bad_trace_header_with_valid_map(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("time,vehicle,x,y\n0,c1,10,-6\n")
        assert main(["abstract", str(trace), data("ex1_straight.xodr")]) == INPUT
        assert "trace header" in capsys.readouterr().err


class TestExport:
    def _single(self, tmp_path, req: str, net: str) -> pathlib.Path:
        result = tmp_path / "r.result"
        assert main(["generate", data(req), "--out", str(result)]) == OK
        first = result.read_text().split("#scenario ")[1]
        single = tmp_path / "one.scenario"
        single.write_text("#scenario " + first)
        return single

    def test_export_first_scenario_matches_golden(self, tmp_path, capsys):
        single = self._single(tmp_path, "ex2_crossing.req", "ex2_crossing.net")
        out = tmp_path / "one.osc"
        assert main(
            ["export", str(single), data("ex2_crossing.net"), "--out", str(out)]
        ) == OK
        assert out.read_text() == (DATA / "golden_ex2_first.osc").read_text()

    def test_export_with_coords_inlines_positions(self, tmp_path, capsys):
        net_out = tmp_path / "net.facts"
        coords = tmp_path / "net.coords"
        assert main(
            ["ingest", data("ex5_overlap.xodr"), "--out", str(net_out),
             "--coords-out", str(coords)]
        ) == OK
        trace_sc = tmp_path / "t.scenario"
        assert main(
            ["abstract", data("ex5_squeeze_trace.csv"), data("ex5_overlap.xodr"),
             "--out", str(trace_sc)]
        ) == OK
        out = tmp_path / "t.osc"
        assert main(
            ["export", str(trace_sc), str(net_out), "--coords", str(coords),
             "--out", str(out)]
        ) == OK
        assert "position_3d(x: 30.000000, y: -2.000000, z: 0.000000)" in out.read_text()

    def test_export_rejects_multi_scenario_files(self, tmp_path, capsys):
        result = tmp_path / "r.result"
        assert main(["generate", data("ex1_overtake.req"), "--out", str(result)]) == OK
        assert main(["export", str(result), data("ex1_overtake.net")]) == INPUT
        assert "exactly one scenario" in capsys.readouterr().err

    def test_export_invalid_scenario_is_semantic_failure(self, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        sc.write_text("#step 1\non(c1,l2).\n#step 2\non(c1,l1).\n")
        assert main(["export", str(sc), data("ex1_overtake.net")]) == SEMANTIC
        assert "PR7" in capsys.readouterr().err

    def test_outdir_config_places_osc(self, tmp_path, capsys):
        single = self._single(tmp_path, "ex2_crossing.req", "ex2_crossing.net")
        cfg = tmp_path / "t.cfg"
        outdir = tmp_path / "od"
        cfg.write_text(f"outdir={outdir}\n")
        capsys.readouterr()
        assert main(["--config", str(cfg), "export", str(single), data("ex2_crossing.net")]) == OK
        assert capsys.readouterr().out == ""
        assert (outdir / "one.osc").read_text() == (DATA / "golden_ex2_first.osc").read_text()

    def test_unknown_relation_value_is_input_error(self, tmp_path, capsys):
        sc = tmp_path / "bad.scenario"
        sc.write_text("#step 1\non(c1,l2).\nlonpr(c1,pz,sideways).\n")
        assert main(["export", str(sc), data("ex1_overtake.net")]) == INPUT
        assert "error: line 3: bad relation value 'sideways'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coords,message",
        [
            ("px nan 1e999 -inf\n", "coords line 1: non-finite coordinate"),
            ("px 1 2 3\npx 1 inf 3\n", "coords line 2: non-finite coordinate"),
            ("px 1 2 1e999\n", "coords line 1: non-finite coordinate"),
            ("px 1 abc 3\n", "coords line 1: non-numeric coordinate"),
            ("px 1 2\n", "coords line 1: expected 'point x y z'"),
        ],
    )
    def test_bad_coords_are_input_errors(self, coords, message, tmp_path, capsys):
        single = self._single(tmp_path, "ex2_crossing.req", "ex2_crossing.net")
        sidecar = tmp_path / "bad.coords"
        sidecar.write_text(coords)
        out = tmp_path / "one.osc"
        argv = ["export", str(single), data("ex2_crossing.net"), "--coords", str(sidecar)]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestConfig:
    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("workers\n")
        assert main(["--config", str(cfg), "check", "x", "y"]) == INPUT

    def test_seed_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=3\n")
        assert main(["--config", str(cfg), "generate", data("ex3_branching.req")]) == INPUT
        assert "unknown config key 'seed'" in capsys.readouterr().err

    def test_config_tolerances_reach_metadata(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("sampling_step=0.25\n")
        out = tmp_path / "net.facts"
        assert main(
            ["--config", str(cfg), "ingest", data("ex1_straight.xodr"), "--out", str(out)]
        ) == OK
        assert "% meta sampling_step=0.25" in out.read_text()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("sampling_step", "nan"),
            ("sampling_step", "inf"),
            ("sampling_step", "1e999"),
            ("sampling_step", "-inf"),
            ("sampling_step", "0"),
            ("min_overlap_length", "nan"),
            ("occupancy_halfwidth", "nan"),
            ("intersection_tolerance", "1e999"),
        ],
    )
    def test_tolerance_must_be_finite_and_positive(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "net.facts"
        assert main(
            ["--config", str(cfg), "ingest", data("ex1_straight.xodr"), "--out", str(out)]
        ) == INPUT
        assert f"error: {key} must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_names_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("sampling_step=0.5 # café\n".encode("latin-1"))
        assert main(["--config", str(cfg), "generate", data("ex1_overtake.req")]) == INPUT
        assert capsys.readouterr().err == f"error: {cfg}:1: not UTF-8 text (byte 0xe9)\n"

    def test_empty_outdir_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("outdir=\n")
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg), "ingest", data("ex1_straight.xodr")]) == INPUT
        assert "error: outdir must not be empty" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cfg"]


class TestTextEncoding:
    """Text inputs are UTF-8; maps are decoded by their own XML declaration."""

    LATIN1_CAFE = "% café\n".encode("latin-1")

    @pytest.mark.parametrize(
        "argv,victim",
        [
            (["generate", "{}"], "ex1_overtake.req"),
            (["check", "{}", data("ex1_overtake.net")], "ex1_overtake.req"),
            (["check", data("ex1_overtake.req"), "{}"], "ex1_overtake.net"),
            (["abstract", "{}", data("ex1_straight.xodr")], "ex1_overtake_trace.csv"),
            (["export", "{}", data("ex1_overtake.net")], "ex1_overtake.req"),
            (["--config", "{}", "generate", data("ex1_overtake.req")], None),
        ],
        ids=["request", "scenario", "network", "trace", "export", "config"],
    )
    def test_non_utf8_text_is_input_error(self, argv, victim, tmp_path, capsys):
        # the latin-1 byte sits on line 2, after one valid line of the file
        head = (DATA / victim).read_bytes().split(b"\n", 1)[0] + b"\n" if victim else b""
        path = tmp_path / "latin1.txt"
        path.write_bytes(head + self.LATIN1_CAFE)
        argv = [str(path) if a == "{}" else a for a in argv]
        assert main(argv) == INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if victim:
            assert err == f"error: {path}:2: not UTF-8 text (byte 0xe9)\n"

    def test_latin1_map_is_decoded_by_its_declaration(self, tmp_path, capsys):
        text = (DATA / "ex1_straight.xodr").read_text()
        assert 'encoding="UTF-8"' in text and 'name="main"' in text
        text = text.replace('encoding="UTF-8"', 'encoding="latin-1"', 1)
        latin1 = tmp_path / "latin1.xodr"
        latin1.write_bytes(text.replace('name="main"', 'name="rue café"', 1).encode("latin-1"))
        trace = data("ex1_overtake_trace.csv")
        for argv in (["ingest", "{}"], ["abstract", trace, "{}"]):
            assert main([data("ex1_straight.xodr") if a == "{}" else a for a in argv]) == OK
            expected = capsys.readouterr().out
            assert main([str(latin1) if a == "{}" else a for a in argv]) == OK
            captured = capsys.readouterr()
            assert captured.out == expected and captured.err == ""

"""Command-line front door: ingest, generate, check, abstract, export.

Exit-code contract (scriptable CI use):

* 0 - success
* 1 - semantic failure (rule violations / invalid scenario)
* 2 - input error (unreadable file, parse error, bad request, off-road trace)
* 3 - unsupported map feature (geometry or lane sections outside the documented subset)

All commands are deterministic given identical inputs and configuration.
Each ``cmd_*`` reads every input before it parses any, so that inputs with
several faults always report the same one, and raises its input errors;
`main` alone maps them to codes 2 and 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from trafficlogic import facts
from trafficlogic.abstraction import (
    AbstractionError,
    NetworkAbstraction,
    abstract_trace,
    read_trace_csv,
)
from trafficlogic.config import Config, load_config
from trafficlogic.opendrive import MapError, UnsupportedFeatureError, parse_opendrive
from trafficlogic.osc import emit_osc, parse_coords
from trafficlogic.reasoner import RequestError, expand, parse_request
from trafficlogic.rules import check_scenario, render_report

__all__ = [
    "cmd_ingest",
    "cmd_generate",
    "cmd_check",
    "cmd_abstract",
    "cmd_export",
    "main",
]

OK = 0
SEMANTIC_FAILURE = 1
INPUT_ERROR = 2
UNSUPPORTED = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")


def _default_out(cfg: Config, source: str, suffix: str, out: str | None) -> str | None:
    if out is not None:
        return out
    if cfg.outdir is not None:
        return str(Path(cfg.outdir) / (Path(source).stem + suffix))
    return None


def _parse_scenarios(net_text: str, sc_text: str):
    """The network and the scenarios of a scenario file checked against it."""
    net, declared = facts.parse_network(net_text)
    return net, facts.parse_scenarios(sc_text, net, declared)


def cmd_ingest(
    map_path: str,
    cfg: Config,
    out: str | None = None,
    coords_out: str | None = None,
) -> int:
    """Compile an OpenDRIVE file into network facts (+ optional coordinates).

    Raises the input errors `main` maps to exit codes 2 and 3.
    """
    abst = NetworkAbstraction(parse_opendrive(Path(map_path).read_bytes()), cfg)
    _emit(abst.facts_text(), _default_out(cfg, map_path, ".facts", out))
    coords_out = _default_out(cfg, map_path, ".coords", coords_out)
    if coords_out is not None:
        _emit(abst.coords_text(), coords_out)
    return OK


def cmd_generate(
    request_path: str,
    cfg: Config,
    out: str | None = None,
    mode: str | None = None,
    horizon: int | None = None,
    dot: str | None = None,
) -> int:
    """Enumerate all rule-satisfying scenarios for an expansion request.

    Raises the input errors `main` maps to exit code 2.
    """
    req = parse_request(facts.read_utf8(request_path))
    if mode is not None:
        req = dataclasses.replace(req, mode=mode)
    if horizon is not None:
        req = dataclasses.replace(req, horizon=horizon)
    result = expand(req)
    _emit(facts.render_result(result.scenarios, result.texts), _default_out(cfg, request_path, ".result", out))
    stats = result.stats
    tstar = "-" if result.shortest_length is None else str(result.shortest_length)
    print(
        f"scenarios: {len(result.scenarios)} (mode={req.mode}, T*={tstar}, "
        f"nodes={stats.nodes}, pruned={stats.pruned}, wall={stats.wall_time_s:.3f}s)",
        file=sys.stderr,
    )
    if dot is not None:
        _emit(_timeline_dot(result.scenarios), dot)
    return OK


def cmd_check(scenario_path: str, network_path: str) -> int:
    """Check every scenario in a file against the rule catalog; 1 when any breaks a rule.

    Raises the input errors `main` maps to exit code 2.
    """
    net_text, sc_text = facts.read_utf8(network_path), facts.read_utf8(scenario_path)
    _, scenarios = _parse_scenarios(net_text, sc_text)
    failed = False
    verdicts: dict = {}
    for i, sc in enumerate(scenarios, start=1):
        violations = check_scenario(sc, verdicts)
        if violations:
            failed = True
            prefix = f"scenario {i}: " if len(scenarios) > 1 else ""
            for line in render_report(violations).splitlines():
                print(prefix + line)
    return SEMANTIC_FAILURE if failed else OK


def cmd_abstract(
    trace_path: str,
    map_path: str,
    cfg: Config,
    out: str | None = None,
) -> int:
    """Abstract a concrete trace CSV on a map into a scenario fact file.

    Raises the input errors `main` maps to exit codes 2 and 3.
    """
    # a map is read as bytes: its XML declaration names its encoding
    trace_text, map_data = facts.read_utf8(trace_path), Path(map_path).read_bytes()
    model = parse_opendrive(map_data)
    scenario = abstract_trace(read_trace_csv(trace_text), None, model, cfg)
    _emit(facts.render_scenario(scenario), _default_out(cfg, trace_path, ".scenario", out))
    return OK


def cmd_export(
    scenario_path: str,
    network_path: str,
    cfg: Config,
    coords_path: str | None = None,
    out: str | None = None,
) -> int:
    """Render one scenario as OpenSCENARIO DSL text; 1 when it cannot be rendered.

    Raises the input errors `main` maps to exit code 2.
    """
    net_text, sc_text = facts.read_utf8(network_path), facts.read_utf8(scenario_path)
    coords_text = facts.read_utf8(coords_path) if coords_path is not None else None
    net, scenarios = _parse_scenarios(net_text, sc_text)
    coords = parse_coords(coords_text) if coords_text is not None else None
    if len(scenarios) != 1:
        raise facts.ParseError(f"export expects exactly one scenario, found {len(scenarios)}")
    try:
        doc = emit_osc(scenarios[0], net, coords)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return SEMANTIC_FAILURE
    _emit(doc.text, _default_out(cfg, scenario_path, ".osc", out))
    return OK


def _timeline_dot(scenarios) -> str:
    """A small graphviz timeline of the generated scenarios (documentation aid)."""
    lines = ["digraph scenarios {", "    rankdir=LR;", "    node [shape=box];"]
    for i, sc in enumerate(scenarios, start=1):
        prev = None
        for k, scene in enumerate(sc.scenes, start=1):
            occ = "\\n".join(
                f"{c}: {','.join(sorted(scene.occ_of(c)))}" for c in sorted(sc.vehicles)
            )
            node = f"s{i}_{k}"
            lines.append(f'    {node} [label="#{i} step {k}\\n{occ}"];')
            if prev is not None:
                lines.append(f"    {prev} -> {node};")
            prev = node
    lines.append("}")
    return "\n".join(lines) + "\n"


@functools.cache  # parsing leaves the parser as it was, so one serves every `main` call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficlogic",
        description="Qualitative traffic-scenario toolkit: map ingestion, "
        "scenario generation, rule checking, and OSC export.",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="compile an OpenDRIVE map into network facts")
    p.add_argument("map", help="OpenDRIVE .xodr file")
    p.add_argument("--out", help="output fact file (default: stdout)")
    p.add_argument("--coords-out", help="write point coordinates sidecar")

    p = sub.add_parser("generate", help="enumerate scenarios for a request file")
    p.add_argument("request", help="expansion request file")
    p.add_argument("--out", help="output result file (default: stdout)")
    p.add_argument("--mode", choices=("exact", "shortest"), help="override request mode")
    p.add_argument("--horizon", type=int, help="override request horizon")
    p.add_argument("--dot", help="write a graphviz timeline of the results")

    p = sub.add_parser("check", help="check scenarios against the rule catalog")
    p.add_argument("scenario", help="scenario fact file")
    p.add_argument("network", help="network fact file")

    p = sub.add_parser("abstract", help="abstract a concrete trace into a scenario")
    p.add_argument("trace", help="trace CSV (t,vehicle,x,y,heading,length)")
    p.add_argument("map", help="OpenDRIVE .xodr file")
    p.add_argument("--out", help="output scenario file (default: stdout)")

    p = sub.add_parser("export", help="render a scenario as OpenSCENARIO DSL")
    p.add_argument("scenario", help="scenario fact file (exactly one scenario)")
    p.add_argument("network", help="network fact file")
    p.add_argument("--coords", help="point coordinates sidecar from ingest")
    p.add_argument("--out", help="output .osc file (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else Config()
    except (OSError, ValueError) as exc:
        return _fail(str(exc), INPUT_ERROR)
    try:
        if args.command == "ingest":
            return cmd_ingest(args.map, cfg, args.out, args.coords_out)
        if args.command == "generate":
            return cmd_generate(args.request, cfg, args.out, args.mode, args.horizon, args.dot)
        if args.command == "check":
            return cmd_check(args.scenario, args.network)
        if args.command == "abstract":
            return cmd_abstract(args.trace, args.map, cfg, args.out)
        if args.command == "export":
            return cmd_export(args.scenario, args.network, cfg, args.coords, args.out)
    except UnsupportedFeatureError as exc:
        return _fail(str(exc), UNSUPPORTED)
    except (OSError, facts.ParseError, RequestError, MapError, AbstractionError) as exc:
        # unreadable inputs, unwritable outputs and malformed or unusable input text
        return _fail(str(exc), INPUT_ERROR)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

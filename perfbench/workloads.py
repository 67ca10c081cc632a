"""Seeded inputs, op lists and per-op correctness checks for the four workloads.

Every workload is built by ``build(name, seed, workdir, data_dir)``: it writes
its generated inputs (requests, network facts, mutated result files, trace
CSVs, maps, config files) into ``workdir``, validates each of them, and
returns the fixed list of ops one pass runs.  An op is one ``cli.main``
argument vector; the program sees nothing but those file paths.

The seed changes the inputs, never their size: each workload keeps the same
shape of work for every seed, so a pass costs about the same whatever the
seed, and a change in ``pass_s`` between two commits is the program's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from trafficlogic import cli, facts, rules
from trafficlogic.opendrive import parse_opendrive
from trafficlogic.reasoner import parse_request

WHY = {
    "generate-dense": "few distinct states but thousands of candidate scenes per state: "
    "successor generation and the rule checker as its filter do nearly all the work",
    "generate-chain": "road chains in shortest mode: path visits outnumber distinct states "
    "by orders of magnitude and candidates are few, so the search dominates",
    "check-roundtrip": "generate, check and export of mostly valid scenarios: full rule "
    "verdicts, and fact parse and render dominate",
    "ingest-abstract": "map ingest and trace abstraction: the only workload in opendrive, "
    "geometry and abstraction; cost grows with lane pairs times vertices",
}

NAMES = tuple(WHY)

#: A run makes at least this many passes; the op_tail_ms percentile is fixed
#: from it, so runs that fit a different number of passes stay comparable.
MIN_PASSES = {
    "generate-dense": 6,
    "generate-chain": 6,
    "check-roundtrip": 6,
    "ingest-abstract": 5,
}


@dataclass
class Op:
    """One CLI-equivalent call and what makes its result correct."""

    name: str
    argv: list[str]
    expect: int = 0
    #: files the op writes; their bytes (and the op's stdout) are its output
    outputs: tuple[str, ...] = ()
    #: independent check of the output, run once per run outside the timed
    #: region; returns a failure message or None
    check: Optional[Callable[["OpResult"], Optional[str]]] = None
    #: the output does not depend on the seed (digest checked at every seed)
    fixed: bool = False


@dataclass
class OpResult:
    op: Op
    code: Optional[int]
    stdout: str
    seconds: float
    error: Optional[str] = None

    def output_bytes(self) -> list[bytes]:
        return [Path(p).read_bytes() for p in self.op.outputs] + [self.stdout.encode()]


@dataclass
class Workload:
    name: str
    why: str
    ops: list[Op]
    #: untimed op run once at set-up, before any pass (None: the builder
    #: already ran one to make its inputs)
    warmup: Optional[Op]
    notes: dict = field(default_factory=dict)


class InputError(Exception):
    """A generated input failed validation at set-up."""


def run_op(op: Op) -> OpResult:
    """Run one op in-process and capture its stdout; never raises."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the argument vector
        return OpResult(op, None, out.getvalue(), perf_counter() - t0, f"exit {exc.code}: {err.getvalue()}")
    except Exception as exc:  # noqa: BLE001 - any exception is a failed op
        return OpResult(op, None, out.getvalue(), perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    return OpResult(op, code, out.getvalue(), perf_counter() - t0)


# -- shared checks -------------------------------------------------------------


def _scenarios_of(result_path: str, net_path: str):
    net, declared = facts.parse_network(Path(net_path).read_text())
    return facts.parse_scenarios(Path(result_path).read_text(), net, declared)


def _all_valid(scenarios) -> Optional[str]:
    for i, sc in enumerate(scenarios, start=1):
        bad = rules.check_scenario(sc)
        if bad:
            return f"scenario {i} violates {bad[0].render()}"
    return None


def check_generated(net_path: str, count: Optional[int] = None, horizon: Optional[int] = None,
                    final_on: Optional[tuple[str, str]] = None):
    """Every scenario of a result file passes ``rules.check_scenario``."""

    def check(res: OpResult) -> Optional[str]:
        scenarios = _scenarios_of(res.op.outputs[0], net_path)
        if not scenarios:
            return "no scenarios"
        if count is not None and len(scenarios) != count:
            return f"{len(scenarios)} scenarios, expected {count}"
        for sc in scenarios:
            if horizon is not None and sc.horizon != horizon:
                return f"horizon {sc.horizon}, expected {horizon}"
            if final_on is not None and final_on[1] not in sc.scenes[-1].occ_of(final_on[0]):
                return f"final scene lacks on{final_on}"
        return _all_valid(scenarios)

    return check


def check_report(indices: frozenset[int]):
    """A check op reports violations in exactly the given scenarios."""

    def check(res: OpResult) -> Optional[str]:
        seen = {int(m.group(1)) for m in re.finditer(r"^scenario (\d+):", res.stdout, re.M)}
        if not indices and res.stdout:
            return "unexpected violation report"
        if seen != set(indices):
            return f"violations reported in {sorted(seen)}, expected {sorted(indices)}"
        return None

    return check


def check_equal(golden: Path):
    def check(res: OpResult) -> Optional[str]:
        if Path(res.op.outputs[0]).read_bytes() != golden.read_bytes():
            return f"differs from {golden.name}"
        return None

    return check


def check_network(lanes: Optional[int] = None, crossings: Optional[int] = None):
    """The ingested facts parse; optionally with known lane and crossing counts."""

    def check(res: OpResult) -> Optional[str]:
        net, _ = facts.parse_network(Path(res.op.outputs[0]).read_text())
        if lanes is not None and len(net.lanes) != lanes:
            return f"{len(net.lanes)} lanes, expected {lanes}"
        xs = sum(1 for p in net.points if p.startswith("px"))
        if crossings is not None and xs != crossings:
            return f"{xs} crossing points, expected {crossings}"
        return None

    return check


def check_scenario_file(res: OpResult) -> Optional[str]:
    text = Path(res.op.outputs[0]).read_text()
    if "#step 1" not in text:
        return "no #step blocks"
    return None


# -- request generators --------------------------------------------------------


def _road_facts(lanes: int) -> list[str]:
    ids = [f"l{i}" for i in range(1, lanes + 1)]
    return [f"lane({l}, ra)." for l in ids] + [f"left({a}, {b})." for a, b in zip(ids, ids[1:])]


def dense_request(lane_of: list[int], order: list[int], lanes: int, horizon: int) -> str:
    """Vehicle c_i on lane ``lane_of[i-1]``; ``order`` lists vehicle indices rear to front."""
    rank = {v: r for r, v in enumerate(order)}
    k = len(lane_of)
    lines = _road_facts(lanes) + ["#init"]
    lines += [f"on(c{i + 1}, l{lane_of[i]})." for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rel = "behind" if rank[i] < rank[j] else "ahead"
            lines.append(f"lonr(c{i + 1}, c{j + 1}, {rel}).")
    lines += [f"#horizon {horizon}", "#mode exact"]
    return "\n".join(lines) + "\n"


#: (vehicles, lanes, horizon, lanes of the vehicles from rear to front).
#: The seed mirrors the lanes and picks which vehicle takes which place, so
#: every seed gives an isomorphic request of the same cost.
DENSE_SLOTS = (
    (3, 2, 2, (1, 2, 2)),
    (3, 2, 3, (1, 2, 1)),
    (3, 2, 3, (2, 1, 1)),
    (3, 3, 2, (1, 2, 3)),
    (3, 3, 3, (1, 2, 3)),
    (3, 3, 3, (1, 3, 3)),
    (4, 2, 2, (1, 2, 1, 2)),
    (4, 2, 2, (1, 1, 1, 2)),
    (4, 3, 2, (1, 2, 2, 3)),
    (4, 3, 2, (1, 1, 2, 3)),
)


def chain_request(n: int, rnd: Optional[random.Random] = None) -> tuple[str, str, str]:
    """n single-lane roads joined end to end; returns (request, network, last lane).

    Without ``rnd``, lane i is ``li`` and connection i is ``pci``.  With it,
    lane, road and point names are a seeded permutation and the network facts
    are shuffled, so the chain order is not the order of the names.
    """
    def ids(prefix: str, count: int) -> list[str]:
        nums = rnd.sample(range(1, count + 1), count) if rnd else range(1, count + 1)
        return [f"{prefix}{x}" for x in nums]

    lane, road, pc = ids("l", n), ids("r", n), ids("pc", n - 1)
    net = [f"lane({lane[i]}, {road[i]})." for i in range(n)]
    for i in range(n - 1):
        net += [f"class({pc[i]}, c).", f"pon({pc[i]}, {lane[i]}).",
                f"pon({pc[i]}, {lane[i + 1]}).", f"succl({pc[i]}, {lane[i + 1]})."]
    for i in range(1, n - 1):
        net.append(f"succp({lane[i]}, {pc[i - 1]}, {pc[i]}).")
    if rnd:
        rnd.shuffle(net)
    req = net + ["#init", f"on(c1, {lane[0]}).", f"lonpr(c1, {pc[0]}, behind).",
                 f"#horizon {2 * n + 4}", "#mode shortest", f"#goal on(c1, {lane[-1]})"]
    return "\n".join(req) + "\n", "\n".join(net) + "\n", lane[-1]


def reference_dense(vehicles: int, lanes: int, horizon: int) -> str:
    """Vehicle c_i on lane 1 + (i-1) mod m, c_i behind c_j for i < j."""
    return dense_request([1 + i % lanes for i in range(vehicles)], list(range(vehicles)),
                         lanes, horizon)


def _validate_request(text: str, where: str) -> None:
    req = parse_request(text)
    bad = rules.check_scene(req.initial, req.network)
    if bad:
        raise InputError(f"{where}: initial scene violates {bad[0].render()}")


# -- maps and traces -------------------------------------------------------------

_ROAD = """  <road name="{name}" length="{length:.3f}" id="{rid}" junction="-1">
    <planView>
      <geometry s="0.0" x="{x:.3f}" y="{y:.3f}" hdg="{hdg:.6f}" length="{length:.3f}">
        <line/>
      </geometry>
    </planView>
    <lanes>
      <laneSection s="0.0">
        <left>
          <lane id="1" type="driving" level="false">
            <width sOffset="0.0" a="{width:.3f}" b="0.0" c="0.0" d="0.0"/>
          </lane>
        </left>
        <center>
          <lane id="0" type="none" level="false"/>
        </center>
        <right>
          <lane id="-1" type="driving" level="false">
            <width sOffset="0.0" a="{width:.3f}" b="0.0" c="0.0" d="0.0"/>
          </lane>
        </right>
      </laneSection>
    </lanes>
  </road>
"""

GRID_N = 3
GRID_LENGTH = 90.0


def grid_xodr(n: int, rnd: random.Random) -> str:
    """n horizontal and n vertical straight two-way roads, no junctions.

    Every road is ``GRID_LENGTH`` long, so the vertex count is the same for
    every seed; the seed moves the roads (spacing 18-26 m) and their starts.
    """
    def offsets() -> list[float]:
        pos, out = 0.0, []
        for _ in range(n):
            out.append(pos)
            pos += rnd.uniform(18.0, 26.0)
        return out

    ys, xs = offsets(), offsets()
    span = GRID_LENGTH - max(max(xs), max(ys)) - 20.0
    roads = []
    rid = 0
    for y in ys:
        rid += 1
        roads.append(_ROAD.format(name=f"h{rid}", rid=rid, x=-10.0 - rnd.uniform(0.0, span),
                                  y=y, hdg=0.0, length=GRID_LENGTH, width=rnd.uniform(3.25, 3.75)))
    for x in xs:
        rid += 1
        roads.append(_ROAD.format(name=f"v{rid}", rid=rid, x=x, y=-10.0 - rnd.uniform(0.0, span),
                                  hdg=math.pi / 2, length=GRID_LENGTH, width=rnd.uniform(3.25, 3.75)))
    return ('<?xml version="1.0" encoding="UTF-8"?>\n<OpenDRIVE>\n'
            f'  <header revMajor="1" revMinor="6" name="{n}x{n} crossing grid" />\n'
            + "".join(roads) + "</OpenDRIVE>\n")


def _validate_map(text: str, roads: int) -> None:
    model = parse_opendrive(text)
    if len(model.roads) != roads or model.junctions:
        raise InputError("grid map: unexpected road or junction count")
    for road in model.roads.values():
        if len(road.sections) != 1 or any(g.kind != "line" for g in road.ref_line):
            raise InputError(f"grid map: road {road.id} outside the supported subset")


def overtake_trace(rnd: random.Random, dt: float = 0.05, duration: float = 10.0) -> str:
    """c1 overtakes the slower c2 on ex1_straight.xodr: out to the left lane and back.

    Cars are 4.5 m long; lane centres are y = -6 (right) and y = -2 (left).
    The seed picks starts, speeds and when each lane change begins, inside
    gaps that keep both cars on the 100 m road and never touching.
    """
    length, change = 4.5, 1.5
    while True:
        x2 = rnd.uniform(28.0, 36.0)
        x1 = x2 - rnd.uniform(11.0, 15.0)
        v2 = rnd.uniform(1.5, 2.2)
        v1 = v2 + rnd.uniform(3.4, 4.0)
        t_out = rnd.uniform(0.2, 0.8)
        t_back_min = (x2 - x1 + length + 2.0) / (v1 - v2)  # c1's rear 2 m past c2's front
        t_back = t_back_min + rnd.uniform(0.0, 0.4)
        # c1's front stays 1.5 m behind c2's rear until it is in the left lane
        gap = (x2 - x1) - (v1 - v2) * (t_out + change) - length
        if gap < 1.5 or t_back + change > duration - 0.2:
            continue
        if x1 + v1 * duration > 100.0 - length:
            continue
        break
    rows = ["t,vehicle,x,y,heading,length"]
    steps = int(round(duration / dt))
    for k in range(steps + 1):
        t = k * dt
        if t <= t_out:
            y1 = -6.0
        elif t <= t_out + change:
            y1 = -6.0 + 4.0 * (t - t_out) / change
        elif t <= t_back:
            y1 = -2.0
        elif t <= t_back + change:
            y1 = -2.0 - 4.0 * (t - t_back) / change
        else:
            y1 = -6.0
        rows.append(f"{t:.2f},c2,{x2 + v2 * t:.3f},-6.000,0.0,{length}")
        rows.append(f"{t:.2f},c1,{x1 + v1 * t:.3f},{y1:.3f},0.0,{length}")
    return "\n".join(rows) + "\n"


def _validate_trace(text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows or any(not 2.25 <= float(r["x"]) <= 97.75 for r in rows):
        raise InputError("synthetic trace leaves the road")


# -- the four workloads --------------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _generate_op(name: str, req: str, out: str, net: str, fixed: bool = False, **expect) -> Op:
    return Op(name, ["generate", req, "--out", out], 0, (out,), check_generated(net, **expect), fixed)


def build_dense(seed: int, work: Path, data: Path) -> Workload:
    rnd = random.Random(seed)
    ops = []
    for i, (k, m, h, lanes) in enumerate(DENSE_SLOTS, start=1):
        if rnd.random() < 0.5:
            lanes = tuple(m + 1 - lane for lane in lanes)
        order = rnd.sample(range(k), k)  # order[r] = vehicle at rank r from the rear
        lane_of = [0] * k
        for r, v in enumerate(order):
            lane_of[v] = lanes[r]
        text = dense_request(lane_of, order, m, h)
        _validate_request(text, f"dense request {i}")
        name = f"dense{i:02d}-k{k}m{m}h{h}"
        req = _write(work / f"{name}.req", text)
        net = _write(work / f"{name}.net", "\n".join(_road_facts(m)) + "\n")
        ops.append(_generate_op(f"generate:{name}", req, str(work / f"{name}.result"), net))
    warm = ops[0]  # the smallest request
    rnd.shuffle(ops)
    return Workload("generate-dense", WHY["generate-dense"], ops, warm)


CHAIN_LENGTHS = tuple(range(8, 22))


def build_chain(seed: int, work: Path, data: Path) -> Workload:
    rnd = random.Random(seed)
    ops = []
    for n in CHAIN_LENGTHS:
        text, net_text, last = chain_request(n, rnd)
        _validate_request(text, f"chain n={n}")
        name = f"chain{n:02d}"
        req = _write(work / f"{name}.req", text)
        net = _write(work / f"{name}.net", net_text)
        ops.append(_generate_op(f"generate:{name}", req, str(work / f"{name}.result"), net,
                                count=1, horizon=n + 1, final_on=("c1", last)))
    rnd.shuffle(ops)
    warm = min(ops, key=lambda op: op.name)  # the shortest chain
    return Workload("generate-chain", WHY["generate-chain"], ops, warm)


FIXTURES = ("ex1_overtake", "ex2_crossing", "ex3_branching", "ex4_two_crossings", "ex5_opposing_pass")
EXPORTED = ("ex1", "ex2", "ex5")
MUTATIONS = 16
#: 2 vehicles, 2 lanes, exact mode: 1,136 scenarios, 0.45 MB of output
WIDE_HORIZON = 5
WIDE_SCENARIOS = 1136
_REL_VALUES = ("ahead", "cover", "behind")


def _split_result(text: str) -> list[str]:
    """Blocks of a result file, each starting with its ``#scenario`` line."""
    parts = text.split("#scenario ")
    return ["#scenario " + p for p in parts[1:]]


def _mutate(block: str, rnd: random.Random, net, declared) -> Optional[str]:
    """Change one ``lonr`` value so the scenario breaks a rule, or None."""
    lines = block.split("\n")
    cands = [i for i, line in enumerate(lines) if line.startswith("lonr(")]
    rnd.shuffle(cands)
    for i in cands:
        head, value = lines[i][:-2].rsplit(",", 1)
        for new in rnd.sample([v for v in _REL_VALUES if v != value], 2):
            trial = lines[:i] + [f"{head},{new})."] + lines[i + 1:]
            text = "\n".join(trial)
            (sc,) = facts.parse_scenarios(text, net, declared)
            if rules.check_scenario(sc):
                return text
    return None


def build_roundtrip(seed: int, work: Path, data: Path) -> Workload:
    rnd = random.Random(seed)
    wide_req = _write(work / "wide.req", reference_dense(2, 2, WIDE_HORIZON))
    wide_net = _write(work / "wide.net", "\n".join(_road_facts(2)) + "\n")
    wide_out = str(work / "wide.result")
    gen_wide = _generate_op("generate:wide", wide_req, wide_out, wide_net, fixed=True,
                            count=WIDE_SCENARIOS)

    # the mutated copy is made from the warm-up's output, before any pass
    warm = run_op(gen_wide)
    if warm.code != 0:
        raise InputError(f"wide request failed at set-up: {warm.error or warm.code}")
    blocks = _split_result(Path(wide_out).read_text())
    net, declared = facts.parse_network(Path(wide_net).read_text())
    picked: set[int] = set()
    for idx in rnd.sample(range(len(blocks)), len(blocks)):
        if len(picked) == MUTATIONS:
            break
        body = blocks[idx].rstrip("\n")
        mutated = _mutate(body, rnd, net, declared)
        if mutated is not None:
            blocks[idx] = mutated + "\n"
            picked.add(idx + 1)
    if len(picked) != MUTATIONS:
        raise InputError("could not place every mutation")
    mutated_path = _write(work / "wide_mutated.result", "".join(blocks))

    ops = [
        gen_wide,
        Op("check:wide", ["check", wide_out, wide_net], 0, (), check_report(frozenset()), True),
        Op("check:wide-mutated", ["check", mutated_path, wide_net], 1, (),
           check_report(frozenset(picked))),
    ]
    firsts = {}
    for fx in FIXTURES:
        req, netf = str(data / f"{fx}.req"), str(data / f"{fx}.net")
        out = str(work / f"{fx}.result")
        ops.append(_generate_op(f"generate:{fx}", req, out, netf, fixed=True))
        ops.append(Op(f"check:{fx}", ["check", out, netf], 0, (), check_report(frozenset()), True))
        firsts[fx.split("_")[0]] = (req, netf)
    for ex in EXPORTED:
        req, netf = firsts[ex]
        first = str(work / f"{ex}_first.scenario")
        res = run_op(Op("prepare", ["generate", req, "--out", first]))
        if res.code != 0:
            raise InputError(f"fixture {ex} failed at set-up")
        Path(first).write_text(_split_result(Path(first).read_text())[0])
        out = str(work / f"{ex}_first.osc")
        ops.append(Op(f"export:{ex}", ["export", first, netf, "--out", out], 0, (out,),
                      check_equal(data / f"golden_{ex}_first.osc"), True))
    return Workload("check-roundtrip", WHY["check-roundtrip"], ops, None,
                    {"mutated_scenarios": sorted(picked)})


TEE_STEPS = ("0.5", "0.2", "0.1")


def build_ingest(seed: int, work: Path, data: Path) -> Workload:
    rnd = random.Random(seed)
    ops = []
    tee = str(data / "tee_junction.xodr")
    for step in TEE_STEPS:
        cfg = _write(work / f"step{step}.cfg", f"sampling_step={step}\n")
        out = str(work / f"tee_{step}.facts")
        ops.append(Op(f"ingest:tee-{step}", ["--config", cfg, "ingest", tee, "--out", out],
                      0, (out,), check_network(lanes=12), True))
    grid_text = grid_xodr(GRID_N, rnd)
    _validate_map(grid_text, 2 * GRID_N)
    grid = _write(work / "grid.xodr", grid_text)
    out = str(work / "grid.facts")
    ops.append(Op("ingest:grid", ["ingest", grid, "--out", out], 0, (out,),
                  check_network(lanes=4 * GRID_N, crossings=4 * GRID_N * GRID_N)))

    trace_text = overtake_trace(rnd)
    _validate_trace(trace_text)
    synthetic = _write(work / "overtake_trace.csv", trace_text)
    straight, overlap = str(data / "ex1_straight.xodr"), str(data / "ex5_overlap.xodr")
    traces = (
        ("ex1", str(data / "ex1_overtake_trace.csv"), straight, True),
        ("ex5", str(data / "ex5_squeeze_trace.csv"), overlap, True),
        ("synthetic", synthetic, straight, False),
    )
    nets = {}
    for name, xodr in (("straight", straight), ("overlap", overlap)):
        out = str(work / f"{name}.facts")
        ops.append(Op(f"ingest:{name}", ["ingest", xodr, "--out", out], 0, (out,),
                      check_network(), True))
        nets[xodr] = out
    for name, trace, xodr, fixed in traces:
        out = str(work / f"{name}.scenario")
        ops.append(Op(f"abstract:{name}", ["abstract", trace, xodr, "--out", out], 0, (out,),
                      check_scenario_file, fixed))
        ops.append(Op(f"check:{name}", ["check", out, nets[xodr]], 0, (),
                      check_report(frozenset()), fixed))
    return Workload("ingest-abstract", WHY["ingest-abstract"], ops, ops[0])


BUILDERS = {
    "generate-dense": build_dense,
    "generate-chain": build_chain,
    "check-roundtrip": build_roundtrip,
    "ingest-abstract": build_ingest,
}


def build(name: str, seed: int, work: Path, data: Path) -> Workload:
    return BUILDERS[name](seed, work, data)

"""Benchmark for trafficlogic's generate, check, ingest and abstract commands.

Run from the repository root:

    python3 perfbench/run.py --workload generate-dense --seed 1 --seconds 20 --trace 0

The program is driven in-process through ``cli.main([...])`` on inputs
generated from the seed (see ``workloads.py``), one op after another, one
client, ``workers=1``.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller report,
with the spans of the first traced pass, is written under ``.perfbench_out/``.

``--corrupt`` damages one output of the second pass, to show that the
correctness gate catches it (``failed`` > 0).  ``--record-digests`` stores
the output digests of a default-seed run in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
#: pass_cal is a pass's wall time in units of CAL_UNIT calibration iterations.
#: The loop is timed in slices of CAL_SLICE iterations before the first op and
#: after every op, each lengthened by CAL_SHARE of the op it follows.
CAL_UNIT = 60_000
CAL_SLICE = 12_000
CAL_SHARE = 0.06

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_cal": "ratio",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true", help="damage one output (self-test)")
    p.add_argument("--record-digests", action="store_true")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import trafficlogic from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "trafficlogic" / "__init__.py").is_file() or not DATA.is_dir():
        raise SystemExit(f"error: no trafficlogic sources under {SRC} (or no {DATA})")
    sys.path.insert(0, str(SRC))
    import trafficlogic

    if Path(trafficlogic.__file__).resolve().parent != SRC / "trafficlogic":
        raise SystemExit(f"error: trafficlogic imported from {trafficlogic.__file__}")


def calibrate(iterations: int) -> float:
    """A fixed pure-Python loop; its time tracks the machine's current speed.

    Its memory stays bounded whatever ``iterations`` is, so it does not show
    in ``peak_rss_mb``.
    """
    t0 = perf_counter()
    table: dict[int, tuple[int, str]] = {}
    for i in range(iterations):
        key = (i * 7919) % 997
        table[key] = (i, str(i))
    sorted(table.values())
    return perf_counter() - t0


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _digest(res) -> str:
    h = hashlib.sha256()
    for blob in res.output_bytes():
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


class Gate:
    """Per-op correctness: exit code, independent check, output digests.

    The first result of each op gets the independent check and, where the
    digest file has one, the recorded digest; later results of the same op
    must reproduce the first one's digest byte for byte.
    """

    def __init__(self, workload: str, seed: int) -> None:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.recorded = recorded.get("workloads", {}).get(workload, {})
        self.same_seed = recorded.get("seed") == seed
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def verify(self, results, label: str) -> None:
        for res in results:
            self.attempted += 1
            msg = self._verify(res)
            if msg is not None:
                self.failed += 1
                self.failures.append(f"{label} {res.op.name}: {msg}")

    def _verify(self, res):
        if res.error is not None:
            return res.error
        if res.code != res.op.expect:
            return f"exit code {res.code}, expected {res.op.expect}"
        try:
            digest = _digest(res)
        except OSError as exc:
            return f"output missing: {exc}"
        name = res.op.name
        if name in self.first:
            return None if digest == self.first[name] else "output differs from the first pass"
        self.first[name] = digest
        if res.op.check is not None:
            try:
                msg = res.op.check(res)
            except Exception as exc:  # noqa: BLE001 - a check that cannot parse the output fails it
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg is not None:
                return msg
        want = self.recorded.get(name)
        if want is not None and (res.op.fixed or self.same_seed) and want != digest:
            return "digest differs from the recorded one"
        return None


def _run_pass(ops, rec=None, pass_id: str = "", cal: list | None = None):
    """Run every op once, back to back; with a recorder, each op is a root span.

    With ``cal``, calibration slices are timed before the first op and after
    every op, and (iterations, seconds) pairs are appended to it; the returned
    wall time leaves them out.  A slice after a long op is longer, so the
    slices sample the machine's speed where the pass spends its time.  This
    tracks speed changes during the pass far better than one loop before and
    one after it.
    """
    from workloads import run_op

    def calibrate_after(seconds: float) -> None:
        n = CAL_SLICE
        if cal:
            n += round(CAL_SHARE * seconds * cal[-1][0] / cal[-1][1])
        cal.append((n, calibrate(n)))

    results = []
    t0 = perf_counter()
    if cal is not None:
        calibrate_after(0.0)
    for i, op in enumerate(ops):
        if rec is None:
            results.append(run_op(op))
        else:
            rec.op = f"{pass_id}:{i}"
            idx = rec.enter(tracer.ROOT)
            try:
                results.append(run_op(op))
            finally:
                rec.exit(idx)
        if cal is not None:
            calibrate_after(results[-1].seconds)
    return results, perf_counter() - t0 - sum(t for _, t in cal or ())


def _corrupt(res) -> None:
    if res.op.outputs:
        with open(res.op.outputs[0], "a", encoding="utf-8") as fh:
            fh.write("% corrupted\n")
    else:
        res.stdout += "corrupted\n"


def _tail(latencies: list[float], ops_per_pass: int, min_passes: int) -> tuple[float, int]:
    """Latency at the highest percentile that leaves TAIL_BEYOND samples above
    it in a run of ``min_passes`` passes; the level is the same in every run."""
    s_min = ops_per_pass * min_passes
    level = math.floor(100 * (s_min - TAIL_BEYOND) / s_min)
    xs = sorted(latencies)
    rank = max(1, math.ceil(level / 100 * len(xs)))
    return xs[rank - 1], level


def _setup_sample(args) -> float:
    """Wall time from a fresh interpreter to ready, in a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed (exit {proc.returncode})")
    return elapsed


def _setup(args, work: Path):
    """Build the workload's inputs and run its untimed warm-up op."""
    import workloads

    wl = workloads.build(args.workload, args.seed, work, DATA)
    if wl.warmup is not None:
        res = workloads.run_op(wl.warmup)
        if res.code != wl.warmup.expect:
            raise workloads.InputError(f"warm-up op {wl.warmup.name} failed: {res.error or res.code}")
    return wl


def _env() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def _write_report(args, report: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    return path


def _end_to_end(wl, setups, passes, cal_ratios, latencies) -> dict:
    """Every end-to-end figure, printed with its samples' median and quartiles."""
    import workloads

    tail, level = _tail(latencies, len(wl.ops), workloads.MIN_PASSES[wl.name])
    lat_ms = [x * 1000 for x in latencies]
    values = {
        "setup_s": (statistics.median(setups), setups),
        "pass_s": (statistics.median(passes), passes),
        "pass_cal": (statistics.median(cal_ratios), cal_ratios),
        "op_p50_ms": (statistics.median(lat_ms), lat_ms),
        "op_tail_ms": (tail * 1000, lat_ms),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None),
    }
    beyond = len(latencies) - max(1, math.ceil(level / 100 * len(latencies)))
    print(f"op_tail_ms is p{level} of {len(latencies)} op latencies ({beyond} beyond it)")
    for name, (value, sample) in values.items():
        unit = END_TO_END_UNITS[name]
        line = f"{name:12s} {value:12.4f} {unit:5s}"
        if sample:
            q1, med, q3 = _quartiles(sample)
            line += f"  samples: n={len(sample)} median={med:.4f} q1={q1:.4f} q3={q3:.4f}"
        print(line)
    return {name: v for name, (v, _) in values.items()}


def _untraced(args, wl, gate) -> dict:
    import workloads

    min_passes = workloads.MIN_PASSES[wl.name]
    every = max(1, min_passes // (SETUP_SAMPLES - 1))
    setups = [_setup_sample(args)]
    passes, cal_ratios, latencies = [], [], []
    while len(passes) < min_passes or sum(passes) < args.seconds:
        cal: list[tuple[int, float]] = []
        results, wall = _run_pass(wl.ops, cal=cal)
        if args.corrupt and len(passes) == 1:
            _corrupt(results[0])
        gate.verify(results, f"pass {len(passes) + 1}")
        passes.append(wall)
        seconds_per_iteration = sum(t for _, t in cal) / sum(n for n, _ in cal)
        cal_ratios.append(wall / (seconds_per_iteration * CAL_UNIT))
        latencies.extend(r.seconds for r in results)
        if len(passes) % every == 0 and len(setups) < SETUP_SAMPLES:
            setups.append(_setup_sample(args))
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample(args))
    values = _end_to_end(wl, setups, passes, cal_ratios, latencies)
    return {"values": values, "passes": passes, "pass_cal": cal_ratios, "setups": setups}


def _traced(args, wl, gate) -> dict:
    untraced, traced, counts, selfs = [], [], [], []
    selfsum_err = 0.0
    first_spans = None
    while len(traced) < 2 or sum(untraced) + sum(traced) < args.seconds:
        results, wall = _run_pass(wl.ops)
        if args.corrupt and len(untraced) == 1:
            _corrupt(results[0])
        gate.verify(results, f"untraced pass {len(untraced) + 1}")
        untraced.append(wall)
        rec = tracer.Recorder()
        with tracer.Tracing(rec):
            results, wall = _run_pass(wl.ops, rec, f"t{len(traced) + 1}")
        gate.verify(results, f"traced pass {len(traced) + 1}")
        traced.append(wall)
        counts.append(tracer.pass_counts(rec))
        selfs.append(tracer.pass_self_times(rec))
        selfsum_err = max(selfsum_err, tracer.selfsum_error(rec))
        if first_spans is None:
            first_spans = rec.spans
    if any(c != counts[0] for c in counts):
        gate.failures.append("per-layer counts differ between traced passes")

    tracemalloc.start()
    results, _ = _run_pass(wl.ops)
    py_peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    gate.verify(results, "tracemalloc pass")

    layer: dict[str, float] = {}
    for name in tracer.CALL_METRICS:
        layer[name] = counts[0][name]
    for name in tracer.EXTRA_METRICS:
        layer[name] = counts[0][name]
    layer.update(tracer.ratios(counts[0]))
    for name in tracer.SELF_METRICS:
        layer[name] = statistics.median(s[name] for s in selfs)
    layer["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    layer["mem.py_peak_mb"] = py_peak

    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    for name, value in layer.items():
        print(f"{name:40s} {value:16.6f} {units.get(name, '')}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; largest gap between an op's "
          f"wall time and its spans' self-time sum: {selfsum_err:.3e} s")
    spans = [[s[0], s[1] - first_spans[0][1], s[2] - first_spans[0][1], *s[3:]] for s in first_spans]
    return {"values": layer, "counts": counts[0], "untraced_passes": untraced,
            "traced_passes": traced, "selfsum_max_err_s": selfsum_err,
            "span_fields": ["name", "start", "end", "parent", "op", "self"], "spans": spans}


def _record(args, gate) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"workloads": {}}
    data["seed"] = args.seed
    data["workloads"][args.workload] = dict(sorted(gate.first.items()))
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _run_all(args, names) -> int:
    """Run every workload in turn, each in its own process, and sum up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def setup_child(args) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-setup-", dir=WORK))
    try:
        _setup(args, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import workloads

    if args.workload == "all":
        return _run_all(args, workloads.NAMES)
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args)
    if args.record_digests and (args.seed != DEFAULT_SEED or args.corrupt):
        print("error: --record-digests needs the default seed and no --corrupt", file=sys.stderr)
        return 2

    env = _env()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = _setup(args, work)
        gate = Gate(args.workload, args.seed)
        if args.record_digests:
            gate.recorded = {}
        run = _traced if args.trace else _untraced
        body = run(args, wl, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    failed = gate.failed
    for f in gate.failures[:20]:
        print(f"FAILED {f}")
    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    print(f"fail_ratio {failed / gate.attempted:.4f} ({failed} of {gate.attempted} ops)")
    print("env " + json.dumps(env))
    if args.record_digests and not gate.failures:
        _record(args, gate)
    report = {"workload": wl.name, "seed": args.seed, "why": wl.why, "env": env,
              "ops": [op.name for op in wl.ops], "notes": wl.notes,
              "failures": gate.failures, **body}
    print(f"report: {_write_report(args, report).relative_to(ROOT)}")
    listed = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": body["values"][m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": not gate.failures, "attempted": gate.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

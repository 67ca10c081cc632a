"""Traced counts on the reference requests, against the counts they must give.

    python3 perfbench/reference.py

Runs each reference request twice under the tracer (the same wrappers as a
``--trace 1`` run) and checks that the counters match the expected values
and repeat exactly.  Exits 1 on any mismatch.  The 4-vehicle request takes
about ten seconds per run.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracer

#: name -> (request builder arguments, expected counts)
EXPECTED = {
    "dense k=4 m=2 h=3": (("dense", 4, 2, 3), {
        "rules.check_scene.calls": 94_685,
        "rules.check_transition.calls": 3_225,
        "reasoner.successor_gen.calls": 36,
        "reasoner.scenarios": 3_190,
    }),
    "chain n=22": (("chain", 22), {
        "reasoner.nodes": 271_391,
        "rules.check_scene.calls": 1_846,
        "reasoner.successor_gen.calls": 673,
        "reasoner.scenarios": 1,
    }),
}


def main() -> int:
    run._import_program()
    import workloads

    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    ok = True
    try:
        for name, ((kind, *shape), expected) in EXPECTED.items():
            text = (workloads.reference_dense(*shape) if kind == "dense"
                    else workloads.chain_request(*shape)[0])
            req = work / "reference.req"
            req.write_text(text)
            op = workloads.Op(name, ["generate", str(req), "--out", str(work / "out.result")])
            seen = []
            for _ in range(2):
                rec = tracer.Recorder()
                with tracer.Tracing(rec):
                    results, wall = run._run_pass([op], rec, "ref")
                if results[0].code != 0:
                    print(f"{name}: generate failed: {results[0].error or results[0].code}")
                    return 1
                seen.append(tracer.pass_counts(rec))
            repeat = seen[0] == seen[1]
            ok &= repeat
            print(f"{name}: {wall:.2f} s traced, counts repeat: {repeat}")
            for key, want in expected.items():
                got = seen[0][key]
                ok &= got == want
                print(f"  {key:32s} {got:>9,d}  expected {want:>9,d}  {'ok' if got == want else 'MISMATCH'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs of every pool round of the given workloads.

    python3 bench/record.py cutoff_forced eta_snapshots quasinorm_tail deterministic_pde

Writes ``bench/reference/<workload>.json``.  Recording refuses a pool in
which any operation raises or misses a pass condition of its criterion, so
the references are outputs that pass.  Re-record only when a change is meant
to alter outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import BENCH, OUT, SRC, host_record, pin_threads


def record(name):
    import workloads

    wl = workloads.WORKLOADS[name](OUT)
    operations = {}
    t0 = time.perf_counter()
    for key in wl.pool():
        results = wl.run_round(key)
        for op_id in wl.op_ids(key):
            res = results.get(op_id, "not run")
            if isinstance(res, str):
                raise SystemExit(f"{name} {op_id}: {res}")
            output, conditions = res
            failed = [label for label, ok in conditions if not ok]
            if failed:
                raise SystemExit(f"{name} {op_id}: condition failed: {failed}")
            operations[op_id] = output
    problems = [p for _, ps in wl.finish(operations, operations) for p in ps]
    if problems:
        raise SystemExit(f"{name}: pool check failed: {problems}")
    doc = {"workload": name, "host": host_record(), "rtol": wl.rtol, "atol": wl.atol,
           "operations": operations}
    (BENCH / "reference").mkdir(exist_ok=True)
    with open(BENCH / "reference" / f"{name}.json", "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{name}: {len(operations)} operations recorded in {time.perf_counter() - t0:.1f} s")


def main(names):
    pin_threads()
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)
    sys.path.insert(0, str(SRC))
    for name in names:
        record(name)


if __name__ == "__main__":
    main(sys.argv[1:])

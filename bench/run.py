"""kpzlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload quasinorm_tail --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Everything runs in this one process, with BLAS/OpenMP threads pinned to one.

A run sets the workload up three times (each time kpzlab's modules are
loaded afresh, the workload's inputs built and one warm-up round run; the
median is ``setup_s``) and then repeats timed rounds, each a fixed amount of
work, until ``--seconds`` have passed.  Every operation is checked
against the outputs recorded in ``bench/reference`` (see ``record.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced, and reports the per-layer metrics, the
tracing overhead and the share of the traced time inside named layer spans.
A summary goes to stdout, a full result file with the host record to
``.bench_results/``, and the last stdout line is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
NAMES = ("cutoff_forced", "eta_snapshots", "quasinorm_tail", "deterministic_pde")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3
MIN_ROUNDS = 3
COVERAGE_FLOOR = 0.90

# name -> unit.  Of PER_LAYER, a traced run's final JSON line carries the
# names marked True; a time that is exactly 0 on some workload is printed and
# kept in the result file only.
END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "grid.fft_calls": ("count", True), "grid.fft_s": ("s", True),
    "grid.fft_flop_computed": ("flop", True), "grid.fft_bytes_computed": ("B", True),
    "grid.spectral_s": ("s", False), "grid.io_s": ("s", False), "grid.io_bytes": ("B", True),
    "noise.frames_drawn": ("count", True), "noise.sample_s": ("s", True),
    "noise.scale_field_s": ("s", True), "noise.eta_scale_s": ("s", False),
    "noise.fft_per_frame": ("1/frame", True),
    "maximal.sweep_calls": ("count", True), "maximal.sweep_s": ("s", False),
    "maximal.heat_applies": ("count", True), "maximal.quasinorm_s": ("s", False),
    "maximal.sites_computed": ("count", True), "maximal.sites_used_ratio": ("frac", True),
    "solvers.cole_hopf_calls": ("count", True), "solvers.cole_hopf_s": ("s", False),
    "solvers.trotter_steps": ("count", True), "solvers.trotter_s": ("s", False),
    "solvers.mild_frames": ("count", True), "solvers.mild_s": ("s", False),
    "solvers.oracle_s": ("s", False),
    "deposition.eval_calls": ("count", True), "deposition.eval_s": ("s", False),
    "heat.apply_calls": ("count", True), "heat.apply_s": ("s", True),
    "ldp.mc_samples": ("count", True), "ldp.mc_s": ("s", False), "ldp.tail_fit_s": ("s", False),
    "acceptance.criterion_s": ("s", False), "cli.report_s": ("s", False),
    **{f"{layer}.self_s": ("s", False) for layer in LAYERS},
    **{f"{layer}.self_frac": ("frac", True) for layer in LAYERS},
    "bench.spans": ("count", True),
    "bench.coverage_frac": ("frac", True),
    "bench.trace_overhead_frac": ("frac", True),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_threads():
    """One BLAS/OpenMP thread: kpzlab's hot paths (pocketfft, elementwise numpy)
    are single-threaded, and a second BLAS thread on a shared 2-CPU host only
    added spinning (cpu_s above wall_s) and run-to-run spread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def host_record():
    import numpy
    import scipy

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f).strip() for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _bytes(size):
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else None


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Tally:
    """Checks each operation against its reference and counts the outcome."""

    def __init__(self, workload, reference):
        from checks import compare

        self.compare = compare
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.observed = {}
        self.failures = []

    def _count(self, op_id, problems, is_item):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op_id}: " + "; ".join(problems[:3]))
        elif is_item:
            self.items += 1

    def round(self, key):
        wl = self.workload
        results = wl.run_round(key)
        for op_id in wl.op_ids(key):
            res = results.get(op_id, "not run")
            is_item = wl.is_item(op_id)
            if isinstance(res, str):
                self._count(op_id, [res], is_item)
                continue
            output, conditions = res
            self.observed[op_id] = output
            ref = self.reference.get(op_id)
            problems = ["no recorded reference"] if ref is None else self.compare(
                output, ref, rtol=wl.rtol, atol=wl.atol, path=op_id)
            problems += [f"condition failed: {label}" for label, ok in conditions if not ok]
            self._count(op_id, problems, is_item)

    def finish(self):
        for op_id, problems in self.workload.finish(self.observed, self.reference):
            self._count(op_id, problems, False)


def timed_rounds(tally, keys, seconds):
    """Rounds until `seconds` have passed: wall, CPU and passed-item rate per round."""
    walls, cpus, rates = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        key = next(keys)
        items = tally.items
        c0, w0 = cpu_seconds(), time.perf_counter()
        tally.round(key)
        walls.append(time.perf_counter() - w0)
        cpus.append(cpu_seconds() - c0)
        rates.append((tally.items - items) / walls[-1])
    return walls, cpus, rates


def run(args):
    sys.path.insert(0, str(SRC))
    import kpzlab  # noqa: F401
    from kpzlab import acceptance, cli, deposition, grid, heat, ldp, maximal, noise, solvers  # noqa: F401

    import_s = time.perf_counter() - T_START
    if Path(kpzlab.__file__).resolve().parent != SRC / "kpzlab":
        raise SystemExit(f"kpzlab imported from {kpzlab.__file__}, not from {SRC}")

    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    with open(BENCH / "reference" / f"{args.workload}.json") as fh:
        reference = json.load(fh)["operations"]
    tmp = Path(os.environ["TMPDIR"])

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workloads.reload_kpzlab()
        wl = cls(tmp)
        wl.warmup()
        setup_times.append(time.perf_counter() - t0)

    tally = Tally(wl, reference)
    keys = wl.rounds(args.seed)
    host = host_record()
    ws_bytes, ws_what = wl.working_set()
    l2 = _bytes(host["caches"].get("L2", ""))
    ws_note = f"~{ws_bytes / 2**20:.1f} MiB ({ws_what})" + (f", {ws_bytes / l2:.1f}x L2" if l2 else "")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "item": wl.item, "host": host, "working_set": ws_note,
              "first_import_s": import_s}
    lines = [f"kpzlab bench: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
             f"host: {host['nproc']} cpu ({host['cpu_model']}), caches {host['caches']}, python {host['python']}, "
             f"numpy {host['numpy']}, scipy {host['scipy']}, threads {host['threads']}",
             f"working set per item: {ws_note}",
             f"first import of numpy, scipy and kpzlab: {import_s:.3f} s (not in setup_s)",
             f"item: {wl.item}"]

    budget = args.seconds if args.trace == 0 else args.seconds / 2
    walls, cpus, rates = timed_rounds(tally, keys, budget)
    metrics = {}
    if args.trace == 0:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        dist = {"wall_s": walls, "items_per_s": rates, "cpu_s": cpus, "setup_s": setup_times, "peak_rss_mb": [rss_mb]}
        for name, values in dist.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": END_TO_END[name], "q1": q1, "q3": q3, "n": len(values)}
        result["rounds"] = {"wall_s": walls, "cpu_s": cpus, "items_per_s": rates}
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            t_walls = timed_rounds(tally, keys, budget)[0]
        finally:
            tracer.uninstall()
        layer, breakdown = spans.layer_metrics(tracer, len(t_walls), sum(t_walls))
        self_total = sum(layer[f"{x}.self_s"] for x in LAYERS)
        for x in LAYERS:
            layer[f"{x}.self_frac"] = layer[f"{x}.self_s"] / self_total if self_total else 0.0
        layer["bench.trace_overhead_frac"] = statistics.median(t_walls) / statistics.median(walls) - 1.0
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": layer[name], "unit": unit}
        result["layer_breakdown"] = breakdown
        result["rounds"] = {"untraced_wall_s": walls, "traced_wall_s": t_walls}

    tally.finish()
    result["attempted"], result["failed"], result["failures"] = tally.attempted, tally.failed, tally.failures
    error_rate = tally.failed / tally.attempted

    if args.trace == 0:
        for name, m in metrics.items():
            lines.append(f"{name:<14} {m['value']:.6g} {m['unit']}  (median; q1 {m['q1']:.6g}, "
                         f"q3 {m['q3']:.6g}, n={m['n']})")
    else:
        for name, m in metrics.items():
            lines.append(f"{name:<28} {m['value']:.6g} {m['unit']}")
        for shape, row in result["layer_breakdown"]["fft_by_shape"].items():
            lines.append(f"grid.fft_calls.{shape:<14} {row['calls']:.6g} count   grid.fft_s.{shape} {row['s']:.6g} s")
        for name, val in result["layer_breakdown"]["criterion_s"].items():
            lines.append(f"{name:<28} {val:.6g} s")
        cov = metrics["bench.coverage_frac"]["value"]
        verdict = "ok" if cov >= COVERAGE_FLOOR else "UNDER-COVERED"
        lines.append(f"coverage: {cov:.1%} of traced round wall time in named layer spans "
                     f"(floor {COVERAGE_FLOOR:.0%}): {verdict}")
        result["coverage_ok"] = cov >= COVERAGE_FLOOR
    lines.append(f"error_rate     {error_rate:.6g}  ({tally.failed} failed of {tally.attempted} operations)")
    lines += [f"FAILED {f}" for f in tally.failures]

    result["metrics"] = metrics
    result["error_rate"] = error_rate
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(lines))
    carried = list(END_TO_END) if args.trace == 0 else [k for k, (_, keep) in PER_LAYER.items() if keep]
    final = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
             "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in carried}}
    print(json.dumps(final))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kpzlab" / "__init__.py").is_file():
        print(f"kpzlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (BENCH / "reference" / f"{args.workload}.json").is_file():
        print(f"no recorded reference for {args.workload}; run bench/record.py", file=sys.stderr)
        return 2
    pin_threads()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    try:
        return run(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of moritacat: Morita decisions, the homotopy calculus and
the JSON command line.

Usage, from the root of the repository:

    python3 bench/run.py                          # every workload, one after another
    python3 bench/run.py --workload ho-calculus --seed 3 --seconds 20 --trace 0

A single workload runs in this process, single-threaded.  The set-up
clock starts before ``moritacat`` is imported; set-up covers the
imports, building the fixed operation list from the seed (and writing
the CLI corpus), and one untimed warm-up operation on an input that is
not in the list.  Two more processes repeat the set-up alone, and
``setup_s`` is the median of the three.  The timed loop then runs the
whole list once; the list holds whole rounds, and their number grows
with ``--seconds``.  Each operation is timed on its own and checked
outside its timer.

With ``--trace 1`` the public names of every ``moritacat`` module are
wrapped (see ``spans.py``) and the run reports per-layer metrics
instead of the end-to-end ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOAD_NAMES = ("morita-decide", "ho-calculus", "cli-corpus")

# Rounds per second of --seconds, so that a run takes about that long
# on a 2-core machine.
ROUNDS_PER_SECOND = {"morita-decide": 0.5, "ho-calculus": 2.2, "cli-corpus": 1.0}
SETUP_REPEATS = 2  # extra processes that repeat the set-up alone


def import_library():
    """Import moritacat from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import moritacat
    except ImportError as exc:
        sys.exit(f"bench: cannot import moritacat from {SRC}: {exc}")
    where = Path(moritacat.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"bench: moritacat was imported from {where}, not from {SRC}")


def set_up(args, workdir, tracer=None):
    """Import, build the operation list and run the warm-up; returns the
    workload, the warm-up problem (or None) and the set-up seconds."""
    import_library()
    if tracer is not None:
        tracer.install()
    import workloads

    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]))
    workload = workloads.WORKLOADS[args.workload](args.seed, rounds, str(workdir))
    warm = workload.warmup
    problem = warm.check(warm.call())
    return workload, problem, time.perf_counter() - SETUP_START


def repeat_set_up(args):
    """Set-up seconds of SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def percentile(sorted_values, q):
    """Nearest-rank percentile of sorted values."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_workload(args):
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    try:
        workload, warm_problem, own_setup = set_up(args, workdir, tracer)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_times = [own_setup] if tracer else [own_setup] + repeat_set_up(args)
        return measure(args, workload, warm_problem, setup_times, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, warm_problem, setup_times, tracer):
    import workloads

    ops = workload.ops
    latencies = []
    failed = 0
    wrong = []
    failures = {}
    first_result = {}
    clock = time.perf_counter
    gc.collect()
    gc.freeze()  # the collector no longer walks the list and its inputs
    if tracer is not None:
        tracer.start()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        start = clock()
        try:
            result = op.call()
        except Exception:
            latencies.append(clock() - start)
            why = traceback.format_exc().strip().splitlines()[-1]
            if op.fault:
                failed += 1
                failures.setdefault(op.kind, why)
            else:
                wrong.append(f"operation {i} ({op.kind}) raised {why}")
            continue
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.active = False
        outcome = op.check(result)
        if tracer is not None:
            tracer.active = True
        if outcome == workloads.FAILED and op.fault:
            failed += 1
            failures.setdefault(op.kind, "known fault")
        elif outcome is not None:
            wrong.append(f"operation {i} ({op.kind}): {outcome}")
        elif op.kind not in first_result:
            first_result[op.kind] = (op, result)
    if tracer is not None:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The checkers must reject a result corrupted on purpose.
    if warm_problem is not None:
        wrong.append(f"warm-up: {warm_problem}")
    for kind, (op, result) in sorted(first_result.items()):
        if op.check(op.corrupt(result)) in (None, workloads.FAILED):
            wrong.append(f"checker of {kind} accepted a corrupted result")

    busy = sum(latencies)
    ordered = sorted(latencies)
    summary = {
        "ops_per_s": (len(ops) / busy, "1/s"),
        "op_p50_ms": (statistics.median(ordered) * 1000.0, "ms"),
        "op_p90_ms": (percentile(ordered, 90) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    print(f"workload {workload.name}: seed {args.seed}, {len(ops)} operations, "
          f"{failed} failed, trace {args.trace}")
    for name, (value, unit) in summary.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  setup samples = {', '.join(f'{t:.4f}' for t in setup_times)} s")
    for kind, why in sorted(failures.items()):
        print(f"  failed {kind}: {why}")
    for line in wrong[:20]:
        print(f"  WRONG {line}", file=sys.stderr)

    if tracer is not None:
        import spans

        extra = {
            "jsonio.parse.bytes": sum(op.in_bytes for op in ops),
            "jsonio.emit.bytes": workload.emitted_bytes,
        }
        metrics = spans.layer_metrics(tracer, extra)
        traces = RUN_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{workload.name}-{args.seed}.csv.gz")
        print(f"  traced ops_per_s = {summary['ops_per_s'][0]:.6g} 1/s")
        if tracer.eliminate_sizes:
            sizes = sorted(tracer.eliminate_sizes)
            print(f"  median scalar.eliminate.entries per call = {statistics.median(sizes):g}")
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in summary.items()}

    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, ops_per_s=summary["ops_per_s"][0],
                                   setup_samples=setup_times), indent=1))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""causal-kv benchmark: one workload per invocation.

    python3 perfbench/run.py --workload mesh3-repl --seed 1 --seconds 30 --trace 0

Run from the repository root. Prints a human-readable table, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of untraced runs; with
--trace 1 they are the per-layer metrics of a traced run, whose throughput is
compared with an untraced run of the same seed to give the tracing overhead;
each of the two runs for half of --seconds.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mesh3-repl", "sim-partition")
# error_frac is printed but not returned as a metric: it is 0 on a correct run,
# and the result line already carries it as failed / attempted. node1_busy_frac
# (node 1's CPU seconds over the open-loop seconds) shows how loaded the fixed
# rate leaves the serving node; it is a property of the load, not a result.
PRINT_ONLY = {"error_frac", "node1_busy_frac"}
# Set iteration order follows the interpreter's per-process string-hash seed,
# and it decides how presorted the key lists are that scans and historical
# reads sort: the same scan took 0.6 or 1.2 ms depending on the draw. This
# process and every node it starts run with one fixed seed.
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "causal_kv" / "cli.py").is_file():
        print(f"perfbench: no causal-kv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads as w

    # turn SIGTERM into SystemExit so the finally blocks stop every node process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.workload == "sim-partition":
            run, layers = run_sim(w, args, rundir)
        else:
            run, layers = run_live(w, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = layers if args.trace else run.metrics
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for name, passed in run.checks.items():
        print(f"  check {name:<36} {'pass' if passed else 'FAIL'}")
    correct = all(run.checks.values())
    print(f"  verdict {'correct' if correct else 'INCORRECT'}: {run.failed} of {run.attempted} requests failed")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in PRINT_ONLY},
    }
    print(json.dumps(result))
    return 0


def run_live(w, args, rundir: Path):
    spec = w.spec_for(args.workload)
    if not args.trace:
        return w.run_live(spec, args.seed, args.seconds, rundir / "run", trace=False, repeats=True), None
    half = args.seconds / 2  # the untraced and the traced run share --seconds
    base = w.run_live(spec, args.seed, half, rundir / "base", trace=False, repeats=False)
    run = w.run_live(spec, args.seed, half, rundir / "traced", trace=True, repeats=False)
    stats = w.merge_stats(run.stats)
    overhead = [
        (r.done - r.sent) * 1000 - stats["dispatch_ns"][str(r.rid)] / 1e6
        for r in run.requests
        if r.ok and str(r.rid) in stats["dispatch_ns"]
    ]
    layers = w.per_layer(
        stats,
        puts=run.puts_acked,
        overhead_ms=overhead,
        late_s=run.late,
        revs=run.stats[0].get("revs_per_key", 1.0),
        bytes_per_change=run.log_bytes / max(1, run.log_lines),
        base_rps=base.throughput,
        traced_rps=run.throughput,
    )
    return run, layers


def run_sim(w, args, rundir: Path):
    if not args.trace:
        return w.run_sim(args.seed, args.seconds, rundir / "run", repeats=True), None
    half = args.seconds / 2  # the untraced and the traced run share --seconds
    base = w.run_sim(args.seed, half, rundir / "base", repeats=False)
    from tracer import Tracer

    tracer = Tracer()
    run = w.run_sim(args.seed, half, rundir / "traced", repeats=False, tracer=tracer)
    layers = w.per_layer(
        tracer.dump(),
        puts=run.puts_acked,
        overhead_ms=[],
        late_s=[],
        revs=run.revs_per_key,
        bytes_per_change=run.bytes_per_change,
        base_rps=base.throughput,
        traced_rps=run.throughput,
    )
    return run, layers


if __name__ == "__main__":
    sys.exit(main())

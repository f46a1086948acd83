"""Benchmark for the `lacunary` CLI: one seeded workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The cases run in a fresh worker process
(worker.py) that calls `lacunary.cli.main` in-process; this process
times set-up, checks every output against the independent oracle
(oracle.py) after the worker has finished, and prints the metrics.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full result, with interpreter, nproc, seed, operation
count, tail percentile and (traced) tracing overhead, is also written to
.perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import workloads
from tracer import metric_units

HERE = Path(__file__).resolve().parent
STATE = Path(".perfbench")
SETUP_REPEATS = 15
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "output_bytes": "B/op",
    "peak_rss_mb": "MB",
}


def tail(latencies):
    """The highest percentile with at least ten samples above it.

    With n samples that is the (n-10)-th smallest, at percentile
    100*(n-10)/n.  Under eleven samples there is none, and the maximum is
    reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(env) -> list:
    """Wall time of fresh interpreters importing lacunary.cli and building
    its parser (`python -m lacunary --version`), after one untimed run that
    writes the bytecode caches."""
    cmd = [sys.executable, "-m", "lacunary", "--version"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        # no timeout: Popen.wait polls in up to 50 ms sleeps when given one
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_worker(args, env, spans_path):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(spans_path)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            encoding="utf-8")
    timer = threading.Timer(RUN_DEADLINE_S, proc.kill)
    timer.start()
    records, summary = [], None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if "summary" in msg:
                summary = msg["summary"]
            else:
                records.append(msg)
    finally:
        proc.stdout.close()
        rc = proc.wait()
        timer.cancel()
    if rc != 0 or summary is None:
        raise RuntimeError(f"worker exited with {rc} before finishing")
    return records, summary


def code_key(args) -> str:
    """Identity of the code, interpreter and inputs behind a set of counts."""
    h = hashlib.sha256()
    for path in sorted(Path("src/lacunary").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update(f"{sys.version}|{args.workload}|{args.seed}|{args.seconds}".encode())
    return h.hexdigest()[:24]


def check_counts(args, counts) -> list:
    """Compare exact counts with an earlier run of the same code and seed."""
    path = STATE / "counts" / f"{args.workload}-trace{args.trace}-{code_key(args)}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [f"{k}: {before.get(k)} before, {v} now"
            for k, v in sorted(counts.items()) if before.get(k) != v]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not Path("src/lacunary/cli.py").is_file():
        print("perfbench: src/lacunary not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "spans").mkdir(parents=True, exist_ok=True)
    spans_path = STATE / "spans" / f"{args.workload}-seed{args.seed}.jsonl"

    problems = []
    records, summary = run_worker(args, env, spans_path)

    # Regenerate the same cases and check every output.
    cases = workloads.cases(args.workload, args.seed, args.seconds)
    if len(records) != len(cases):
        problems.append(f"only {len(records)} of {len(cases)} cases ran before the "
                        f"worker's time limit")
    failures = []
    oracle_start = time.perf_counter()
    for case, rec in zip(cases, records):
        why = oracle.check(case, rec["rc"], rec["out"], rec["err"])
        if why is not None:
            failures.append({"op": rec["op"], "argv": list(case.argv), "why": why})

    oracle_s = time.perf_counter() - oracle_start
    # Timed last, right after the busy worker and oracle: the host clocks
    # an idle core down, and interpreter start-up is short enough to see it.
    setup = measure_setup(env) if args.trace == 0 else None
    counts = {"output_bytes": sum(len(r["out"].encode()) for r in records)}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "operations": len(records),
        "oracle_s": oracle_s, "oracle_failures": failures[:20],
    }
    units = dict(END_TO_END_UNITS)
    if args.trace == 0:
        lat = [r["t"] for r in records]
        tail_value, tail_pct = tail(lat)
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": len(lat) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail_value,
            "output_bytes": counts["output_bytes"] / len(records),
            "peak_rss_mb": summary["maxrss_kb"] / 1024,
        }
        info.update(latency_tail_percentile=tail_pct, latency_tail_samples=len(lat),
                    setup_runs_s=setup, latencies_s=lat,
                    tracing_overhead="measured by --trace 1 runs")
    else:
        units = metric_units()
        metrics = summary["metrics"]
        counts.update({k: v for k, v in metrics.items() if not k.endswith(".self_s")})
        overhead = summary["traced_s"] - summary["untraced_s"]
        info.update(untraced_s=summary["untraced_s"], traced_s=summary["traced_s"],
                    tracing_overhead_s=overhead,
                    tracing_overhead_share=overhead / summary["untraced_s"],
                    spans=summary["spans"], spans_file=str(spans_path))
        if summary["traced_output_differs"]:
            problems.append(f"traced output differs from untraced on ops "
                            f"{summary['traced_output_differs']}")
        if summary["names_not_restored"]:
            problems.append(f"names not restored after the traced run: "
                            f"{summary['names_not_restored']}")
    problems += [f"count changed across runs: {m}" for m in check_counts(args, counts)]

    attempted = len(records)
    failed = len(failures)
    info.update(error_rate=failed / attempted, problems=problems, counts=counts,
                metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(info, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:36s} {value:>16.6g} {units[name]}")
    print(f"{args.workload:14s} {'error_rate':36s} {failed / attempted:>16.6g} ratio "
          f"({failed}/{attempted})")
    if args.trace == 0:
        print(f"{args.workload:14s} latency_tail_s is p{info['latency_tail_percentile']:.2f} "
              f"of {attempted} operations")
    else:
        print(f"{args.workload:14s} tracing overhead {info['tracing_overhead_s']:.3f} s "
              f"({100 * info['tracing_overhead_share']:.1f}%)")
    print(f"{args.workload:14s} python {info['python']}, nproc {info['nproc']}, "
          f"seed {args.seed}, {attempted} operations; details in {out}")
    for f in failures[:5]:
        print(f"FAILED op {f['op']}: {' '.join(f['argv'])}: {f['why']}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

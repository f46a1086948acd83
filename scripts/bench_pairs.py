"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

PARENT_DIR and CHANGE_DIR are repository roots.  For each seed from A to
B, `perfbench/run.py --trace 0` runs once in each tree (from that tree's
root, for the run length its BENCHMARK.json sets), the parent first at
even pair numbers and the change first at odd ones.  For each end-to-end
metric of the change's BENCHMARK.json it prints each side's median and
quartiles, and in how many pairs the change was better (ties count for
neither).  A metric is marked `gain` when the change won at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.  Standard library only; it edits nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one `perfbench/run.py` run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, metavar="PARENT_DIR")
    ap.add_argument("change", type=Path, metavar="CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    args = ap.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got = run_once(getattr(args, side), args.workload, seed, seconds)
            runs[side].append(got)
            print(f"seed {seed} {side}: correct {got['correct']}, failed "
                  f"{got['failed']}/{got['attempted']}, throughput "
                  f"{got['metrics']['throughput_ops_s']['value']:.4g} ops/s", flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} pairs, seeds {args.seeds.start}-{args.seeds.stop - 1}, "
          f"{seconds} s runs; median [quartiles]")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        correct = sum(r["correct"] for r in runs[side])
        print(f"  {side}: {correct}/{pairs} runs correct, {failed}/{attempted} operations failed")
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[s]) for s in ("parent", "change"))
        gain = wins >= 0.9 * pairs and ((pm - cm) if lower else (cm - pm)) > p3 - p1
        print(f"  {name:17s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
              f"[{c1:.4g}, {c3:.4g}]  {metric['unit']}  change better in {wins}/{pairs}"
              f"{'  gain' if gain else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

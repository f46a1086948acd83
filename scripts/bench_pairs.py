"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B [--json PATH]

PARENT_DIR and CHANGE_DIR are roots of git checkouts.  Before the first
run, each tree's tracked and untracked, not ignored, files (as
`mutants.py` copies them) are copied to a temporary directory, so that no
ignored file (a stale `__pycache__`, `.hypothesis` or `.perfbench`) can
move a reading.  For each seed from A to B, `perfbench/run.py --trace 0`
runs once in each copy (from its root, for the run length the change's
BENCHMARK.json sets), the parent first at even pair numbers and the
change first at odd ones.  For each end-to-end metric of the change's
BENCHMARK.json it prints each side's median and quartiles, and in how
many pairs the change was better (ties count for neither).  A metric is
marked `gain` when the change won at least nine tenths of the pairs and
the medians differ by more than the parent's interquartile range.

With `--json PATH` it also writes the whole comparison as one record:
the workload, seeds and run length, the interpreter version, each
tree's `git rev-parse HEAD` and whether it had uncommitted changes, each
side's operation counts, and for each end-to-end metric each side's
values, median and quartiles, the change/parent median ratio, the wins
and the gain mark; it names each original tree.  A tree that is not a
git checkout (a `git archive` copy, say) exits 2 before any run; `git
worktree add --detach DIR REV` makes a parent tree that is.  Standard
library only; it edits nothing else.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import copy_files, working_files


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


def tree_state(tree: Path) -> dict:
    """`git rev-parse HEAD` of `tree` and whether it has uncommitted changes;
    both None outside a git checkout."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if head else None
    return {"head": head, "dirty": None if status is None else bool(status)}


def compare(metric: dict, parent: list, change: list) -> dict:
    """Both sides' values, quartiles, wins and gain mark for one metric."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = wins >= 0.9 * len(parent) and ((pm - cm) if lower else (cm - pm)) > p3 - p1
    return {"unit": metric["unit"], "better": metric["better"],
            "parent": {"values": parent, "median": pm, "quartiles": [p1, p3]},
            "change": {"values": change, "median": cm, "quartiles": [c1, c3]},
            "ratio": cm / pm if pm else None, "wins": wins, "gain": gain}


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, metavar="PARENT_DIR")
    ap.add_argument("change", type=Path, metavar="CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    ap.add_argument("--json", type=Path, metavar="PATH", help="also write the comparison here")
    args = ap.parse_args()

    trees = {side: tree_state(getattr(args, side)) for side in ("parent", "change")}
    for side, state in trees.items():
        if state["head"] is None:
            print(f"{side} tree {getattr(args, side)} is not a git checkout, so its working "
                  "files cannot be told from ignored ones; make one with `git worktree add "
                  "--detach DIR REV`", file=sys.stderr)
            return 2
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {side: Path(tmp, side) for side in runs}
        for side, copy in copies.items():
            tree = getattr(args, side)
            copy_files(tree, working_files(tree), copy)
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                got = run_once(copies[side], args.workload, seed, seconds)
                runs[side].append(got)
                print(f"seed {seed} {side}: correct {got['correct']}, failed "
                      f"{got['failed']}/{got['attempted']}, throughput "
                      f"{got['metrics']['throughput_ops_s']['value']:.4g} ops/s", flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} pairs, seeds {args.seeds.start}-{args.seeds.stop - 1}, "
          f"{seconds} s runs; median [quartiles]")
    operations = {side: {key: sum(r[key] for r in runs[side])
                         for key in ("correct", "failed", "attempted")} for side in runs}
    for side, ops in operations.items():
        print(f"  {side}: {ops['correct']}/{pairs} runs correct, "
              f"{ops['failed']}/{ops['attempted']} operations failed")
    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        got = metrics[name] = compare(metric, parent, change)
        text = {side: "{:.4g} [{:.4g}, {:.4g}]".format(got[side]["median"], *got[side]["quartiles"])
                for side in ("parent", "change")}
        print(f"  {name:17s} parent {text['parent']}  change {text['change']}  {metric['unit']}"
              f"  change better in {got['wins']}/{pairs}{'  gain' if got['gain'] else ''}")
    if args.json:
        record = {
            "workload": args.workload, "seeds": list(args.seeds), "run_seconds": seconds,
            "python": platform.python_version(),
            "trees": trees,
            "operations": operations, "metrics": metrics}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

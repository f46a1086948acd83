"""Every committed `BENCH_*.json` (written by `scripts/bench_pairs.py
--json`) keeps its shape, and its summary follows from its own values;
`bench_pairs.py` refuses a tree that is not a git checkout, and runs
each tree from a copy of the files git does not ignore."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_shape(path):
    rec = json.loads(path.read_text())
    assert set(rec) == {"workload", "seeds", "run_seconds", "python", "trees", "operations",
                        "metrics"}
    pairs = len(rec["seeds"])
    assert pairs >= 1 and isinstance(rec["python"], str)
    for side in ("parent", "change"):
        assert set(rec["trees"][side]) == {"head", "dirty"}
        assert set(rec["operations"][side]) == {"correct", "failed", "attempted"}
    assert list(rec["metrics"]) == [m["name"] for m in END_TO_END]
    for metric in END_TO_END:
        got = rec["metrics"][metric["name"]]
        lower = metric["better"] == "lower"
        assert (got["unit"], got["better"]) == (metric["unit"], metric["better"])
        spread = {}
        for side in ("parent", "change"):
            values = got[side]["values"]
            assert len(values) == pairs
            q1, q2, q3 = statistics.quantiles(values, n=4) if pairs > 1 else values * 3
            assert got[side]["median"] == q2 and got[side]["quartiles"] == [q1, q3]
            spread[side] = q3 - q1
        pm, cm = got["parent"]["median"], got["change"]["median"]
        assert got["ratio"] == (cm / pm if pm else None)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(got["parent"]["values"], got["change"]["values"]))
        assert got["wins"] == wins
        assert got["gain"] == (wins >= 0.9 * pairs
                               and ((pm - cm) if lower else (cm - pm)) > spread["parent"])


def test_json_refuses_a_tree_that_is_not_a_git_checkout(tmp_path):
    out = tmp_path / "record.json"
    argv = [str(tmp_path), str(ROOT), "--workload", "certify", "--seeds", "1-1", "--json", str(out)]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "git worktree add --detach DIR REV" in proc.stderr and not out.exists()


def test_runs_copy_the_files_git_does_not_ignore(tmp_path, monkeypatch):
    # bench_pairs.py copies each tree as mutants.py does
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from mutants import copy_files, working_files
    tree = tmp_path / "tree"
    (tree / "__pycache__").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(tree)], check=True)
    (tree / ".gitignore").write_text("__pycache__/\n")
    (tree / "tracked.py").write_text("tracked = 1\n")
    subprocess.run(["git", "-C", str(tree), "add", ".gitignore", "tracked.py"], check=True)
    (tree / "untracked.py").write_text("untracked = 1\n")
    (tree / "__pycache__" / "tracked.cpython-311.pyc").write_bytes(b"stale")
    copy_files(tree, working_files(tree), tmp_path / "copy")
    copied = sorted(str(p.relative_to(tmp_path / "copy")) for p in (tmp_path / "copy").rglob("*"))
    assert copied == [".gitignore", "tracked.py", "untracked.py"]
    assert (tmp_path / "copy" / "untracked.py").read_text() == "untracked = 1\n"

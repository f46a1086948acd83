"""Every committed `BENCH_*.json` (written by `scripts/bench_pairs.py
--json`) keeps its shape, and its summary follows from its own values."""

import json
import statistics
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

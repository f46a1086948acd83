"""Compare two sets of benchmark results, e.g. a parent commit and a change:

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the JSON files run.py writes to .perfbench/results/.
For every workload and metric in both sets it prints each side's median
and quartiles and the change of the medians.  It refuses (exit 2) to
compare results from different interpreters: on CPython 3.11 `str(int)`
is quadratic and on 3.12+ it is not, so most of the `certjson` time in
`certify` depends on the interpreter.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> tuple:
    """{(workload, trace): {metric: [values]}} plus the interpreters seen."""
    values = defaultdict(lambda: defaultdict(list))
    interpreters = set()
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text())
        interpreters.add(f"{res['implementation']} {res['python']}")
        for name, m in res["metrics"].items():
            values[(res["workload"], res["trace"])][name].append(m["value"])
    return values, interpreters


def quartiles(xs):
    """First quartile, median and third quartile."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_py = load(sys.argv[1])
    new, new_py = load(sys.argv[2])
    if len(base_py | new_py) != 1:
        print(f"refusing to compare results from different interpreters: "
              f"{sorted(base_py)} vs {sorted(new_py)}", file=sys.stderr)
        return 2
    print(f"interpreter {next(iter(base_py))}")
    print(f"{'workload':14s} {'metric':36s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s}  change")
    for key in sorted(base.keys() & new.keys()):
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = quartiles(base[key][name]), quartiles(new[key][name])
            change = f"{(n[1] - b[1]) / b[1]:+.1%}" if b[1] else "n/a"
            print(f"{key[0]:14s} {name:36s} {b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g} "
                  f"{n[0]:10.4g} {n[1]:10.4g} {n[2]:10.4g}  {change} "
                  f"({len(base[key][name])} vs {len(new[key][name])} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-test of the benchmark's own machinery.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py

Checks, on the running example's default `witness` certificate:
  1. the traced run emits byte-identical output to the untraced one;
  2. every name in every lacunary module and class is bound to the very
     same object afterwards as before;
  3. two traced runs give identical counts;
  4. the oracle accepts the certificate and rejects mutated copies.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import oracle
import workloads
from tracer import Tracer, bindings, unrestored
from worker import run_case

ARGV = ("witness",)  # defaults: bases 3 and 2, a1=2, beta=1, n 1..4, d=3
PARAMS = dict(g1=3, g2=2, op="sum", a1=2, beta=(1, 1), n_from=1, n_to=4, d=(3, 1))


def traced_run(cli, case):
    tracer = Tracer()
    before = bindings()
    tracer.install()
    try:
        result = run_case(cli, case)
    finally:
        tracer.uninstall()
    counts = {k: v for k, v in tracer.metrics().items() if not k.endswith(".self_s")}
    return result, counts, unrestored(before)


def mutations(text: str):
    doc = json.loads(text)
    rec = doc["records"][2]
    yield "flipped passed", dict(rec, roth=dict(rec["roth"], passed=not rec["roth"]["passed"]))
    yield "wrong convergent", dict(rec, convergent=dict(
        rec["convergent"], p=str(int(rec["convergent"]["p"]) + 1)))
    hi = rec["gap"]["hi"]
    yield "gap.hi below the true gap", dict(rec, gap=dict(rec["gap"], hi=dict(
        hi, den=str(int(hi["den"]) * 2))))
    yield "flipped bound_dominates", dict(rec, bound_dominates=not rec["bound_dominates"])


def main() -> int:
    from lacunary import cli

    case = workloads.Case("witness", ARGV, 0, PARAMS)
    failures = []
    plain = run_case(cli, case)
    (rc, _, out, _), counts1, left = traced_run(cli, case)
    _, counts2, _ = traced_run(cli, case)

    if (rc, out) != (plain[0], plain[2]):
        failures.append("traced output differs from untraced output")
    if left:
        failures.append(f"names not restored: {left}")
    if counts1 != counts2:
        failures.append(f"counts differ between identical traced runs: "
                        f"{[k for k in counts1 if counts1[k] != counts2[k]]}")
    why = oracle.check(case, plain[0], plain[2], plain[3])
    if why is not None:
        failures.append(f"oracle rejects the real certificate: {why}")
    for label, record in mutations(plain[2]):
        doc = json.loads(plain[2])
        doc["records"][2] = record
        bad = json.dumps(doc, separators=(",", ":")) + "\n"
        if oracle.check(case, 0, bad, "") is None:
            failures.append(f"oracle accepts a certificate with {label}")

    for f in failures:
        print(f"FAIL: {f}")
    print(f"selftest: {len(failures)} failure(s); {counts1['certjson.digits_emitted']} digits "
          f"emitted, {counts1['series.calls']} series calls")
    return 1 if failures else 0


if __name__ == "__main__":
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    raise SystemExit(main())

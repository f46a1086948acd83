"""The workload process: runs one workload's cases through `lacunary.cli.main`.

Started fresh for every run by run.py, with `src` on PYTHONPATH, so no
memory or cache carries over between workloads.  One closed-loop caller,
no threads.  It writes one JSON line per event to stdout:

  {"op": i, "rc": .., "t": .., "out": .., "err": ..}   one finished case
  {"summary": {...}}                                  last line

The cases are workloads.cases(workload, seed, seconds).  Untraced
(--trace 0): each case once, then ru_maxrss.  Traced (--trace 1): each
case once untraced and once traced.  Only the untraced outputs are
sent; the traced ones are compared with them by hash.  The spans go to
--spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import workloads
from tracer import Tracer, bindings, unrestored

# Stop starting new cases past this (per pass, split between the two
# passes of a traced run), so that a run on a host far slower than the
# reference one still ends inside its time limit.
HARD_STOP_S = 110.0


def run_case(cli, case):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(case.argv))
        except SystemExit as exc:  # argparse rejects a command line
            rc = exc.code if isinstance(exc.code, int) else 2
    elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()

    from lacunary import cli

    channel = sys.stdout

    def send(obj) -> None:
        channel.write(json.dumps(obj, separators=(",", ":")) + "\n")
        channel.flush()

    cases = workloads.cases(args.workload, args.seed, args.seconds)
    start = time.perf_counter()
    plain = []
    for i, case in enumerate(cases):
        if time.perf_counter() - start > HARD_STOP_S / (1 + args.trace):
            break
        rc, t, out, err = run_case(cli, case)
        plain.append((rc, t, hashlib.sha256(out.encode()).hexdigest()))
        send({"op": i, "rc": rc, "t": t, "out": out, "err": err[:300]})
    if args.trace == 0:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        send({"summary": {"maxrss_kb": rss_kb}})
        return 0

    tracer = Tracer()
    traced = []
    before = bindings()
    tracer.install()
    try:
        for i, case in enumerate(cases[:len(plain)]):
            tracer.op_id = i
            rc, t, out, err = run_case(cli, case)
            traced.append((rc, t, hashlib.sha256(out.encode()).hexdigest()))
    finally:
        tracer.uninstall()
    differ = [i for i, (a, b) in enumerate(zip(plain, traced)) if (a[0], a[2]) != (b[0], b[2])]
    if args.spans:
        tracer.write_spans(args.spans)
    send({"summary": {
        "untraced_s": sum(x[1] for x in plain),
        "traced_s": sum(x[1] for x in traced),
        "traced_output_differs": differ,
        "names_not_restored": unrestored(before),
        "spans": len(tracer.spans),
        "metrics": tracer.metrics(),
    }})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

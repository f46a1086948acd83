"""Compare the CLI outputs of two source trees on every benchmark case.

    python3 scripts/same_outputs.py PARENT_SRC [CHANGE_SRC]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts;
CHANGE_SRC defaults to this checkout's `src`.  Every certify, digits-deep
and small-queries case of `perfbench/workloads.py` at seeds 1 and 2
(`--seconds 20`) runs through `lacunary.cli.main`, in one child process
per tree, and the exit code, stdout and stderr of each case are compared.
So are those of each command line in EDGE_ARGVS, which no benchmark case
reaches.

Prints one line per case that differs, then `N/M identical` for the
benchmark cases and `K/L edge cases identical` for EDGE_ARGVS; exits 0
when every case is identical and 1 otherwise.  Standard library only.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("certify", "digits-deep", "small-queries")
SEEDS = (1, 2)
SECONDS = 20

# Refusals and stalls: witness budget refusals on every op, non-integral
# schedules, the quotient at n = 1, convergents refusals, and digits from
# an enclosure that stalls at the schedule's end, decided or refused.
# Each finishes in well under 1 s.
EDGE_ARGVS = [
    *(["witness", "--op", op, *flags] for op in ("sum", "difference", "product", "quotient")
      for flags in (["--budget-bits", "12", "--a1", "8"],
                    ["--budget-bits", "9", "--g1", "1000", "--g2", "3"])),
    ["witness", "--beta", "1/2", "--a1", "16"],
    ["witness", "--a1", "3", "--beta", "1/2", "--op", "quotient", "--n-to", "3"],
    ["witness", "--op", "quotient", "--n-to", "1"],
    ["convergents", "--budget-bits", "12", "--a1", "8", "--n-to", "5"],
    ["convergents", "--beta", "1/2", "--a1", "16", "--n-to", "5"],
    ["convergents", "--a1", "3", "--beta", "1/2", "--n-to", "3"],
    ["digits", "--beta", "1/2", "--a1", "16", "--digits", "400"],
    ["digits", "--budget-bits", "12", "--a1", "8", "--digits", "2450"],
    ["digits", "--budget-bits", "12", "--a1", "8", "--digits", "3000"],
    ["digits", "--budget-bits", "9", "--g1", "1000", "--g2", "3", "--digits", "2000"],
]


def all_cases() -> list:
    """(workload, seed, argv) of every compared case, in one fixed order."""
    return [(w, seed, case.argv) for w in WORKLOADS for seed in SEEDS
            for case in workloads.cases(w, seed, SECONDS)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_all(src: str) -> None:
    """In a child: [exit code, stdout sha, stderr sha] of every case of
    `all_cases`, then of every EDGE_ARGVS line, with `src` first on the
    path, as one JSON list on stdout."""
    sys.path.insert(0, src)
    from lacunary import cli

    results = []
    for argv in [argv for _, _, argv in all_cases()] + EDGE_ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code
        results.append([code, _sha256(out.getvalue()), _sha256(err.getvalue())])
    json.dump(results, sys.stdout)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    srcs = [str(Path(a).resolve()) for a in argv] + [str(ROOT / "src")] * (2 - len(argv))
    children = [subprocess.Popen([sys.executable, __file__, "--child", src],
                                 stdout=subprocess.PIPE, text=True) for src in srcs]
    outputs = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        print("a child process failed", file=sys.stderr)
        return 2
    parent, change = (json.loads(text) for text in outputs)
    cases = all_cases() + [("edge", None, argv) for argv in EDGE_ARGVS]
    same = {"bench": 0, "edge": 0}
    for (workload, seed, case_argv), want, got in zip(cases, parent, change):
        kind = "edge" if seed is None else "bench"
        if want == got:
            same[kind] += 1
            continue
        fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), want, got)
                  if a != b]
        line = " ".join(case_argv)
        print(f"DIFFERS {workload}{'' if seed is None else f' seed {seed}'} "
              f"({', '.join(fields)}): {line if len(line) <= 200 else line[:200] + '...'}")
    print(f"{same['bench']}/{len(cases) - len(EDGE_ARGVS)} identical")
    print(f"{same['edge']}/{len(EDGE_ARGVS)} edge cases identical")
    return 0 if sum(same.values()) == len(cases) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_all(sys.argv[2])
        raise SystemExit(0)
    raise SystemExit(main(sys.argv[1:]))

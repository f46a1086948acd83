"""Compare the CLI outputs of two source trees on every benchmark case.

    python3 scripts/same_outputs.py PARENT_SRC [CHANGE_SRC]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts;
CHANGE_SRC defaults to this checkout's `src`.  Every certify, digits-deep
and small-queries case of `perfbench/workloads.py` at seeds 1 and 2
(`--seconds 20`) runs through `tests/pins.py`'s `run`, in one child
process per tree, and the exit code, stdout and stderr of each case are
compared.  Fixed command lines that no benchmark case reaches are pins in
`tests/pins.py`.

Prints one line per case that differs, then `N/M identical`; exits 0
when every case is identical and 1 otherwise.  Standard library only.
"""

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


def all_cases() -> list:
    """(workload, seed, argv) of every compared case, in one fixed order."""
    return [(w, seed, case.argv) for w in WORKLOADS for seed in SEEDS
            for case in workloads.cases(w, seed, SECONDS)]


def run_all(src: str) -> None:
    """In a child: `pins.run` of every case of `all_cases`, with `src`
    first on the path, as one JSON list on stdout."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    from pins import run

    json.dump([run(argv) for _, _, argv in all_cases()], sys.stdout)


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
    cases = all_cases()
    same = 0
    for (workload, seed, case_argv), want, got in zip(cases, parent, change):
        if want == got:
            same += 1
            continue
        fields = [name for name, a, b in zip(("stdout", "stderr", "exit code"), want, got)
                  if a != b]
        line = " ".join(case_argv)
        print(f"DIFFERS {workload} seed {seed} ({', '.join(fields)}): "
              f"{line if len(line) <= 200 else line[:200] + '...'}")
    print(f"{same}/{len(cases)} identical")
    return 0 if same == len(cases) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_all(sys.argv[2])
        raise SystemExit(0)
    raise SystemExit(main(sys.argv[1:]))

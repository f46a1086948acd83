"""Run tier-1 against hand-written mutants of the decision sites.

    python3 scripts/mutants.py [NAME ...]

Each mutant in MUTANTS replaces one exact text, found exactly once, in
one source file.  For each mutant (all of them, or the NAMEs given) this
checkout's files (`git ls-files`, tracked and untracked but not ignored,
as they are in the working tree) are copied to a temporary directory, the
mutant is applied there, and tier-1 runs there with `-x`.  A mutant is
killed when a test fails and survives when every test passes.

Prints one line per mutant: `killed` with the first failing test, or
`survived`; then a count.  EXPECTED_SURVIVORS lists the mutants that
cannot be killed, each with its reason: equivalent mutants, and invariant
checks that correct arithmetic never fires.  Exits 0 when no other mutant
survived, 1 when one did, and 2 when a mutant's text is not found exactly
once.  Standard library only.  Opt-in, not part of tier-1: each mutant
costs up to one tier-1 run.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 1800

Mutant = namedtuple("Mutant", "name file old new site")

MUTANTS = [
    Mutant("M1", "src/lacunary/witness.py", "passed = stat.bit_length() <= k * v",
           "passed = stat.bit_length() < k * v", "_roth_check's pass test"),
    Mutant("M2", "src/lacunary/witness.py",
           "tie=stat.bit_length() == k * v + 1 and stat & (stat - 1) == 0", "tie=False",
           "_roth_check's tie"),
    Mutant("M3", "src/lacunary/witness.py", "lo, hi = got.lo - f - (r > 0), got.hi - f",
           "lo, hi = got.lo - f, got.hi - f", "_gap_dyadic's lower end"),
    Mutant("M4", "src/lacunary/series.py", "hi = lo + len(exps) + tail",
           "hi = lo + len(exps) + tail - 1", "on_grid's hi"),
    Mutant("M5", "src/lacunary/logenc.py", "s_hi += 2 * p_hi + 1", "s_hi += p_hi",
           "ln_mantissa's tail"),
    Mutant("M6", "src/lacunary/measure.py", "if e <= 0:", "if e < 0:",
           "_certify_dominance's exponent test"),
    Mutant("M7", "src/lacunary/witness.py", "hi * bound.denominator <= bound.numerator << k",
           "hi * bound.denominator < bound.numerator << k", "bound_dominates"),
    Mutant("M9", "src/lacunary/series.py", "if got.j <= digits:", "if got.j < digits:",
           "certified_digits' grid test"),
    Mutant("M12", "src/lacunary/witness.py",
           "num_lo = -ln_fraction_interval(m_hi, 1 << j_hi, prec)[1]",
           "num_lo = -ln_fraction_interval(m_hi, 1 << j_hi, prec)[0]",
           "_exponent_interval's lower end"),
    Mutant("M14", "src/lacunary/witness.py", "q + grid.divmod(r - q * (h2 - l2), h2)[0]",
           "q + grid.divmod(r, h2)[0]", "_quotient's lower end"),
    Mutant("M15", "src/lacunary/witness.py", "if not ps2.p * inv_up > ps2.q:", "if False:",
           "gap_bound's check theta2 > g2**-a1"),
    Mutant("M16", "src/lacunary/witness.py", "elif not passed and n0 is not None:",
           "elif False:", "find_n0's relapse check"),
    Mutant("M17", "src/lacunary/series.py", "PurePower(o, a).bits() > m",
           "PurePower(o, a).bits() >= m", "BinaryGrid.inverse_power's zero test"),
    Mutant("M18", "src/lacunary/intmath.py", "if a < b << n:", "if a <= b << n:",
           "int_divmod's one-block case"),
    Mutant("M19", "src/lacunary/intmath.py", "s = max(n, (a.bit_length() - n) // (2 * n) * n)",
           "s = (a.bit_length() - n) // (2 * n) * n", "int_divmod's split point"),
    Mutant("M20", "src/lacunary/witness.py",
           "roth = _roth_check(c, conv, d_eff)\n        bound = gap_bound(c, n)",
           "bound = gap_bound(c, n)\n        roth = _roth_check(c, conv, d_eff)",
           "_index_record's order: the strict test before the gap bound"),
    Mutant("M21", "src/lacunary/witness.py",
           'check_power(f"gap.hi**{int_label(v)} * q_{n}**{int_label(u)}", 1,\n'
           "                    v * gap.hi.bit_length() + u * conv.q.bit_length())",
           "pass", "_roth_check's gate on gap.hi**v * q**u"),
    Mutant("M22", "src/lacunary/intmath.py", "x = above << s", "x = below << s",
           "introot's bracket start: the greatest m not certainly above the root"),
    Mutant("M23", "src/lacunary/certjson.py",
           "divmod(decimal_power(g, a) * decimal_power(2, s), G)",
           "divmod(decimal_power(g, a) * decimal_power(2, s), 1)",
           "the gap bound's denominator: g2**a * 2**s // G"),
    Mutant("M24", "src/lacunary/__main__.py", "except MemoryError:", "except ArithmeticError:",
           "python -m lacunary's out-of-memory exit while cli imports"),
]

EXPECTED_SURVIVORS = {
    "M6": "equivalent: at e = 0 the power is 1, below every threshold 2*H*d**2 >= 8",
    "M9": "equivalent: at j = digits, ends hi > lo never truncate alike",
}


def working_files(root: Path = ROOT) -> list:
    """Tracked and untracked, not ignored, files of the checkout at `root`."""
    out = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=root,
                         stdout=subprocess.PIPE, check=True).stdout
    return [name for name in out.decode().split("\0") if name and (root / name).is_file()]


def copy_files(root: Path, files: list, dest: Path) -> None:
    """Copy each of `files`, named relative to `root`, to the same place under `dest`."""
    for name in files:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / name, dest / name)


def run_mutant(m: Mutant, files: list) -> str:
    """`survived`, or `killed` with the first failing test, under mutant m."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        copy_files(ROOT, files, copy)
        path = copy / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed (tier-1 ran past the {TIMEOUT_S} s timeout)"
    if proc.returncode == 0:
        return "survived"
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE)
    return f"killed by {first.group(1) if first else f'pytest exit {proc.returncode}'}"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for m in chosen:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            print(f"{m.name}: {m.old!r} occurs {count} times in {m.file}", file=sys.stderr)
            return 2
    files = working_files()
    unexpected = killed = 0
    for m in chosen:
        result = run_mutant(m, files)
        killed += result.startswith("killed")
        line = f"{m.name} ({m.site}, {m.file}): {result}"
        if result == "survived":
            why = EXPECTED_SURVIVORS.get(m.name)
            unexpected += why is None
            line += f"; {why}" if why else "; NOT EXPECTED"
        print(line, flush=True)
    print(f"{killed}/{len(chosen)} killed, {len(chosen) - killed - unexpected} expected "
          f"survivors, {unexpected} unexpected survivors")
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Run the CLI byte pins without pytest.

Reads the pin tables `PINS` and `HELP_PINS` of tests/test_pinned_bytes.py
and `STALL_PINS` of tests/test_stall_pins.py with `ast` (nothing in
tests/ is imported), runs each call through `lacunary.cli.main` in this
process, and compares sha256 of stdout, sha256 of stderr and the exit
code with the pinned ones.  The stall pins listed in that file's `MOVED`
must differ from their pins, as the test expects them to.  It needs the
standard library only, so it runs under every interpreter that
`requires-python` admits:

    python3 scripts/check_pins.py

Prints one line per pin that is not as expected and a summary; exits 0
when every pin is as expected and 1 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lacunary.cli import main  # noqa: E402

TABLES = (("test_pinned_bytes.py", ("PINS", "HELP_PINS")),
          ("test_stall_pins.py", ("STALL_PINS",)))  # and MOVED, read with them


class _Inline(ast.NodeTransformer):
    """Replaces each name bound earlier (EMPTY, say) by its value."""

    def __init__(self, known: dict):
        self.known = known

    def visit_Name(self, node):
        if node.id in self.known:
            return ast.copy_location(ast.Constant(self.known[node.id]), node)
        return node


def read_tables() -> dict:
    """Every top-level assignment of a literal in the pin files, by name."""
    known = {}
    for name, _ in TABLES:
        for node in ast.parse((ROOT / "tests" / name).read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                with contextlib.suppress(ValueError):
                    known[node.targets[0].id] = ast.literal_eval(_Inline(known).visit(node.value))
    return known


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv) -> tuple:
    """(stdout sha, stderr sha, exit code) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return sha256(out.getvalue()), sha256(err.getvalue()), code


def main_check() -> int:
    os.environ["COLUMNS"] = "80"  # the --help pins are taken at 80 columns
    known = read_tables()
    empty = sha256("")
    cases = []
    for _, names in TABLES:
        for table in names:
            for row in known[table]:
                if table == "HELP_PINS":  # (command, stdout sha): no stderr, exit 0
                    cases.append(((*row[0], "--help"), (row[1], empty, 0)))
                else:
                    cases.append((row[0], tuple(row[1:])))
    moved = known["MOVED"]
    bad = 0
    for argv, want in cases:
        got = run(argv)
        if (got == want) == (argv in moved):
            bad += 1
            print(f"{'MATCH of a moved pin' if got == want else 'MISMATCH'} "
                  f"{' '.join(argv)}: got {got}, pinned {want}")
    print(f"{len(cases) - bad}/{len(cases)} pins as expected ({len(moved)} of them moved) "
          f"under {platform.python_implementation()} {platform.python_version()}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main_check())

"""Run the CLI byte pins without pytest.

Imports the pin table `PINS` of tests/pins.py, runs each call through
its in-process runner and compares sha256 of stdout, sha256 of stderr
and the exit code with the pinned ones.  Every pin runs twice: as the CLI reads it, and with the plain
command-line reader `cli._plain_args` patched to return None, so that
argparse reads every call.  It needs the standard library only, so it
runs under every interpreter that `requires-python` admits:

    python3 scripts/check_pins.py

Prints one line per pin and route that differs and a summary; exits 0
when every pin matches on both routes and 1 otherwise.
"""

import contextlib
import platform
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lacunary import cli  # noqa: E402
from pins import PINS, run  # noqa: E402


def main_check() -> int:
    bad = set()
    for route, patch in (("plain", contextlib.nullcontext()),
                         ("argparse", mock.patch.object(cli, "_plain_args", return_value=None))):
        with patch:
            for argv, *want in PINS:
                got = run(argv)
                if got != tuple(want):
                    bad.add(argv)
                    print(f"MISMATCH ({route} route) {' '.join(argv)}: "
                          f"got {got}, pinned {tuple(want)}")
    print(f"{len(PINS) - len(bad)}/{len(PINS)} pins match on both routes "
          f"under {platform.python_implementation()} {platform.python_version()}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main_check())

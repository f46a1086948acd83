"""Byte pins of the CLI's output.

Each case pins sha256 of stdout, sha256 of stderr and the exit code of
one `lacunary` call.  The tables live in `pins.py`; a change that alters
any pin must update it there and say why the output moved.
"""

import pytest

from pins import BRACKET_PINS, HELP_PINS, PINS, STALL_PINS, run


@pytest.mark.parametrize("argv, stdout_sha, stderr_sha, code", PINS,
                         ids=[" ".join(p[0]) for p in PINS])
def test_output_bytes_are_pinned(argv, stdout_sha, stderr_sha, code):
    assert run(argv) == (stdout_sha, stderr_sha, code)


@pytest.mark.parametrize("argv, stdout_sha, stderr_sha, code", HELP_PINS,
                         ids=[" ".join(p[0][:-1]) or "top" for p in HELP_PINS])
def test_help_bytes_are_pinned(argv, stdout_sha, stderr_sha, code):
    assert run(argv) == (stdout_sha, stderr_sha, code)


@pytest.mark.parametrize("argv, stdout_sha, stderr_sha, code", BRACKET_PINS,
                         ids=[f"{p[0][6]}-g2-{int(p[0][4]).bit_length()}-bits"
                              for p in BRACKET_PINS])
def test_bracket_fallback_bytes_are_pinned(argv, stdout_sha, stderr_sha, code):
    assert run(argv) == (stdout_sha, stderr_sha, code)


def test_each_command_line_is_pinned_once():
    argvs = [p[0] for p in [*PINS, *HELP_PINS, *BRACKET_PINS, *STALL_PINS]]
    assert len(set(argvs)) == len(argvs)

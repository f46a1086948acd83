"""Byte pins of the CLI's output.

Each case pins sha256 of stdout, sha256 of stderr and the exit code of
one `lacunary` call.  The table is `PINS` in `pins.py`; a change that
alters any pin must update it there and say why the output moved.  Every
`digits` pin that decides is also checked against exact Fraction
brackets.
"""

import math
from fractions import Fraction

import pytest

from lacunary.cli import main
from lacunary.interval import RationalInterval
from lacunary.series import format_fixed
from pins import PINS, run


def _pin_id(argv) -> str:
    # the bracket pins' bases run to 1,500 digits: each is named by its bit length
    return " ".join(a if len(a) <= 20 else f"<{int(a).bit_length()}-bit>" for a in argv)


@pytest.mark.parametrize("argv, stdout_sha, stderr_sha, code", PINS,
                         ids=[_pin_id(p[0]) for p in PINS])
def test_output_bytes_are_pinned(argv, stdout_sha, stderr_sha, code):
    assert run(argv) == (stdout_sha, stderr_sha, code)


def test_each_command_line_is_pinned_once():
    argvs = [p[0] for p in PINS]
    assert len(set(argvs)) == len(argvs)


_OPS = {"sum": RationalInterval.__add__, "difference": RationalInterval.__sub__,
        "product": RationalInterval.__mul__, "quotient": RationalInterval.__truediv__}


def _bracket(g: int, a1: int, beta: Fraction, budget_bits: int) -> RationalInterval:
    """theta_g as the stalled enclosure sees it: the partial sum over the
    exponents the schedule gives, then a tail under g/(g-1) * g**-e.  Past
    the exponent budget e = 2*a_M; before a non-integral a_{M+1} the tail
    starts at a_M itself, so a_M is left out of the sum."""
    exps = [a1]
    while True:
        a = exps[-1]
        if beta.denominator == 2 and math.isqrt(a) ** 2 != a:
            terms, e = exps[:-1], a
            break
        nxt = a * math.isqrt(a) if beta.denominator == 2 else a ** (1 + beta.numerator)
        if nxt > 1 << budget_bits:
            terms, e = exps, 2 * a
            break
        exps.append(nxt)
    s = sum(Fraction(1, g ** a) for a in terms)
    return RationalInterval(s, s + Fraction(g, (g - 1) * g ** e))


# the CLI's defaults of the flags the oracle reads
_DEFAULTS = {"--g1": "3", "--g2": "2", "--op": "sum", "--a1": "2", "--beta": "1",
             "--budget-bits": "20", "--digits": "10"}
DECIDED = [p[0] for p in PINS if p[0][0] == "digits" and "--help" not in p[0] and p[3] == 0]


@pytest.mark.parametrize("argv", DECIDED, ids=[_pin_id(argv) for argv in DECIDED])
def test_decided_digits_truncate_the_fraction_bracket(capsys, argv):
    # every line printed is the toward-zero truncation of both ends of the
    # exact bracket of that series or composite, which the enclosure contains
    flags = {**_DEFAULTS, **dict(zip(argv[1::2], argv[2::2]))}
    places = int(flags["--digits"])
    cfg = [int(flags["--a1"]), Fraction(flags["--beta"]), int(flags["--budget-bits"])]
    brackets = [_bracket(int(flags[g]), *cfg) for g in ("--g1", "--g2")]
    brackets.append(_OPS[flags["--op"]](*brackets))
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    for line, iv in zip(lines, brackets, strict=True):
        ends = {int(x * 10 ** places) for x in (iv.lo, iv.hi)}
        assert len(ends) == 1 and line.split(" = ")[1] == format_fixed(ends.pop(), places)

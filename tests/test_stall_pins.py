"""Byte pins of `digits` at the edge of a stalled schedule.

A schedule stalls when its next exponent is refused: over the exponent
budget (`--budget-bits 4` and `9`, or `--beta 2`, whose a_4 = 2**27 is
over the default 2**20), or not an integer (`--beta 1/2` after a square
a_1).  The last enclosure then carries a rounded-up tail, and whether it
decides a place count depends on the grid its ends lie on.  For each
pair of bases (2..7 and 10) and schedule, two ops are pinned at the
largest place count that decides and at one more, which is refused
(exit 3, or exit 2 when the refused exponent is not an integer), plus a
few place counts below the edge.  Each case pins sha256 of stdout,
sha256 of stderr and the exit code; the table is `STALL_PINS` in
`pins.py`.

The pins were first taken when `digits` enclosed on the binary grid
2**-k.  Thirty of them were refused there and were retaken on the
decimal grid 10**-K, where they decide: each has a series over base 5
or 10 whose partial sum S is a terminating decimal with at most the
asked-for places.  The binary lower end fell below S, so its truncation
parted from the upper end's; the decimal grid holds S exactly.  Every
call that decides is checked against exact Fraction brackets below.
"""

import math
from fractions import Fraction

import pytest

from lacunary.cli import main
from lacunary.interval import RationalInterval
from lacunary.series import format_fixed
from pins import STALL_PINS, run


@pytest.mark.parametrize("argv, stdout_sha, stderr_sha, code", STALL_PINS,
                         ids=[" ".join(p[0][1:]) for p in STALL_PINS])
def test_stall_edge_bytes_are_pinned(argv, stdout_sha, stderr_sha, code):
    assert run(argv) == (stdout_sha, stderr_sha, code)


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


DECIDED = [p[0] for p in STALL_PINS if p[3] == 0]


@pytest.mark.parametrize("argv", DECIDED, ids=[" ".join(argv[1:]) for argv in DECIDED])
def test_decided_stall_digits_truncate_the_fraction_bracket(capsys, argv):
    # every line printed is the toward-zero truncation of both ends of the
    # exact bracket of that series or composite, which the enclosure contains
    flags = dict(zip(argv[1::2], argv[2::2]))
    places = int(flags["--digits"])
    cfg = [int(flags.get("--a1", 2)), Fraction(flags.get("--beta", 1)),
           int(flags.get("--budget-bits", 20))]
    brackets = [_bracket(int(flags[g]), *cfg) for g in ("--g1", "--g2")]
    brackets.append(_OPS[flags["--op"]](*brackets))
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    for line, iv in zip(lines, brackets, strict=True):
        ends = {int(x * 10 ** places) for x in (iv.lo, iv.hi)}
        assert len(ends) == 1 and line.split(" = ")[1] == format_fixed(ends.pop(), places)

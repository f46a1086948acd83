"""Exact integer and rational helpers: the size gate, roots, power
decompositions, decimal output.

Everything here is exact integer, Fraction or trapped-Inexact Decimal
arithmetic; no float enters this module at all.
"""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction

from .errors import ExponentBudgetExceeded

__all__ = [
    "MATERIALIZE_BITS",
    "check_power",
    "decimal_str",
    "gated_pow",
    "int_label",
    "value_label",
    "introot",
    "primitive_power",
    "floor_log10",
    "root_sci_string",
]

# Cap on any big integer we agree to build in full (~4 MiB).  Exponent
# schedules themselves may go far beyond this; every power whose size
# comes from the input passes check_power before it is built.
MATERIALIZE_BITS = 1 << 25


# Certificates legitimately carry integers with 10**5+ digits; the
# interpreter's int-to-str guard (CVE-2020-10735 mitigation) would refuse
# them.  Decimal output of exactly these integers is decimal_str's
# contract, so the limit is lifted.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# Longest repr that value_label quotes in full.
LABEL_CHARS = 64

# Up to this many bits plain str(n) is faster than decimal_str's divide
# and conquer (the crossover measured on CPython 3.11.7).
STR_CUTOVER_BITS = 1 << 15
# Pieces at most this wide are converted directly by Decimal(int).
_LEAF_BITS = 1 << 12


def check_power(base, e: int, base_bits: int) -> None:
    """Refuse to build base**e when e * base_bits is over the cap.

    `base` (a number or a label) is only formatted into the refusal.
    """
    if e * base_bits > MATERIALIZE_BITS:
        raise ExponentBudgetExceeded(
            f"{base}**{int_label(e)} would need about {int_label(e * base_bits)} bits, "
            f"over the {MATERIALIZE_BITS}-bit materialization cap")


def gated_pow(x: int, e: int, label=None) -> int:
    """x**e, refused by check_power before it is built; `label` names x in
    the refusal (x itself by default)."""
    check_power(x if label is None else label, e, x.bit_length())
    return x ** e


def int_label(x: int) -> str:
    """x in decimal up to 64 bits, else named by its bit length, so that a
    refusal about a huge number stays cheap to format and to read."""
    return str(x) if x.bit_length() <= 64 else f"<{x.bit_length()}-bit integer>"


def value_label(value) -> str:
    """An input as a refusal quotes it: an integer by int_label, a Fraction
    as its str with int_label parts, anything else by its repr cut to
    LABEL_CHARS characters."""
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        return int_label(num) if den == 1 else f"{int_label(num)}/{int_label(den)}"
    if isinstance(value, int) and not isinstance(value, bool):
        return int_label(value)
    text = repr(value)
    return text if len(text) <= LABEL_CHARS else f"{text[:LABEL_CHARS]}... ({len(text)} characters)"


def decimal_str(n: int) -> str:
    """str(n), in subquadratic time for huge n.

    CPython before 3.12 converts int to str in quadratic time.  Above
    STR_CUTOVER_BITS, n is split by bit halves and rebuilt as a
    decimal.Decimal, whose multiplication is subquadratic (Tim Peters'
    algorithm, CPython 3.12's Lib/_pylong.py).  The factor 2**z of n is
    split off first and applied as one Decimal product.  The context has
    unbounded precision and exponent range and traps Inexact, so a
    rounding raises instead of misprinting.  The memo of powers of two
    lives for one call.
    """
    if n.bit_length() <= STR_CUTOVER_BITS:
        return str(n)
    D = decimal.Decimal
    pow2 = {}

    def two_to(w):
        r = pow2.get(w)
        if r is None:
            if w <= _LEAF_BITS:
                r = D(1 << w)
            else:
                r = two_to(w >> 1) * two_to(w - (w >> 1))
            pow2[w] = r
        return r

    def rebuild(m, w):  # Decimal(m) for 0 <= m < 2**w
        if w <= _LEAF_BITS:
            return D(m)
        h = w >> 1
        hi = m >> h
        return rebuild(m - (hi << h), h) + rebuild(hi, w - h) * two_to(h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        m = abs(n)
        z = (m & -m).bit_length() - 1
        odd = m >> z
        digits = str(rebuild(odd, odd.bit_length()) * two_to(z))
    return "-" + digits if n < 0 else digits


def introot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0; returns (r, exact) with r**k <= n < (r+1)**k."""
    if n < 0 or k < 1:
        raise ValueError("introot requires n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n, True
    if k >= n.bit_length():  # 2**k > n: the root is 1, and 1**k != n
        return 1, False
    # Newton iteration on integers, seeded one bit high so it descends.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x, x ** k == n


def primitive_power(b: int) -> tuple[int, int]:
    """Unique decomposition b = m**t with m not itself a perfect power.

    b is a perfect k-th power iff k divides t, so the largest k < bits(b)
    with an exact k-th root is t itself.  The reference decomposition for
    tests of power comparisons; nothing on a decision path calls it.
    """
    if b < 2:
        raise ValueError("primitive_power requires b >= 2")
    for t in range(b.bit_length() - 1, 1, -1):
        m, exact = introot(b, t)
        if exact:
            return m, t
    return b, 1


# 30102999566/10**11 < log10(2) < 30102999567/10**11
_LOG10_2 = (30102999566, 30102999567)
_LOG10_2_DEN = 10 ** 11


def floor_log10(x: Fraction) -> int:
    """Exact floor(log10(x)) for x > 0."""
    if x <= 0:
        raise ValueError("floor_log10 requires x > 0")
    p, q = x.numerator, x.denominator
    # With D = bits(p) - bits(q), 2**(D-1) < x < 2**(D+1).  Scaling D-1 and
    # D+1 by the outer one of _LOG10_2 = (lo, hi), over _LOG10_2_DEN, puts
    # floor(log10 x) in [e, top]: at most two candidates while |D| < 10**10,
    # so at most one exact comparison.
    d = p.bit_length() - q.bit_length()
    lo, hi = _LOG10_2
    e = (d - 1) * (lo if d >= 1 else hi) // _LOG10_2_DEN
    top = -(-(d + 1) * (hi if d >= -1 else lo) // _LOG10_2_DEN) - 1
    while e < top and _le_pow10(e + 1, p, q):
        e += 1
    return e


def _le_pow10(e: int, p: int, q: int) -> bool:
    if e >= 0:
        return q * 10 ** e <= p
    return q <= p * 10 ** (-e)


def root_sci_string(x: Fraction, v: int, sig: int = 6) -> str:
    """Scientific-notation string of x**(1/v), truncated toward zero.

    x must be a positive rational; v >= 1. Digits are exact: the printed
    mantissa is floor(x**(1/v) * 10**(sig-1-e)) for the true decade e.
    """
    if x < 0:
        raise ValueError("root_sci_string requires x >= 0")
    if x == 0:
        return "0"
    if v < 1 or sig < 1:
        raise ValueError("need v >= 1 and sig >= 1")
    # decade e with 10**e <= x**(1/v) < 10**(e+1), i.e. 10**(v*e) <= x
    # (exact: v*e <= floor(log10 x) < v*(e+1))
    e = floor_log10(x) // v
    p, q = x.numerator, x.denominator
    # floor(x**(1/v) * 10**(sig-1-e)) == introot(floor(x * 10**(v*(sig-1-e))), v)
    shift = sig - 1 - e
    if shift >= 0:
        scaled = p * 10 ** (v * shift) // q
    else:
        scaled = p // (q * 10 ** (v * (-shift)))
    digits, _ = introot(scaled, v)
    s = str(digits)
    if len(s) != sig:
        raise AssertionError(f"decade normalization failed for {x} (got {s!r})")
    mantissa = s[0] + ("." + s[1:] if sig > 1 else "")
    return f"{mantissa}e{e:+d}"


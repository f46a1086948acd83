"""Exact integer and rational helpers: the size gate, roots, power
decompositions, fast division, decimal output, and the one exact
decimal context.

Everything here is exact integer, Fraction or trapped Decimal
arithmetic; no float enters this module at all.
"""

from __future__ import annotations

import contextlib
import decimal
import sys
import threading
from fractions import Fraction

from .errors import ExponentBudgetExceeded, InternalError

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

    `base` (a number or a label) is only formatted into the refusal; at
    e = 1 it names the whole number, as a product of powers is named.
    """
    if e * base_bits > MATERIALIZE_BITS:
        power = base if e == 1 else f"{base}**{int_label(e)}"
        raise ExponentBudgetExceeded(
            f"{power} would need about {int_label(e * base_bits)} bits, "
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


# Unbounded precision and exponent range, so that no result is rounded;
# every signal that a rounding or an undefined result raises is trapped.
# `exact_decimal` runs its body in a copy, so this one is never changed.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero])


@contextlib.contextmanager
def exact_decimal():
    """Run the body in the one exact Decimal context.  A trapped signal is
    an InternalError: a rounded digit must never print.

    Only integer-valued steps belong here (+, -, *, //, divmod, ** with a
    natural exponent, scaleb, to_integral_value).  libmpdec sizes a true
    division by the precision, so an inexact `/` in this context raises
    MemoryError before it can signal Inexact.
    """
    try:
        with decimal.localcontext(_EXACT):
            yield
    except decimal.DecimalException as exc:
        raise InternalError(f"decimal arithmetic signalled {type(exc).__name__}; "
                            "only exact results may print") from exc


class _PowerTable:
    """Decimal(b**e) by (b, e), kept for the life of the process: the
    certificates of one schedule print the same and nearby powers of two,
    and the same gap-bound powers o**a of g2's odd part; the decimal
    grid's terms of one series take the same powers of 5, 2, g and its odd
    part at every precision.  `bits` is the sum of e *
    bits(b - 1) over the keys of `values`, each b**e's width bound (b <=
    2**bits(b - 1); for b = 2 that is e).  `lock` is held by a whole
    lookup or conversion; Decimal arithmetic holds the interpreter lock,
    so threads lose no parallelism by it.
    """

    __slots__ = ("values", "bits", "lock")

    def __init__(self):
        self.values = {}
        self.bits = 0
        self.lock = threading.Lock()

    def clear(self):
        self.values.clear()
        self.bits = 0

    def power(self, b: int, e: int) -> decimal.Decimal:
        """Decimal(b**e) for b >= 2 and e >= 0, run with `lock` held.  An
        entry held is returned; a b**e of at most _LEAF_BITS bits, or with
        e <= 1, is converted directly; any other is the product b**h *
        b**(e - h) in the exact context, h the largest exponent of b held
        with e // 2 <= h < e, or e // 2 if none is.  The table is cleared
        whole before a new entry would take `bits` past 2 *
        MATERIALIZE_BITS, and a wider b**e is returned but not kept, so the
        bound holds for any caller."""
        key = (b, e)
        r = self.values.get(key)
        if r is not None:
            return r
        width = e * (b - 1).bit_length()
        if e <= 1 or width <= _LEAF_BITS:
            r = decimal.Decimal(b ** e)
        else:
            h = max((k for c, k in self.values if c == b and e >> 1 <= k < e), default=e >> 1)
            x, y = self.power(b, h), self.power(b, e - h)
            with exact_decimal():
                r = x * y
        cap = 2 * MATERIALIZE_BITS
        if width > cap:
            return r
        if self.bits + width > cap:
            self.clear()
        self.values[key] = r
        self.bits += width
        return r


_POWERS = _PowerTable()


def decimal_power(b: int, e: int) -> decimal.Decimal:
    """Decimal(b**e) for b >= 2 and e >= 0, from the one process-wide table
    _POWERS; a new entry is built under its lock.  It is not gated: a
    caller whose b or e comes from the input runs check_power first."""
    # a held entry is read without the lock: one dict lookup is atomic, and
    # an entry is a finished, immutable Decimal from the moment it is stored
    r = _POWERS.values.get((b, e))
    if r is not None:
        return r
    with _POWERS.lock:
        return _POWERS.power(b, e)


def decimal_str(n: int) -> str:
    """str(n), in subquadratic time for huge n.

    CPython before 3.12 converts int to str in quadratic time.  Above
    STR_CUTOVER_BITS, n is split by bit halves and rebuilt as a
    decimal.Decimal, whose multiplication is subquadratic (Tim Peters'
    algorithm, CPython 3.12's Lib/_pylong.py).  The factor 2**z of n is
    split off first and applied as one Decimal product, in the exact
    context.  Every power of two comes from `decimal_power`
    (`_PowerTable.power` states its reuse rule and its bound).

    It prints the integers born binary: convergents (`cli`) and
    certificates (`certjson`: convergents, gap ends over 2**k and the gap
    bound's numerator).  The gap bound's denominator, a power of g2 over
    a small gcd, prints from `decimal_power`s without it; a schema that
    wrote the 2**k denominators as powers too would leave it only the
    convergents and the numerators.
    """
    if n.bit_length() <= STR_CUTOVER_BITS:
        return str(n)
    D = decimal.Decimal

    def rebuild(m, w):  # Decimal(m) for 0 <= m < 2**w
        if w <= _LEAF_BITS:
            return D(m)
        h = w >> 1
        hi = m >> h
        return rebuild(m - (hi << h), h) + rebuild(hi, w - h) * decimal_power(2, h)

    with exact_decimal():
        m = abs(n)
        z = (m & -m).bit_length() - 1
        odd = m >> z
        digits = str(rebuild(odd, odd.bit_length()) * decimal_power(2, z))
    return "-" + digits if n < 0 else digits


# From 2**ceil(bits/k), up to twice the root, Newton shrinks x by about a
# factor 1 - 1/k a step, some k*ln(2) steps.  Above this k, introot starts
# instead within a factor 1 + 2**-63 of the root, bisected with 64
# `pow_bracket`s.  On n = 2**(30k) + 1 the two starts cost the same near
# k = 80 (CPython 3.11.7).  Both stay: no benchmark workload reaches this
# k, and the no-hang cases at k = 11,000 and 20,000 need the bracket.
_BRACKET_START_K = 80


def introot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0; returns (r, exact) with r**k <= n < (r+1)**k."""
    if n < 0 or k < 1:
        raise ValueError("introot requires n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n, True
    if k >= n.bit_length():  # 2**k > n: the root is 1, and 1**k != n
        return 1, False
    # Integer Newton from any x >= r = floor(n**(1/k)) stops at r: every step
    # gives y >= r (AM-GM, then floor), and y < x while x > r.
    w = -(-n.bit_length() // k)  # 2**w > r
    if k <= _BRACKET_START_K:
        x = 1 << w
    else:
        # x = m * 2**s for the least m <= 2**64 whose 128-bit bracket puts
        # x**k certainly above n (lo * 2**(t + s*k) > n), found by bisection
        s = max(0, w - 64)
        below, above = 0, 1 << w - s
        while above - below > 1:
            m = (below + above) >> 1
            lo, _, t = pow_bracket(m, k, 128)
            if lo > n >> t + s * k:
                above = m
            else:
                below = m
        x = above << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
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


def lowest_dyadic(n: int, k: int) -> tuple[int, int]:
    """n * 2**-k in lowest terms as (n >> z, k - z), z = min(k, trailing
    zero bits of n): gcd(n, 2**k) = 2**z, so no gcd is needed."""
    z = min(k, (n & -n).bit_length() - 1) if n else k
    return n >> z, k - z


# 30102999566/10**11 < log10(2) < 30102999567/10**11
_LOG10_2 = (30102999566, 30102999567)
_LOG10_2_DEN = 10 ** 11


def decimal_places(k: int) -> int:
    """K = ceil(k * 30102999567/10**11) >= k * log10(2), so that the
    decimal unit 10**-K is no coarser than the binary unit 2**-k."""
    return -(-k * _LOG10_2[1] // _LOG10_2_DEN)


def floor_log10(n: int, k: int) -> int:
    """Exact floor(log10(n * 2**-k)) for n > 0 and k >= 0."""
    if n <= 0 or k < 0:
        raise ValueError("floor_log10 requires n > 0 and k >= 0")
    # For x = n * 2**-k and D = bits(n) - (k + 1), 2**(D-1) < x < 2**(D+1).
    # Scaling D-1 and D+1 by the outer one of _LOG10_2 = (lo, hi), over
    # _LOG10_2_DEN, puts floor(log10 x) in [e, top]: at most two candidates
    # while |D| < 10**10, so at most one exact comparison.
    d = n.bit_length() - k - 1
    lo, hi = _LOG10_2
    e = (d - 1) * (lo if d >= 1 else hi) // _LOG10_2_DEN
    top = -(-(d + 1) * (hi if d >= -1 else lo) // _LOG10_2_DEN) - 1
    # 10**(e+1) <= x iff floor(x * 10**-(e+1)) >= 1
    while e < top and _floor_times_pow10(n, k, -e - 1) >= 1:
        e += 1
    return e


def _floor_times_pow10(n: int, k: int, s: int) -> int:
    """floor(n * 2**-k * 10**s) for n >= 0 and k >= 0.

    10**s = 5**s * 2**s, so this is a product or a quotient by 5**|s| and
    shifts.  5**|s| is first bracketed by `pow_bracket(5, |s|, w)`, w about
    64 bits more than the result has; 5**|s| itself is built, behind its
    gate, only when the bracket's two ends floor apart.
    """
    m = abs(s)

    def scaled(p, t):  # the floor with p * 2**t in place of 5**m
        if s < 0:
            return (n >> k - s + t) // p
        x = n * p
        return x << t + s - k if t + s >= k else x >> k - s - t

    w = max(0, n.bit_length() - k + s * 3322 // 1000) + 2 * m.bit_length() + 64
    lo, hi, t = pow_bracket(5, m, w)
    got = scaled(lo, t)
    return got if got == scaled(hi, t) else scaled(gated_pow(5, m), 0)


def pow_bracket(b: int, e: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, t) with lo * 2**t <= b**e <= hi * 2**t for b >= 1 and
    e >= 0: binary powering with both ends cut to w bits after each step,
    lo rounded down and hi up (so hi <= 2**w).  Each cut widens hi/lo by
    under 2**(2-w) and each later squaring doubles that, so hi/lo - 1 is
    about 8*e * 2**-w at most, whatever the size of b."""
    lo = hi = 1
    t = 0
    for bit in bin(e)[2:]:
        lo, hi, t = lo * lo, hi * hi, 2 * t
        if bit == "1":
            lo, hi = b * lo, b * hi
        cut = max(0, hi.bit_length() - w)
        lo, hi, t = lo >> cut, -(-hi >> cut), t + cut
    return lo, hi, t


def root_sci_string(n: int, k: int, v: int, sig: int) -> str:
    """Scientific-notation string of (n * 2**-k)**(1/v), truncated toward
    zero.

    n >= 0 and k >= 0 are integers; v >= 1. Digits are exact: the printed
    mantissa is floor(x**(1/v) * 10**(sig-1-e)) for x = n * 2**-k and the
    true decade e.
    """
    if n < 0:
        raise ValueError("root_sci_string requires n >= 0")
    if n == 0:
        return "0"
    if v < 1 or sig < 1:
        raise ValueError("need v >= 1 and sig >= 1")
    # decade e with 10**e <= x**(1/v) < 10**(e+1), i.e. 10**(v*e) <= x
    # (exact: v*e <= floor(log10 x) < v*(e+1))
    e = floor_log10(n, k) // v
    # floor(x**(1/v) * 10**(sig-1-e)) == introot(floor(x * 10**(v*(sig-1-e))), v)
    digits, _ = introot(_floor_times_pow10(n, k, v * (sig - 1 - e)), v)
    s = str(digits)
    if len(s) != sig:
        raise InternalError(
            f"decade normalization failed for {int_label(n)} * 2**-{k} (got {s!r})")
    mantissa = s[0] + ("." + s[1:] if sig > 1 else "")
    return f"{mantissa}e{e:+d}"


# Burnikel and Ziegler, "Fast Recursive Division" (MPI-I-98-1-022, 1998):
# the 2n-by-n-bit block is CPython 3.13's Lib/_pylong.py's, and a wider
# dividend is split in halves around it.  Up to this many bits of quotient
# or divisor the builtin divmod is as fast (on CPython 3.11.7 a
# 2n-by-n-bit division breaks even near n = 7,000).
_DIV_LIMIT = 4000


def int_divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) in O(n**1.58) time for n = bits(a) + bits(b).

    CPython before 3.12 divides in quadratic time; the builtin is used
    whenever the quotient or the divisor has at most _DIV_LIMIT bits.
    """
    if b.bit_length() <= _DIV_LIMIT or a.bit_length() - b.bit_length() <= _DIV_LIMIT:
        return divmod(a, b)
    if b < 0:
        q, r = int_divmod(-a, -b)
        return q, -r
    if a < 0:
        q, r = int_divmod(~a, b)
        return ~q, b + ~r
    n = b.bit_length()
    if a < b << n:
        return _div2n1n(a, b, n)
    # a = a_hi * 2**s + a_lo: the remainder r < b of a_hi puts the second
    # quotient under 2**s
    s = max(n, (a.bit_length() - n) // (2 * n) * n)
    q_hi, r = int_divmod(a >> s, b)
    q_lo, r = int_divmod(r << s | a & ((1 << s) - 1), b)
    return q_hi << s | q_lo, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < 2**n * b."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a <<= 1
        b <<= 1
        n += 1
    half_n = n >> 1
    mask = (1 << half_n) - 1
    b1, b2 = b >> half_n, b & mask
    q1, r = _div3n2n(a >> n, (a >> half_n) & mask, b, b1, b2, half_n)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half_n)
    if pad:
        r >>= 1
    return q1 << half_n | q2, r


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 * 2**n + a3, b) for b = b1 * 2**n + b2: a helper of _div2n1n."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r

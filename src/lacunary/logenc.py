"""Directed-rounding natural-log enclosures on one fixed-point grid.

The only transcendental function the package ever needs is ln, and only
ever as a two-sided enclosure: comparisons between huge powers reduce to
e1*ln(b1) vs e2*ln(b2), and empirical approximation exponents are ratios
of logs.  Every enclosure at precision prec is a pair of ints (lo, hi)
meaning ln in [lo, hi] * 2**-(prec + _GUARD), the grid the series below
is summed on; floor/ceil rounding keeps the true value inside, and
enclosures at one precision add and scale as plain ints.

Core identity: ln y = 2*atanh(z) with z = (y-1)/(y+1), summed as
z + z^3/3 + z^5/5 + ...  For y in [1, 2] we get z <= 1/3, so the series
loses a factor >= 9 per term and the truncation error is under twice the
first dropped term.
"""

from __future__ import annotations

from functools import lru_cache

# Guard bits beyond the requested fractional precision; absorbs per-term
# rounding slop and the truncation remainder.
_GUARD = 16
# The series loop stops once the current term drops below 2**_STOP fixed
# point units; the tail is then under 2*2**_STOP + 1 units.
_STOP = 8
# ln of an integer wider than this keeps only the leading prec+32 bits
# (bracketed between m and m+1 at the right shift).
_MANTISSA_SLACK = 32


def _ceil_div(a: int, b: int) -> int:
    # b > 0 everywhere below
    return -((-a) // b)


def ln_mantissa(num: int, den: int, prec: int) -> tuple[int, int]:
    """Enclosure of ln(num/den) for den <= num <= 2*den.

    Fixed-point atanh series with floor rounding on the lower track and
    ceil rounding on the upper; width is O(prec * 2**-prec).
    """
    if den < 1 or num < den or num > 2 * den:
        raise ValueError(f"ln_mantissa needs 1 <= num/den <= 2, got {num}/{den}")
    if num == den:
        return 0, 0
    w = prec + _GUARD
    zn = num - den          # z = zn/zd in (0, 1/3]
    zd = num + den
    zn2, zd2 = zn * zn, zd * zd
    p_lo = (zn << w) // zd
    p_hi = _ceil_div(zn << w, zd)
    s_lo = 0
    s_hi = 0
    m = 1
    while p_hi >= (1 << _STOP):
        s_lo += p_lo // m
        s_hi += _ceil_div(p_hi, m)
        p_lo = p_lo * zn2 // zd2
        p_hi = _ceil_div(p_hi * zn2, zd2)
        m += 2
    # remaining terms: sum z^j/j over odd j >= m is < p_hi * 9/8 units
    s_hi += 2 * p_hi + 1
    return 2 * s_lo, 2 * s_hi


@lru_cache(maxsize=None)
def ln_two(prec: int) -> tuple[int, int]:
    return ln_mantissa(2, 1, prec)


@lru_cache(maxsize=4096)
def _ln_modest_int(b: int, prec: int) -> tuple[int, int]:
    # b of manageable bit length: split off the power of two exactly
    e = b.bit_length() - 1
    m_lo, m_hi = ln_mantissa(b, 1 << e, prec)
    l2_lo, l2_hi = ln_two(prec)
    return e * l2_lo + m_lo, e * l2_hi + m_hi


def ln_int_interval(b: int, prec: int) -> tuple[int, int]:
    """Enclosure of ln(b) for an integer b >= 1 of any size.

    Very wide b is first reduced to its leading prec+32 bits: with
    b in [m*2**s, (m+1)*2**s) we have ln b in [ln m, ln(m+1)] + s*ln 2,
    so the reduction costs one extra ulp-scale widening and keeps the
    series arithmetic on small integers.
    """
    if b < 1:
        raise ValueError(f"ln_int_interval needs b >= 1, got {b}")
    keep = prec + _MANTISSA_SLACK
    e = b.bit_length() - 1
    if e <= keep:
        return _ln_modest_int(b, prec)
    shift = e - keep
    m = b >> shift
    lo = _ln_modest_int(m, prec)[0]
    hi = _ln_modest_int(m + 1, prec)[1]
    l2_lo, l2_hi = ln_two(prec)
    return lo + shift * l2_lo, hi + shift * l2_hi


def ln_fraction_interval(num: int, den: int, prec: int) -> tuple[int, int]:
    """Enclosure of ln(num/den) for integers num, den >= 1 of any size."""
    num_lo, num_hi = ln_int_interval(num, prec)
    den_lo, den_hi = ln_int_interval(den, prec)
    return num_lo - den_hi, num_hi - den_lo


def ln_of_interval(iv, prec: int) -> tuple[int, int]:
    """Enclosure of {ln t : t in iv} for an interval (anything with
    rational `lo` and `hi`) with iv.lo > 0.

    ln is increasing, so the image is bracketed by outward-rounded logs
    of the endpoints.
    """
    if iv.lo <= 0:
        raise ValueError("ln_of_interval needs a strictly positive interval")
    lo = ln_fraction_interval(iv.lo.numerator, iv.lo.denominator, prec)
    if iv.hi == iv.lo:
        return lo
    return lo[0], ln_fraction_interval(iv.hi.numerator, iv.hi.denominator, prec)[1]

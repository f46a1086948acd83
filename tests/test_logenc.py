import random
from fractions import Fraction

import mpmath
import pytest

from lacunary.interval import RationalInterval
from lacunary.logenc import (
    _GUARD,
    ln_fraction_interval,
    ln_int_interval,
    ln_mantissa,
    ln_of_interval,
    ln_two,
)


def interval(pair: tuple, prec: int) -> RationalInterval:
    """The pair (lo, hi) on the grid 2**-(prec + _GUARD) as a rational interval."""
    lo, hi = pair
    return RationalInterval(Fraction(lo, 2 ** (prec + _GUARD)), Fraction(hi, 2 ** (prec + _GUARD)))


def contains_ln(iv: RationalInterval, x: Fraction) -> bool:
    """Oracle check iv.lo <= ln(x) <= iv.hi at precision far beyond iv.width."""
    with mpmath.workprec(max(4 * len_bits(iv), 256)):
        t = mpmath.ln(mpmath.mpf(x.numerator)) - mpmath.ln(mpmath.mpf(x.denominator))
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        return lo <= t <= hi


def len_bits(iv: RationalInterval) -> int:
    return max(iv.lo.denominator.bit_length(), iv.hi.denominator.bit_length())


@pytest.mark.parametrize("prec", [32, 64, 128, 512])
@pytest.mark.parametrize("b", [2, 3, 5, 6, 7, 10, 12, 97, 1296, 2**31 - 1])
def test_ln_int_contains_true_value(b, prec):
    iv = interval(ln_int_interval(b, prec), prec)
    # width scales like bit_length(b) * 2**-prec; allow generous slack
    assert iv.width <= Fraction(1, 2 ** (prec - 8))
    assert contains_ln(iv, Fraction(b))


def test_ln_two_cached_and_tight():
    iv = ln_two(64)
    assert iv is ln_two(64)
    iv = interval(iv, 64)
    assert contains_ln(iv, Fraction(2))
    assert iv.width < Fraction(1, 2**64)


def test_ln_mantissa_domain_and_endpoints():
    assert interval(ln_mantissa(5, 5, 64), 64).width == 0
    iv = interval(ln_mantissa(2, 1, 64), 64)
    assert contains_ln(iv, Fraction(2))
    with pytest.raises(ValueError):
        ln_mantissa(3, 1, 64)
    with pytest.raises(ValueError):
        ln_mantissa(1, 2, 64)


def test_width_shrinks_with_precision():
    widths = [interval(ln_int_interval(3, p), p).width for p in (32, 64, 128, 256)]
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))


def test_huge_integer_uses_mantissa_reduction():
    # 3**41000 is ~65k bits; the enclosure must still contain 41000*ln 3
    iv = interval(ln_int_interval(3**41000, 64), 64)
    with mpmath.workprec(256):
        t = 41000 * mpmath.ln(3)
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo <= t <= hi
    # reduction keeps the arithmetic small: denominators stay near 2**prec
    assert len_bits(iv) < 200


def test_ln_fraction_random(seed=20260823):
    rng = random.Random(seed)
    for _ in range(50):
        p = rng.randrange(1, 10**9)
        q = rng.randrange(1, 10**9)
        x = Fraction(p, q)
        iv = interval(ln_fraction_interval(p, q, 64), 64)
        assert contains_ln(iv, x)
        assert iv.width <= Fraction(4, 2**64)


def test_ln_fraction_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_fraction_interval(0, 1, 64)
    with pytest.raises(ValueError):
        ln_fraction_interval(-3, 7, 64)


def test_ln_of_interval_monotone_image():
    iv = RationalInterval(Fraction(2), Fraction(3))
    img = interval(ln_of_interval(iv, 64), 64)
    assert contains_ln(RationalInterval(img.lo, img.lo + Fraction(1, 2**60)), Fraction(2))
    assert contains_ln(RationalInterval(img.hi - Fraction(1, 2**60), img.hi), Fraction(3))
    point = interval(ln_of_interval(RationalInterval.point(Fraction(7, 2)), 64), 64)
    assert contains_ln(point, Fraction(7, 2))
    with pytest.raises(ValueError):
        ln_of_interval(RationalInterval(Fraction(0), Fraction(1)), 64)

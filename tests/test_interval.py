from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lacunary.interval import RationalInterval

rats = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64)
unit = st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=64)


def make(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    return RationalInterval(lo, hi)


def pick(iv, t):
    return iv.lo + t * (iv.hi - iv.lo)


def test_constructor_validation():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.lo == Fraction(1, 3) and iv.hi == Fraction(1, 2)
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))
    p = RationalInterval.point(Fraction(5, 7))
    assert p.lo == p.hi == Fraction(5, 7)
    assert p.width == 0


def test_membership():
    inner = make(Fraction(1, 4), Fraction(1, 2))
    assert Fraction(1, 3) in inner


@given(rats, rats, rats, rats, unit, unit)
def test_add_sub_mul_contain_pointwise_results(a, b, c, d, t1, t2):
    u, v = make(a, b), make(c, d)
    x, y = pick(u, t1), pick(v, t2)
    assert x + y in u + v
    assert x - y in u - v
    assert x * y in u * v
    assert -x in -u


@given(rats, rats, rats, rats, unit, unit)
def test_div_contains_pointwise_results(a, b, c, d, t1, t2):
    u, v = make(a, b), make(c, d)
    if v.lo <= 0 <= v.hi:
        with pytest.raises(ZeroDivisionError):
            u / v
        return
    x, y = pick(u, t1), pick(v, t2)
    assert x / y in u / v


@given(rats, rats, unit)
def test_abs_contains_pointwise_results(a, b, t):
    u = make(a, b)
    x = pick(u, t)
    assert abs(x) in u.abs()
    assert u.abs().lo >= 0


def test_scalar_mixing():
    iv = make(Fraction(1), Fraction(2))
    assert (iv + 1).lo == 2
    assert (1 + iv).hi == 3
    assert (2 * iv).hi == 4
    assert (iv * Fraction(1, 2)).lo == Fraction(1, 2)
    assert (1 - iv).lo == -1
    assert (iv / 2).hi == 1
    assert (1 / iv).lo == Fraction(1, 2)


def test_width():
    assert make(Fraction(1, 3), Fraction(1, 2)).width == Fraction(1, 6)

import random
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from lacunary.errors import (
    ExponentBudgetExceeded,
    InvalidConfigError,
    NonIntegralExponent,
)
from lacunary.schedule import GrowthCheck, GrowthWindow, PowerSchedule, validate_growth


def test_squaring_schedule_values():
    s = PowerSchedule(2, Fraction(1))
    assert [s.exponent(n) for n in range(1, 6)] == [2, 4, 16, 256, 65536]
    assert s.known() == (2, 4, 16, 256, 65536)


def test_cubing_schedule_values():
    s = PowerSchedule(2, Fraction(2))
    assert [s.exponent(n) for n in range(1, 4)] == [2, 8, 512]


def test_half_step_schedule_stops_where_root_fails():
    # a**(3/2) stays integral only while a is a perfect square
    s = PowerSchedule(4, Fraction(1, 2))
    assert s.exponent(1) == 4
    assert s.exponent(2) == 8
    with pytest.raises(NonIntegralExponent) as info:
        s.exponent(3)
    assert "perfect 2-th power" in str(info.value)
    # failure does not corrupt earlier values
    assert s.exponent(2) == 8
    assert s.known() == (4, 8)


def test_budget_exhaustion():
    s = PowerSchedule(2, Fraction(1), budget_bits=10)
    assert s.exponent(4) == 256
    with pytest.raises(ExponentBudgetExceeded):
        s.exponent(5)
    big = PowerSchedule(2, Fraction(1), budget_bits=33)
    assert big.exponent(6) == 2**32


def test_over_budget_exponent_is_refused_before_it_is_built():
    # a_2 = 2**(10**8 + 1) would be a 12.5 MB integer
    s = PowerSchedule(2, 10**8)
    tracemalloc.start()
    try:
        with pytest.raises(ExponentBudgetExceeded):
            s.exponent(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_budget_bits_capped_at_materialization_limit():
    assert PowerSchedule(2, Fraction(1), budget_bits=2**25).budget_bits == 2**25
    with pytest.raises(InvalidConfigError) as info:
        PowerSchedule(2, Fraction(1), budget_bits=2**25 + 1)
    assert str(info.value) == "budget_bits: must be at most 33554432, got 33554433"


def test_constructor_validation():
    with pytest.raises(InvalidConfigError):
        PowerSchedule(1, Fraction(1))
    with pytest.raises(InvalidConfigError):
        PowerSchedule(2, Fraction(0))
    with pytest.raises(InvalidConfigError):
        PowerSchedule(2, Fraction(-1, 2))
    with pytest.raises(InvalidConfigError):
        PowerSchedule(2, "not-a-rational")
    with pytest.raises(InvalidConfigError):
        PowerSchedule(2, Fraction(1), budget_bits=1)
    with pytest.raises(ExponentBudgetExceeded):
        PowerSchedule(2**30, Fraction(1), budget_bits=20)
    with pytest.raises(InvalidConfigError):
        PowerSchedule(2, Fraction(1)).exponent(0)


def test_recurrence_is_exact():
    s = PowerSchedule(3, Fraction(2, 1))
    u, v = 2, 1
    for n in range(1, 3):
        assert s.exponent(n + 1) ** v == s.exponent(n) ** (u + v)


def test_strictly_increasing():
    for a1, beta in [(2, Fraction(1)), (3, Fraction(2)), (4, Fraction(1, 2))]:
        s = PowerSchedule(a1, beta, budget_bits=40)
        vals = []
        for n in range(1, 6):
            try:
                vals.append(s.exponent(n))
            except (NonIntegralExponent, ExponentBudgetExceeded):
                break
        assert vals == sorted(set(vals))
        assert all(b >= 2 * a for a, b in zip(vals, vals[1:]))


def test_agrees_with_independent_root_oracle():
    """100 random (a1, beta) pairs, values kept below 2**64.

    The oracle decides integrality of a**(1+u/v) by float root plus an
    exact window check, independently of the library's introot.
    """
    rng = random.Random(20260823)

    def vth_root_oracle(a: int, v: int):
        if v == 1:
            return a, True
        guess = round(a ** (1.0 / v))
        for r in range(max(guess - 2, 1), guess + 3):
            if r**v == a:
                return r, True
        return None, False

    checked_steps = 0
    for _ in range(100):
        a1 = rng.randrange(2, 2**16)
        beta = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        s = PowerSchedule(a1, beta, budget_bits=64)
        u, v = beta.numerator, beta.denominator
        expected = a1
        for n in range(2, 8):
            root, ok = vth_root_oracle(expected, v)
            if not ok:
                with pytest.raises(NonIntegralExponent):
                    s.exponent(n)
                break
            nxt = root ** (u + v)
            if nxt > 2**64:
                with pytest.raises(ExponentBudgetExceeded):
                    s.exponent(n)
                break
            assert s.exponent(n) == nxt
            expected = nxt
            checked_steps += 1
    assert checked_steps >= 40


def test_thread_safety_smoke():
    s = PowerSchedule(2, Fraction(1), budget_bits=33)
    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(lambda _: s.exponent(6), range(32)))
    assert set(results) == {2**32}


def test_growth_window_validation():
    with pytest.raises(InvalidConfigError):
        GrowthWindow(Fraction(1), Fraction(2))
    with pytest.raises(InvalidConfigError):
        GrowthWindow(Fraction(3, 2), Fraction(1))
    assert GrowthCheck(1, True, False).ok is False
    assert GrowthCheck(1, True, True).ok is True


def test_validate_growth_reports():
    s = PowerSchedule(2, Fraction(1), budget_bits=33)
    tight = validate_growth(s, GrowthWindow(Fraction(3, 2), Fraction(2)), 3)
    assert [c.ok for c in tight] == [True, True, True]
    # alpha=4 puts the lower edge above a doubling schedule at every index
    steep = validate_growth(s, GrowthWindow(Fraction(4), Fraction(2)), 3)
    assert [c.lower_ok for c in steep] == [False, False, False]
    assert [c.ok for c in steep] == [False, False, False]
    assert validate_growth(s, GrowthWindow(Fraction(3, 2), Fraction(2)), 0) == []
    with pytest.raises(InvalidConfigError):
        validate_growth(s, GrowthWindow(Fraction(3, 2), Fraction(2)), -1)


def test_validate_growth_matches_materialized_comparison():
    s = PowerSchedule(3, Fraction(1), budget_bits=20)
    w = GrowthWindow(Fraction(5, 2), Fraction(3, 2))
    for c in validate_growth(s, w, 2):
        a, b = s.exponent(c.n), s.exponent(c.n + 1)
        p, q = w.alpha.numerator, w.alpha.denominator
        assert c.lower_ok == (a**p <= b**q)
        ka = w.k * w.alpha
        p2, q2 = ka.numerator, ka.denominator
        assert c.upper_ok == (b**q2 < a**p2)


def _materialized_check(s, w, n):
    a, b = s.exponent(n), s.exponent(n + 1)
    p, q = w.alpha.numerator, w.alpha.denominator
    ka = w.k * w.alpha
    return GrowthCheck(n, a**p <= b**q, b**ka.denominator < a**ka.numerator)


def test_validate_growth_property_against_materialized(seed=20261018):
    rng = random.Random(seed)
    checked = steps = 0
    for _ in range(150):
        beta = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        v = beta.denominator
        a1 = rng.randrange(2, 40) ** rng.choice((1, v, v * v))
        if a1 > 2**64:
            continue
        s = PowerSchedule(a1, beta, budget_bits=64)
        reach = 0  # largest n with a_{n+1} in the schedule
        while True:
            try:
                s.exponent(reach + 2)
            except (NonIntegralExponent, ExponentBudgetExceeded) as exc:
                refusal = type(exc)
                break
            reach += 1
        step = 1 + beta
        alpha = Fraction(rng.randrange(11, 40), 10)
        windows = [GrowthWindow(alpha, Fraction(rng.randrange(11, 30), 10)),
                   # lower edge: a_n**alpha == a_{n+1}
                   GrowthWindow(step, Fraction(rng.randrange(11, 30), 10)),
                   # upper edge: a_{n+1} == a_n**(k*alpha)
                   GrowthWindow(1 + beta / 2, step / (1 + beta / 2))]
        for w in windows:
            report = validate_growth(s, w, reach)
            assert report == [_materialized_check(s, w, n) for n in range(1, reach + 1)]
            checked += len(report)
            # one index further the schedule's own refusal comes out
            with pytest.raises(refusal):
                validate_growth(s, w, reach + 1)
        steps += reach
    assert checked >= 150 and steps >= 30


def test_half_step_from_a_wide_power_of_two_roots_only_the_small_base():
    # a_n = 2**(32768 * (3/2)**(n-1)) = 2**(2**(16-n) * 3**(n-1)) for n <= 16;
    # a_16 = 2**(3**15) is odd-exponent, so a_17 leaves the integers
    s = PowerSchedule(2**32768, Fraction(1, 2), 2**25)
    start = time.perf_counter()
    for n in range(1, 17):
        assert s.exponent(n) == 1 << (2 ** (16 - n) * 3 ** (n - 1))
    with pytest.raises(NonIntegralExponent) as info:
        s.exponent(17)
    assert time.perf_counter() - start < 2
    assert str(info.value) == ("a_17 = a_16**(3/2) is not an integer: "
                               "a_16 = <14348908-bit integer> is not a perfect 2-th power")

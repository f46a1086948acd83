"""Acceptance gate: ten end-to-end checks pinning the package's headline
behaviors.  Each test prints one PASS line; `pytest -v` shows one
pass/fail line per criterion either way.

Expected values were fixed ahead of time from independent oracles
(direct big-integer/Fraction arithmetic, float logs, mpmath); tolerances
are pinned constants below.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from lacunary.certjson import dumps, loads
from lacunary.cli import RunConfig, cmd_measure
from lacunary.errors import ExponentBudgetExceeded, TieEncountered
from lacunary.measure import AlgebraicTarget, approximation_measure, find_n1
from lacunary.powercmp import Ordering, PurePower, compare
from lacunary.schedule import PowerSchedule
from lacunary.series import LacunarySeries, deepest_feasible
from lacunary.witness import (
    Op,
    empirical_exponent,
    find_n0,
    gap_bound,
    true_gap_enclosure,
    verify_roth_instance,
)

from conftest import CLI_ENV, build_example

# pinned once, ahead of any run
GRID_BASES = range(2, 8)
GRID_A1 = (2, 3, 4)
GRID_BETA = (Fraction(1), Fraction(2))
GRID_BUDGET_BITS = 17  # exponents capped at 2**17
TIME_LIMIT_GRID = 60.0
TIME_LIMIT_GAPS = 30.0
REL_TOL_MARGIN = 1e-6
ABS_TOL_EXPONENT = 1e-6


def grid_series():
    for g in GRID_BASES:
        for a1 in GRID_A1:
            for beta in GRID_BETA:
                sched = PowerSchedule(a1, beta, budget_bits=GRID_BUDGET_BITS)
                yield LacunarySeries(g, sched)


def feasible_exponents(sched):
    exps = []
    for n in range(1, 16):
        try:
            exps.append(sched.exponent(n))
        except ExponentBudgetExceeded:
            break
    return exps


def test_criterion_01_reduced_denominators_across_grid():
    start = time.monotonic()
    checked = 0
    for s in grid_series():
        g = s.base
        exps = feasible_exponents(s.schedule)
        for n in range(1, len(exps) + 1):
            conv = s.partial_sum(n)
            assert conv.q == g ** exps[n - 1]
            assert conv.p % g == 1
            assert math.gcd(conv.p, conv.q) == 1
            # independent oracle: direct rational summation
            assert conv.fraction == sum(Fraction(1, g**a) for a in exps[:n])
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 126
    assert elapsed < TIME_LIMIT_GRID
    print(f"criterion 1: PASS - {checked} reduced-denominator checks in {elapsed:.1f}s")


def test_criterion_02_tail_sandwich_across_grid():
    start = time.monotonic()
    checked = 0
    for s in grid_series():
        deepest = deepest_feasible(s)
        for n in range(1, deepest - 1):
            sn = s.partial_sum(n).fraction
            lower, upper = s.tail_sandwich(n)
            iv = s.enclose(n + 2)
            # the true value sits in iv, so these are exact certificates
            # of lower < theta - theta_n < upper
            assert iv.lo - sn > lower
            assert iv.hi - sn < upper
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 54
    assert elapsed < TIME_LIMIT_GRID
    print(f"criterion 2: PASS - {checked} exact sandwich certificates in {elapsed:.1f}s")


def test_criterion_03_threshold_index_on_example():
    c = build_example(Op.SUM, budget_bits=33)
    scan = find_n0(c, 3, 5)
    assert scan.n0 == 3
    assert [t.passed for t in scan.checks] == [False, False, True, True, True]
    # per-index cross-checks
    sched = c.schedule
    for chk in scan.checks:
        a_n, a_next = sched.exponent(chk.n), sched.exponent(chk.n + 1)
        # float-log oracle with a wide safety margin
        left, right = a_next * math.log(2), 3 * a_n * math.log(6)
        assert abs(left - right) > 1e-6 * max(left, right)
        assert (left > right) == chk.passed
        # exact integer comparison wherever both sides materialize
        if a_next <= 70000:
            assert (2**a_next > 6 ** (3 * a_n)) == chk.passed
    print("criterion 3: PASS - threshold index n0=3 with fails {1,2} and passes {3,4,5}")


def test_criterion_04_gap_bounds_at_small_indices():
    start = time.monotonic()
    c = build_example(Op.SUM)
    sched = c.schedule
    for n in (2, 3):
        a_next = sched.exponent(n + 1)
        bound = gap_bound(c, n)
        # sum/difference bound over the smaller base: 4 / 2**a_{n+1}
        assert bound == Fraction(4, 2**a_next)
        gap = true_gap_enclosure(c, n, 5)
        assert 0 < gap.lo and gap.hi < bound
    prod = build_example(Op.PRODUCT)
    for n in (2, 3):
        bound = gap_bound(prod, n)
        gap = true_gap_enclosure(prod, n, 5)
        assert gap.hi <= bound
    assert float(gap_bound(prod, 2)) == pytest.approx(4.3823e-5, rel=1e-3)
    quot = build_example(Op.QUOTIENT)
    assert gap_bound(quot, 2) == Fraction(9, 8192)
    for n in (2, 3):
        gap = true_gap_enclosure(quot, n, 5)
        assert gap.hi <= gap_bound(quot, n)
    elapsed = time.monotonic() - start
    assert elapsed < TIME_LIMIT_GAPS
    print(f"criterion 4: PASS - certified gap bounds at n=2,3 for all ops in {elapsed:.1f}s")


def test_criterion_05_strict_approximation_instances():
    c = build_example(Op.SUM)
    fail2 = verify_roth_instance(c, 2, Fraction(5, 2))
    assert not fail2.passed
    assert float(fail2.margin) == pytest.approx(9.2404528e2, rel=REL_TOL_MARGIN)
    ok3 = verify_roth_instance(c, 3, Fraction(5, 2))
    assert ok3.passed
    assert float(ok3.margin) == pytest.approx(1.1544393e-46, rel=REL_TOL_MARGIN)
    ok4 = verify_roth_instance(c, 4, Fraction(5, 2))
    assert ok4.passed
    # independent cleared-power recomputation of both verdicts
    q2, q3 = 6**4, 6**16
    gap2 = true_gap_enclosure(c, 2, 5)
    assert gap2.lo**2 * q2**5 >= 1  # certified fail at n=2
    gap3 = true_gap_enclosure(c, 3, 5)
    assert gap3.hi**2 * q3**5 < 1  # certified pass at n=3
    print("criterion 5: PASS - strict test fails at n=2 (margin ~9.2e2) and "
          "passes at n=3,4 (margins ~1.2e-46, ~5.2e-19231)")


def test_criterion_06_exponent_intervals_increase():
    c = build_example(Op.SUM)
    lows = []
    for n in (1, 2, 3, 4):
        iv = empirical_exponent(c, n, min(n + 2, 5))
        lows.append(iv.lo)
    expected = [0.723345623, 1.547198968, 6.189644916, 99.034318652]
    for lo, want in zip(lows, expected):
        assert float(lo) == pytest.approx(want, abs=ABS_TOL_EXPONENT)
    assert all(a < b for a, b in zip(lows, lows[1:]))
    assert lows[2] > 2 and lows[3] > 2
    print("criterion 6: PASS - exponent lower bounds strictly increase and "
          "exceed 2 from n=3 on")


def test_criterion_07_measure_closed_form():
    for h in range(1, 11):
        m = approximation_measure(AlgebraicTarget(3, h))
        assert m.bound == Fraction(1, (18 * h) ** 13)
        assert f"bound: 1/({18 * h})^13" in m.derivation
        report = cmd_measure(RunConfig(height=h))
        assert f"bound: 1/({18 * h})^13" in report.splitlines()
    print("criterion 7: PASS - closed-form measure 1/(18H)^13 and verbatim "
          "report line for H=1..10")


def test_criterion_08_bracketing_index_and_tie():
    c = build_example(Op.SUM)
    res = find_n1(c, AlgebraicTarget(3, 3), 4)
    assert res.n1 == 2
    assert res.dominance_certified is True
    # both strict inequalities, re-materialized exactly
    assert 6**4 < 54**2 < 6**16
    assert 6**16 > 54 * 6**12
    with pytest.raises(TieEncountered) as info:
        find_n1(c, AlgebraicTarget(3, 2), 4)
    assert info.value.n == 2 and info.value.side == "left"
    print("criterion 8: PASS - height 3 brackets at n1=2 (certified); height 2 "
          "ties at n=2 on the left")


def test_criterion_09_randomized_power_comparisons():
    rng = random.Random(20260823)
    for _ in range(1000):
        b1, b2 = rng.randrange(2, 65), rng.randrange(2, 65)
        e1, e2 = rng.randrange(0, 4097), rng.randrange(0, 4097)
        got = compare(PurePower(b1, e1), PurePower(b2, e2))
        v1, v2 = b1**e1, b2**e2
        want = (Ordering.LESS if v1 < v2
                else Ordering.GREATER if v1 > v2 else Ordering.EQUAL)
        assert got is want
    # the equality path, via constructed common-primitive-base pairs
    equals = 0
    for m in (2, 3, 5, 7, 10):
        for s, t in ((1, 2), (2, 3), (3, 5)):
            assert compare(PurePower(m**s, 6 * t), PurePower(m**t, 6 * s)) is Ordering.EQUAL
            equals += 1
    assert equals == 15
    print("criterion 9: PASS - 1000 randomized comparisons agree with "
          "materialized values; 15 constructed equalities detected")


def test_criterion_10_deterministic_certificates(tmp_path):
    blobs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "lacunary", "witness", "--out", str(path)],
            capture_output=True, text=True, env=CLI_ENV)
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    text = blobs[0].decode("utf-8")
    assert dumps(loads(text)) == text
    print("criterion 10: PASS - witness certificate byte-identical across runs "
          "and through a reparse round-trip")

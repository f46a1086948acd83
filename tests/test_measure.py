from fractions import Fraction

import pytest

from lacunary.cli import main
from lacunary.errors import (
    InvalidConfigError,
    NotFound,
    TieEncountered,
)
from lacunary.measure import (
    AlgebraicTarget,
    approximation_measure,
    find_n1,
)
from lacunary.witness import Op

from conftest import build_example


def test_target_validation():
    AlgebraicTarget(degree=3, height=2)
    with pytest.raises(InvalidConfigError):
        AlgebraicTarget(degree=1, height=1)
    with pytest.raises(InvalidConfigError):
        AlgebraicTarget(degree=Fraction(5, 2), height=1)
    with pytest.raises(InvalidConfigError):
        AlgebraicTarget(degree=2, height=0)
    with pytest.raises(InvalidConfigError):
        AlgebraicTarget(degree=True, height=1)


def test_approximation_measure_closed_form():
    m = approximation_measure(AlgebraicTarget(3, 1))
    assert m.bound == Fraction(1, 18**13)
    assert "bound: 1/(18)^13" in m.derivation
    assert approximation_measure(AlgebraicTarget(2, 1)).bound == Fraction(1, 8**9)
    assert approximation_measure(AlgebraicTarget(3, 5)).bound == Fraction(1, 90**13)


@pytest.mark.parametrize("d, h", [(2, 1), (3, 50), (12, 7), (3000, 1)])
def test_measure_prints_the_denominator_of_its_bound(d, h):
    # printed from a Decimal power, it must be the int power's decimal text
    m = approximation_measure(AlgebraicTarget(d, h))
    base, expo = 2 * h * d * d, 1 + 4 * d
    assert (m.base, m.exponent) == (base, expo)
    assert m.derivation[-1] == f"denominator: {base ** expo}"
    assert m.bound == Fraction(1, base ** expo)


def test_measure_degree_over_the_cap_exits_3(capsys):
    # d = 226719 is the least degree whose denominator is over 2**25 bits
    assert main(["measure", "--d", "226719"]) == 3
    assert capsys.readouterr() == (
        "", "budget error: 102803009922**906877 would need about 33554449 bits, "
            "over the 33554432-bit materialization cap\n")


def test_measure_denominator_factorization():
    for d, h in [(2, 1), (3, 4), (4, 7), (5, 12)]:
        m = approximation_measure(AlgebraicTarget(d, h))
        e = 1 + 4 * d
        assert m.bound.denominator == 2**e * h**e * d ** (2 * e)
        assert m.bound.numerator == 1


def test_find_n1_example_height_three():
    res = find_n1(build_example(Op.SUM), AlgebraicTarget(3, 3), 4)
    assert res.n1 == 2
    # n=1 fails on the right (6**4 = 1296 < 54**2), n=2 brackets
    assert [(e.n, e.left.value, e.right.value if e.right else None) for e in res.evidence] == [
        (1, "less", "less"),
        (2, "less", "greater"),
    ]
    assert res.dominance_certified is True
    # the crude exponent step a_3 > 2*d*a_2 is false here: 16 < 24
    assert res.exponent_step_ok is False


def test_find_n1_exact_integer_comparisons():
    # re-derive the height-3 bracket by materialized arithmetic
    threshold_sq = (2 * 3 * 3**2) ** 2
    assert 6**4 < threshold_sq  # left of n=2 (a_2 = 4)
    assert 6**16 > threshold_sq  # right of n=2 (a_3 = 16)
    assert 6**2 < threshold_sq and 6**4 < threshold_sq  # n=1 fails right


def test_find_n1_tie_surfaces_on_left():
    # H=2, d=3: 2*H*d**2 = 36 = 6**2 sits exactly on the a_2 = 4 boundary
    # of the squared scan, i.e. (g1*g2)**a_2 == 36**2
    with pytest.raises(TieEncountered) as info:
        find_n1(build_example(Op.SUM), AlgebraicTarget(3, 2), 4)
    assert info.value.n == 2
    assert info.value.side == "left"


def test_find_n1_tie_on_right_at_scan_end():
    with pytest.raises(TieEncountered) as info:
        find_n1(build_example(Op.SUM), AlgebraicTarget(3, 2), 1)
    assert info.value.n == 1
    assert info.value.side == "right"


def test_find_n1_not_found():
    # threshold above every reachable power: (2*H*d**2)**2 > 6**a_3
    with pytest.raises(NotFound):
        find_n1(build_example(Op.SUM), AlgebraicTarget(3, 10**5), 2)
    with pytest.raises(InvalidConfigError):
        find_n1(build_example(Op.SUM), AlgebraicTarget(3, 3), 0)


def test_find_n1_dominance_matches_direct_arithmetic():
    res = find_n1(build_example(Op.SUM), AlgebraicTarget(3, 3), 4)
    # compound inequality, materialized: 6**16 > 54 * 6**(3*4)
    assert 6**16 > 54 * 6**12
    assert res.dominance_certified is True

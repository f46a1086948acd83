"""The records keep the value semantics their dataclass versions had.

Every record is a named tuple: records with equal fields are equal and
hash equally, `repr` prints the same text as before, no attribute can
be assigned, and each constructor check raises the same error class with
the same message.  `cli.RunConfig` takes its defaults from `cli._KEYS`.
"""

from fractions import Fraction

import pytest

from lacunary import (AlgebraicTarget, BracketEvidence, CompareDiagnostics, CompositeNumber,
                      Convergent, IndexRecord, LacunarySeries, MeasureBound, N1Result, Op,
                      Ordering, PowerSchedule, PurePower, QuotientForms, RationalInterval,
                      RothCheck, ThresholdCheck, ThresholdScan, WitnessCertificate, cli)
from lacunary.errors import InvalidConfigError
from lacunary.schedule import GrowthCheck, GrowthWindow

_SCHED = PowerSchedule(2, 1)
_S3, _S2 = LacunarySeries(3, _SCHED), LacunarySeries(2, _SCHED)
_SERIES = "LacunarySeries(base={}, schedule=PowerSchedule(a1=2, beta=1, budget_bits=20))"
_ROTH = ("RothCheck(n=2, d_eff=Fraction(5, 2), passed=True, tie=False, margin='1.2e-3', "
         "depth=3, gap=(1, 2, 70))")


def _roth():
    return RothCheck(n=2, d_eff=Fraction(5, 2), passed=True, tie=False, margin="1.2e-3",
                     depth=3, gap=(1, 2, 70))


# (build a record, its repr as the dataclass printed it); the builds
# cover all 17 record types
RECORDS = {
    "RationalInterval": (lambda: RationalInterval(Fraction(1, 3), 2),
                         "RationalInterval(1/3, 2)"),
    "AlgebraicTarget": (lambda: AlgebraicTarget(3, 2), "AlgebraicTarget(degree=3, height=2)"),
    "MeasureBound": (lambda: MeasureBound(base=18, exponent=13, derivation=("a", "b")),
                     "MeasureBound(base=18, exponent=13, derivation=('a', 'b'))"),
    "BracketEvidence": (lambda: BracketEvidence(1, Ordering.LESS, None),
                        "BracketEvidence(n=1, left=<Ordering.LESS: 'less'>, right=None)"),
    "N1Result": (lambda: N1Result(
        n1=2, evidence=(BracketEvidence(1, Ordering.LESS, Ordering.GREATER),),
        dominance_certified=True, exponent_step_ok=False),
        "N1Result(n1=2, evidence=(BracketEvidence(n=1, left=<Ordering.LESS: 'less'>, "
        "right=<Ordering.GREATER: 'greater'>),), dominance_certified=True, "
        "exponent_step_ok=False)"),
    "PurePower": (lambda: PurePower(3, 4), "PurePower(base=3, exp=4)"),
    "CompareDiagnostics": (lambda: CompareDiagnostics(Ordering.EQUAL, "common-base"),
                           "CompareDiagnostics(ordering=<Ordering.EQUAL: 'equal'>, "
                           "method='common-base', precisions=())"),
    "GrowthWindow": (lambda: GrowthWindow(Fraction(3, 2), 2),
                     "GrowthWindow(alpha=Fraction(3, 2), k=Fraction(2, 1))"),
    "GrowthCheck": (lambda: GrowthCheck(1, True, False),
                    "GrowthCheck(n=1, lower_ok=True, upper_ok=False)"),
    "Convergent": (lambda: Convergent(2, 13, 36), "Convergent(n=2, p=13, q=36)"),
    "CompositeNumber": (lambda: CompositeNumber(Op.SUM, _S3, _S2),
                        f"CompositeNumber(op=<Op.SUM: 'sum'>, s1={_SERIES.format(3)}, "
                        f"s2={_SERIES.format(2)})"),
    "ThresholdCheck": (lambda: ThresholdCheck(1, False), "ThresholdCheck(n=1, passed=False)"),
    "ThresholdScan": (lambda: ThresholdScan(n0=3, checks=(ThresholdCheck(3, True),)),
                      "ThresholdScan(n0=3, checks=(ThresholdCheck(n=3, passed=True),))"),
    "RothCheck": (_roth, _ROTH),
    "QuotientForms": (lambda: QuotientForms(q_denominator_form=True, p_denominator_form=False),
                      "QuotientForms(q_denominator_form=True, p_denominator_form=False)"),
    "IndexRecord": (lambda: IndexRecord(n=2, convergent=Convergent(2, 13, 36), roth=_roth()),
                    "IndexRecord(n=2, error=None, notice=None, convergent=Convergent(n=2, "
                    f"p=13, q=36), gap_bound=None, bound_dominates=None, roth={_ROTH}, "
                    "exponent_interval=None, forms=None)"),
    "WitnessCertificate": (lambda: WitnessCertificate(
        op=Op.SUM, g1=3, g2=2, a1=2, beta=Fraction(1), budget_bits=20, d=Fraction(3),
        d_eff=Fraction(5, 2), n_from=1, n_to=1, n0=None, n0_error="NotFound: x",
        threshold_checks=(), records=(IndexRecord(n=1, error="E: y"),), verdict="0 of 1"),
        "WitnessCertificate(op=<Op.SUM: 'sum'>, g1=3, g2=2, a1=2, beta=Fraction(1, 1), "
        "budget_bits=20, d=Fraction(3, 1), d_eff=Fraction(5, 2), n_from=1, n_to=1, n0=None, "
        "n0_error='NotFound: x', threshold_checks=(), records=(IndexRecord(n=1, error='E: y', "
        "notice=None, convergent=None, gap_bound=None, bound_dominates=None, roth=None, "
        "exponent_interval=None, forms=None),), verdict='0 of 1')"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_value_semantics(name):
    build, text = RECORDS[name]
    rec = build()
    assert type(rec).__name__ == name
    assert rec == build() and hash(rec) == hash(build())
    assert repr(rec) == text
    field = type(rec)._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


_OTHER_SCHED = LacunarySeries(3, PowerSchedule(2, 1))

# (build, error class, message) for each check a record's constructor makes
CHECKS = [
    (lambda: RationalInterval(2, 1), ValueError, "interval endpoints out of order: [2, 1]"),
    (lambda: AlgebraicTarget(1, 1), InvalidConfigError, "degree: must be an integer >= 2, got 1"),
    (lambda: AlgebraicTarget(True, 1), InvalidConfigError,
     "degree: must be an integer >= 2, got True"),
    (lambda: AlgebraicTarget(2, 0), InvalidConfigError, "height: must be an integer >= 1, got 0"),
    (lambda: PurePower(1, 2), InvalidConfigError, "base: must be an integer >= 2, got 1"),
    (lambda: PurePower(2, -1), InvalidConfigError,
     "exp: must be a nonnegative integer, got -1"),
    (lambda: PurePower(2, 1.0), InvalidConfigError,
     "exp: must be a nonnegative integer, got 1.0"),
    (lambda: GrowthWindow(1, 2), InvalidConfigError, "alpha: must exceed 1, got 1"),
    (lambda: GrowthWindow(2, Fraction(1, 2)), InvalidConfigError, "k: must exceed 1, got 1/2"),
    (lambda: Convergent(0, 1, 2), InvalidConfigError, "n: index must be positive, got 0"),
    (lambda: Convergent(1, 1, 0), InvalidConfigError,
     "q: denominator must be positive, got 0"),
    (lambda: Convergent(1, 2, 4), InvalidConfigError, "p/q: not reduced: gcd(2, 4) > 1"),
    (lambda: CompositeNumber("sum", _S3, _S2), InvalidConfigError,
     "op: unknown operation 'sum'"),
    (lambda: CompositeNumber(Op.SUM, _S2, _S3), InvalidConfigError,
     "g1: first base must exceed the second, got g1=2 <= g2=3"),
    (lambda: CompositeNumber(Op.SUM, _OTHER_SCHED, _S2), InvalidConfigError,
     "schedule: both series must share the same schedule object"),
]


@pytest.mark.parametrize("build, error, message", CHECKS)
def test_record_checks_keep_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


_DEFAULTS = {"g1": 3, "g2": 2, "a1": 2, "beta": Fraction(1), "op": Op.SUM, "d": Fraction(3),
             "n_from": 1, "n_to": 4, "budget_bits": 20, "digits": 10, "alpha": Fraction(3, 2),
             "k": Fraction(2), "height": 1, "out": None}


def test_run_config_defaults_and_keywords():
    one = cli.RunConfig(height=5)
    one.g1 = 7  # as load_config sets a key: on this instance only
    assert list(cli._KEYS) == list(_DEFAULTS)
    assert {name: getattr(cli.RunConfig(), name) for name in cli._KEYS} == _DEFAULTS
    assert ({name: getattr(one, name) for name in cli._KEYS}
            == {**_DEFAULTS, "height": 5, "g1": 7})
    with pytest.raises(TypeError):
        cli.RunConfig(heigth=5)

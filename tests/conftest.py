import os
from fractions import Fraction
from pathlib import Path

from lacunary import CompositeNumber, LacunarySeries, Op, PowerSchedule


# Environment for `python -m lacunary` subprocesses: finds the package in
# a plain checkout as well as in an installed one.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI_ENV = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def build_example(op: Op = Op.SUM, budget_bits: int = 20) -> CompositeNumber:
    """The running example: bases {3, 2}, a1=2, squaring schedule."""
    sched = PowerSchedule(2, Fraction(1), budget_bits=budget_bits)
    return CompositeNumber(op, LacunarySeries(3, sched), LacunarySeries(2, sched))


"""Seeded case streams for the three benchmark workloads.

A case is one `lacunary` command line plus what the oracle needs to know
about it.  Cases come in blocks.  Every block of a workload has the same
mix of case kinds and cost classes, and only the concrete inputs inside
each class are drawn from the seed, so the medians of two seeds measure
the same work.

The work of a run is fixed by the seed and --seconds alone:
round(seconds / NOMINAL_BLOCK_S) blocks, at least one, where the nominal
block time is what one block took on the reference host (2-core x86,
CPython 3.11.7) at the commit that defined the benchmark.  A run there
measures about --seconds, and every commit measures the same operations,
so the count metrics are exact and comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

OPS = ("sum", "difference", "product", "quotient")


@dataclass(frozen=True)
class Case:
    kind: str          # witness | digits | convergents | measure | validate | refusal
    argv: Tuple[str, ...]
    expect_rc: int     # exit code the oracle requires
    params: dict       # the inputs the oracle recomputes from


class _Draw:
    """Seeded draws for one run.  `deck` draws without replacement and
    reshuffles when a deck runs out, so every len(items) draws from one
    deck hold each item once: two seeds get the same mix of inputs, in
    another order and pairing."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self._decks = {}

    def deck(self, key, items):
        left = self._decks.get(key)
        if not left:
            left = self._decks[key] = self.rng.sample(list(items), len(items))
        return left.pop()


# --- certify -------------------------------------------------------------
#
# Witness certificates on the squaring schedule (a1=2, beta=1, n 1..4, d=3).
# Certificate cost grows steeply with the bases: from 1.4 s for (4,2)
# quotient to 13 s for (7,6) product on the reference host.  Each op
# draws its base pair from the pairs whose certificate for that op takes
# 2.3-2.6 s there.  With only eight multi-second cases in a run, a median
# over like-cost cases is the only one two seeds agree on.  A block is
# one certificate per op, about 10 s.

CERTIFY_PAIRS = {
    "sum": ((6, 2), (6, 3)),
    "difference": ((6, 2), (5, 2)),
    "product": ((4, 2), (3, 2)),
    "quotient": ((3, 2),),
}


def _certify_block(draw: _Draw) -> List[Case]:
    block = []
    for op in draw.rng.sample(OPS, len(OPS)):
        g1, g2 = draw.deck(op, CERTIFY_PAIRS[op])
        argv = ("witness", "--g1", str(g1), "--g2", str(g2), "--op", op,
                "--a1", "2", "--beta", "1", "--n-from", "1", "--n-to", "4",
                "--d", "3")
        block.append(Case("witness", argv, 0, dict(
            g1=g1, g2=g2, op=op, a1=2, beta=(1, 1), n_from=1, n_to=4, d=(3, 1))))
    return block


# --- digits-deep -----------------------------------------------------------
#
# `digits` on the running example (bases 3 and 2, squaring schedule) at
# 5,000-30,000 places: for each op one case at 7,500, 12,500, 17,500 and
# 27,500 places, each moved by a seeded offset of up to 500 places, so
# every block holds the same spread of sizes.  Past about 19,700 places
# the base-2 series needs its depth-5 enclosure with a 2**-131072 tail,
# which costs five times more: product and quotient then take 1.2 s, sum
# and difference 0.8 s.  With four blocks the tail order statistic (the
# 11th largest of 64) falls inside the sum/difference class above that
# step, and the median inside the cheap classes.  A block is 16 cases,
# about 5.4 s.

DIGITS_PLACES = (7500, 12500, 17500, 27500)
DIGITS_JITTER = 500


def _digits_deep_block(draw: _Draw) -> List[Case]:
    cases = []
    for op in OPS:
        for centre in DIGITS_PLACES:
            places = centre + draw.rng.randint(-DIGITS_JITTER, DIGITS_JITTER)
            argv = ("digits", "--g1", "3", "--g2", "2", "--op", op,
                    "--a1", "2", "--beta", "1", "--digits", str(places))
            cases.append(Case("digits", argv, 0, dict(
                g1=3, g2=2, op=op, a1=2, beta=(1, 1), digits=places)))
    draw.rng.shuffle(cases)
    return cases


# --- small-queries -----------------------------------------------------------
#
# Short commands whose cost is the fixed per-call path: argument parsing,
# schedule checks, symbolic power comparison and the measure closed form.
# A block holds 3 convergents, 3 measure, 2 validate and 3 digits calls
# plus one refusal; seven blocks cycle through the seven refusal kinds.

# (a1, beta, last index the commands may touch).  Every exponent up to
# that index is an integer within the default 2**20 budget and at most
# 4096, so convergents stay short.
SMALL_SCHEDULES = (
    (2, (1, 1), 3), (3, (1, 1), 3), (4, (1, 1), 3), (5, (1, 1), 3),
    (2, (2, 1), 3), (16, (1, 2), 3), (81, (1, 2), 2), (512, (1, 3), 2),
)
ALPHAS = ((5, 4), (3, 2), (2, 1), (5, 2), (3, 1))
KS = ((3, 2), (2, 1), (3, 1))


def _frac(p: Tuple[int, int]) -> str:
    return str(p[0]) if p[1] == 1 else f"{p[0]}/{p[1]}"


PAIRS = tuple((g1, g2) for g1 in range(3, 8) for g2 in range(2, g1))


def _common(draw: _Draw, kind: str, schedules=SMALL_SCHEDULES):
    g1, g2 = draw.deck((kind, "pair"), PAIRS)
    op = draw.deck((kind, "op"), OPS)
    a1, beta, n_max = draw.deck((kind, "schedule"), schedules)
    argv = ("--g1", str(g1), "--g2", str(g2), "--op", op,
            "--a1", str(a1), "--beta", _frac(beta))
    return argv, dict(g1=g1, g2=g2, op=op, a1=a1, beta=beta), n_max


def _convergents(draw):
    argv, p, n_max = _common(draw, "convergents")
    p.update(n_from=1, n_to=n_max)
    return Case("convergents", ("convergents", *argv, "--n-from", "1",
                                "--n-to", str(n_max)), 0, p)


def _measure(draw):
    argv, p, n_max = _common(draw, "measure")
    d, h = draw.deck("degree", range(2, 13)), draw.rng.randint(1, 50)
    p.update(d=d, height=h)
    return Case("measure", ("measure", *argv, "--d", str(d), "--height", str(h),
                            "--n-to", str(n_max)), 0, p)


def _validate(draw):
    argv, p, _ = _common(draw, "validate")
    alpha, k = draw.deck("alpha", ALPHAS), draw.deck("k", KS)
    n_to = draw.deck("validate n", (1, 2))
    p.update(alpha=alpha, k=k, n_to=n_to)
    return Case("validate", ("validate", *argv, "--alpha", _frac(alpha), "--k", _frac(k),
                             "--budget-bits", "64", "--n-to", str(n_to)), 0, p)


def _digits_small(draw):
    # Only the beta in {1, 2} schedules: a 1/v schedule ends after a_3, and
    # when the composite's partial sums are a terminating decimal (bases 2,
    # 4, 5) its last enclosure cannot decide every place, so the call
    # refuses with exit 2.
    argv, p, _ = _common(draw, "digits", SMALL_SCHEDULES[:5])
    places = draw.deck("places", range(1, 101))
    p.update(digits=places)
    return Case("digits", ("digits", *argv, "--digits", str(places)), 0, p)


def _refusal(kind: str, draw: _Draw) -> Case:
    rng = draw.rng
    g1, g2 = draw.deck(("refusal", "pair"), PAIRS)
    op = draw.deck(("refusal", "op"), OPS)
    base = ("--op", op)
    if kind == "bases-not-ordered":       # g1 must exceed g2: config error
        argv = ("convergents", "--g1", str(g2), "--g2", str(g1), *base)
        rc = 2
    elif kind == "fractional-degree":     # measure needs an integer degree
        argv = ("measure", "--g1", str(g1), "--g2", str(g2), *base,
                "--d", rng.choice(("5/2", "7/3", "9/4")))
        rc = 2
    elif kind == "non-integral-exponent":  # a1 not a square under beta=1/2
        argv = ("convergents", "--g1", str(g1), "--g2", str(g2), *base,
                "--a1", str(rng.choice((3, 5, 6, 7, 10))), "--beta", "1/2",
                "--n-to", "2")
        rc = 2
    elif kind == "exponent-budget":       # a_3 = 16 over a 2**3 budget
        argv = ("convergents", "--g1", str(g1), "--g2", str(g2), *base,
                "--budget-bits", "3", "--n-to", "3")
        rc = 3
    elif kind == "deep-budget":           # builds the n=5 convergent, then a_6 = 2**32
        # Fixed bases: this refusal sets latency_tail_s, and its cost
        # grows with the bases.
        argv = ("convergents", "--g1", "3", "--g2", "2", *base,
                "--n-from", "5", "--n-to", "6")
        rc = 3
    elif kind == "digits-budget":         # depth 4 needs a_4 = 256 over 2**4
        argv = ("digits", "--g1", str(g1), "--g2", str(g2), *base,
                "--budget-bits", "4", "--digits", str(rng.randint(40, 100)))
        rc = 3
    elif kind == "validate-budget":       # a_5 = 2**81 over the 2**64 budget
        argv = ("validate", "--g1", str(g1), "--g2", str(g2), *base,
                "--a1", "2", "--beta", "2", "--budget-bits", "64", "--n-to", "4")
        rc = 3
    else:
        raise ValueError(kind)
    return Case("refusal", argv, rc, dict(refusal=kind))


REFUSAL_KINDS = ("bases-not-ordered", "fractional-degree", "non-integral-exponent",
                 "exponent-budget", "deep-budget", "digits-budget", "validate-budget")


def _small_queries_superblock(draw: _Draw) -> List[Case]:
    cases = []
    for kind in draw.rng.sample(REFUSAL_KINDS, len(REFUSAL_KINDS)):
        block = ([_convergents(draw) for _ in range(3)]
                 + [_measure(draw) for _ in range(3)]
                 + [_validate(draw) for _ in range(2)]
                 + [_digits_small(draw) for _ in range(3)]
                 + [_refusal(kind, draw)])
        draw.rng.shuffle(block)
        cases.extend(block)
    return cases


BLOCKS = {
    "certify": _certify_block,
    "digits-deep": _digits_deep_block,
    "small-queries": _small_queries_superblock,
}

# Seconds one block took on the reference host at the defining commit.
NOMINAL_BLOCK_S = {"certify": 10.0, "digits-deep": 5.4, "small-queries": 0.4}


def block_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


def cases(workload: str, seed: int, seconds: float) -> List[Case]:
    """Every case of one run, in order: the same for the same seed and seconds."""
    make = BLOCKS[workload]
    draw = _Draw(workload, seed)
    return [c for _ in range(block_count(workload, seconds)) for c in make(draw)]

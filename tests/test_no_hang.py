"""CLI inputs that once hung or ran out of memory must finish quickly.

Each case runs `python -m lacunary` in a child process whose address
space is capped (RLIMIT_AS, set in the child only) under a wall-clock
timeout, and must exit with its stated code inside that bound.  The cap
is 2 GB; a case whose measured peak is small runs again under a tight
cap of 32-64 MB, 12-20 MB over the least cap it passed under on CPython
3.11.7, where the interpreter and the package alone take about 20 MB.
"""

import random
import resource
import subprocess
import sys

import pytest

from conftest import CLI_ENV

TIMEOUT_S = 10
ADDRESS_SPACE_BYTES = 2 << 30


def run_capped(argv, address_space_bytes=ADDRESS_SPACE_BYTES):
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space_bytes, address_space_bytes))

    return subprocess.run([sys.executable, "-m", "lacunary", *argv],
                          capture_output=True, text=True, env=CLI_ENV,
                          timeout=TIMEOUT_S, preexec_fn=cap_address_space)


def _random_odd(bits, seed):
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1) | 1


CASES = [
    # a random a_1 is a perfect power of no degree: one root per step, on a_1
    pytest.param(["validate", "--a1", str(_random_odd(16384, 1)),
                  "--budget-bits", "1000000", "--n-to", "1"], 0, 32 << 20,
                 id="validate-random-a1"),
    # beta = 1/2 from a_1 = 2**32768: square roots of a_1-sized bases only,
    # until a_17 leaves the integers
    pytest.param(["validate", "--beta", "1/2", "--a1", str(2**32768),
                  "--budget-bits", "33554432", "--n-to", "20"], 2, 48 << 20,
                 id="validate-half-step"),
    # a 10**12-th root of a_1 = 2 is decided without building 2**(10**12)
    pytest.param(["convergents", "--beta", "1/1000000000000", "--n-to", "2"], 2, 32 << 20,
                 id="convergents-tiny-beta"),
    # the threshold scan compares powers of g2 and g1*g2: equality is one
    # root of g2, never a perfect-power search on a 32768-bit g1*g2
    pytest.param(["witness", "--g1", str(_random_odd(32768, 2)), "--n-to", "1"], 0, 32 << 20,
                 id="witness-random-g1"),
    # exponent-form text is refused by its decimal exponent, before Fraction
    # builds 10**99999999
    pytest.param(["validate", "--beta", "1e99999999", "--n-to", "1"], 2, 32 << 20,
                 id="validate-exponent-form-beta"),
    pytest.param(["validate", "--beta", "1e-999999999", "--n-to", "1"], 2, 32 << 20,
                 id="validate-negative-exponent-beta"),
    # 9,000,000 places need a decimal grid past the 2**25 / 4 places the
    # size gate admits: refused before any term is built
    pytest.param(["digits", "--budget-bits", "33", "--digits", "9000000"], 3, 32 << 20,
                 id="digits-past-decimal-size-gate"),
    # the 8.7M-digit measure denominator is printed from a libmpdec power
    pytest.param(["measure", "--d", "200000"], 0, 64 << 20, id="measure-huge-degree"),
    # the decimal grid reads log10 of two ~100,000-digit bases off their
    # libmpdec powers g**64
    pytest.param(["digits", "--digits", "5", "--g1", str(_random_odd(332000, 3)),
                  "--g2", str(_random_odd(331999, 3))], 0, 56 << 20, id="digits-huge-bases"),
    # the starting precision reads bits(g2**64) off a 128-bit bracket, not
    # off the 16.6M-bit power
    pytest.param(["witness", "--n-to", "1", "--g1", str(_random_odd(260000, 3)),
                  "--g2", str(_random_odd(259999, 4))], 0, 48 << 20, id="witness-huge-bases"),
    # gap.hi**2000000 is refused before q_1**4000001 (20.7M bits) is built
    pytest.param(["witness", "--n-to", "1", "--d", "2000001/1000000"], 0, 32 << 20,
                 id="witness-degree-just-above-2"),
    # gap.hi**505001 (33.3M bits) and q_2**1010003 (7.1M bits) each pass the
    # size gate; their product is refused before either is built
    pytest.param(["witness", "--op", "quotient", "--g1", "3", "--g2", "2", "--a1", "2",
                  "--n-from", "2", "--n-to", "2", "--d", "1010004/505001"], 0, 32 << 20,
                 id="witness-product-of-powers-refused"),
    # a_4 = 2**48 is over the budget: the record at n = 3 is refused before
    # partial_sum(3) builds 3**(2**24)
    pytest.param(["witness", "--budget-bits", "25", "--a1", "64", "--n-from", "3", "--n-to", "3"],
                 0, 32 << 20, id="witness-tail-refused-before-convergent"),
    # a_{n+1} near 2**24 puts terms 3**a with a > j/log2(3) in the sum;
    # they floor to 0 and are counted, not built
    pytest.param(["witness", "--budget-bits", "25", "--a1", "64", "--op", "sum"], 0, None,
                 id="witness-terms-that-floor-to-0"),
    pytest.param(["witness", "--budget-bits", "25", "--a1", "4096", "--n-to", "1"], 0, None,
                 id="witness-a1-4096-first-index"),
    # q_1**2501 is refused before gap_bound builds the tail 3**(2**24)
    pytest.param(["witness", "--a1", "4096", "--budget-bits", "24", "--n-to", "1", "--d", "5000",
                  "--g1", "5", "--g2", "3"], 0, 32 << 20,
                 id="witness-q-power-refused-before-tail"),
    # the schedule's introot(a_1, 11000) starts Newton from a bracket of the
    # root, not from 2**ceil(bits/k), twice the root and thousands of steps off
    pytest.param(["validate", "--a1", str(2**330000 + 1), "--beta", "1/11000",
                  "--budget-bits", "33554432", "--n-to", "2"], 2, 40 << 20,
                 id="validate-root-of-wide-a1"),
    # the margin's introot at k = 20000, under root_sci_string, likewise
    pytest.param(["witness", "--n-from", "3", "--n-to", "3", "--d", "30001/10000"], 0, 36 << 20,
                 id="witness-margin-root-of-degree-20000"),
    # the tie is read off the bits of gap.lo**v * q**u, without building
    # 1 << k*v (k*v = 866 million bits at --d 13001/6500)
    pytest.param(["witness", "--n-from", "4", "--n-to", "4", "--d", "3251/1625"], 0, 40 << 20,
                 id="witness-tie-without-shift"),
]


@pytest.mark.parametrize("argv, code, tight_cap", CASES)
def test_finishes_within_bound(argv, code, tight_cap):
    for cap in filter(None, (ADDRESS_SPACE_BYTES, tight_cap)):
        proc = run_capped(argv, cap)
        assert proc.returncode == code, (cap, proc.stderr[-2000:])
        assert "Traceback" not in proc.stderr


def test_running_out_of_memory_is_a_budget_error():
    # under 60 MB of address space the 15.5 MB certificate of
    # `witness-terms-that-floor-to-0` does not fit (it exits 0 at 100 MB):
    # one `budget error:` line and exit 3, not a MemoryError traceback
    proc = run_capped(["witness", "--budget-bits", "25", "--a1", "64", "--op", "sum"], 60 << 20)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr.startswith("budget error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("quote", ["", '"'], ids=["json-number", "json-string"])
def test_oversized_config_number_is_refused_unread(tmp_path, quote):
    # int() on a million digits takes seconds: the text is refused by its length
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"a1": %s%s%s}' % (quote, "9" * 10**6, quote))
    for cap in (ADDRESS_SPACE_BYTES, 32 << 20):
        proc = run_capped(["validate", "--config", str(cfg), "--budget-bits", "33554432",
                           "--n-to", "1"], cap)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr.startswith("config error: ") and len(proc.stderr) < 1024

"""Canonical JSON for certificates: byte-identical across runs and
round-trips.  `certificate_document` is the one statement of the schema.

Rules: keys appear in the fixed order of `certificate_document`
(insertion order is the schema; nothing is sorted), separators carry no
whitespace, every integer is rendered as a decimal string (consumers
with 64-bit JSON parsers must survive q_n with thousands of digits),
rationals are {"num", "den"} string pairs, convergents are {"p", "q"},
intervals are {"lo", "hi"} rational pairs.  Output is ASCII with a
single trailing newline.  Records may end before n_to: the last one then
carries a notice naming the omitted indices.
"""

from __future__ import annotations

from fractions import Fraction

from . import __version__
from .errors import InternalError
from .interval import RationalInterval
from .intmath import decimal_power, decimal_str, exact_decimal, int_label, lowest_dyadic
from .witness import GapBound, IndexRecord, WitnessCertificate

SCHEMA_VERSION = "1"


def intstr(x: int) -> str:
    return decimal_str(int(x))


def rat(x) -> dict:
    f = Fraction(x)
    return {"num": decimal_str(f.numerator), "den": decimal_str(f.denominator)}


def dyadic(n: int, k: int) -> dict:
    """rat(n * 2**-k), reduced by `lowest_dyadic` instead of a gcd, its
    denominator 2**j printed from `decimal_power`."""
    m, j = lowest_dyadic(n, k)
    return {"num": decimal_str(m), "den": str(decimal_power(2, j))}


def gap_bound(b: GapBound) -> dict:
    """rat(b), its denominator printed from b's unreduced form num /
    (g2**a * 2**s) without converting an int: num // b.numerator is the
    gcd G that reduction divided out, and the denominator is g2**a * 2**s
    // G, both powers from `decimal_power`."""
    num, (g, a), s = b.form
    G = num // b.numerator
    with exact_decimal():
        den, r = divmod(decimal_power(g, a) * decimal_power(2, s), G)
        if r:
            raise InternalError(f"{g}**{a} * 2**{s} is not divisible by the gap bound's "
                                f"{int_label(G)}")
    return {"num": decimal_str(b.numerator), "den": str(den)}


def interval(iv: RationalInterval) -> dict:
    return {"lo": rat(iv.lo), "hi": rat(iv.hi)}


def _dyadic_interval(lo: int, hi: int, k: int) -> dict:
    return {"lo": dyadic(lo, k), "hi": dyadic(hi, k)}


def certificate_document(cert: WitnessCertificate) -> dict:
    """The canonical dict form of a certificate; key order is the schema."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": f"lacunary {__version__}",
        "config": {
            "g1": intstr(cert.g1),
            "g2": intstr(cert.g2),
            "a1": intstr(cert.a1),
            "beta": rat(cert.beta),
            "budget_bits": intstr(cert.budget_bits),
            "op": cert.op.value,
            "d": rat(cert.d),
            "d_eff": rat(cert.d_eff),
            "n_from": intstr(cert.n_from),
            "n_to": intstr(cert.n_to),
        },
        "n0": None if cert.n0 is None else intstr(cert.n0),
        "n0_error": cert.n0_error,
        "threshold_checks": [{"n": intstr(t.n), "passed": t.passed}
                             for t in cert.threshold_checks],
        "records": [_record_entry(r) for r in cert.records],
        "verdict": cert.verdict,
    }


def _record_entry(r: IndexRecord) -> dict:
    return {
        "n": intstr(r.n),
        "error": r.error,
        "notice": r.notice,
        "convergent": None if r.convergent is None
        else {"p": decimal_str(r.convergent.p), "q": decimal_str(r.convergent.q)},
        "gap_bound": None if r.gap_bound is None else gap_bound(r.gap_bound),
        "gap": None if r.roth is None else _dyadic_interval(*r.roth.gap),
        "bound_dominates": r.bound_dominates,
        "roth": None if r.roth is None else {
            "d_eff": rat(r.roth.d_eff),
            "passed": r.roth.passed,
            "tie": r.roth.tie,
            "margin": r.roth.margin,
            "depth": intstr(r.roth.depth),
        },
        "exponent": None if r.exponent_interval is None else interval(r.exponent_interval),
        "forms": None if r.forms is None else {
            "q_denominator_form": r.forms.q_denominator_form,
            "p_denominator_form": r.forms.p_denominator_form,
        },
    }


# `json` is imported where it is used, so that `import lacunary.cli` does
# not load it for the commands that print no certificate.
def dumps(doc) -> str:
    import json
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False) + "\n"


def loads(text: str):
    import json
    return json.loads(text)

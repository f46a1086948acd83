"""Independent checks of `lacunary` outputs.

Nothing here imports `lacunary`.  Exponents, partial sums and value
enclosures are recomputed from the case parameters with plain integers
and `fractions.Fraction`, and every claim is checked against them:

* certificates: the canonical JSON round trip, the config echo, each
  convergent against direct Fraction sums, the containment of the true
  gap in the emitted gap interval, and `passed`, `tie`,
  `bound_dominates`, the threshold checks and the verdict re-derived
  from the emitted numbers with the cleared inequalities;
* digits: each printed expansion is the toward-zero truncation of an
  independent enclosure;
* convergents, measure, validate: exact values and closed forms;
* refusals: the exit code, an empty stdout and the error class.

No interval endpoint digits and no margin strings are pinned, so a
change that rounds endpoints outward is still checked.

Rationals that may carry 10**5 digits are kept as unreduced (num, den)
integer pairs with positive denominators, so no gcd is ever taken on
them; comparisons cross-multiply.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

Q = Tuple[int, int]  # (num, den), den > 0, not necessarily reduced

# The certificate check bounds each series' tail by 2**-GAP_TAIL_BITS,
# far below the finest tail the program uses (about 2**-368000 for base
# 7), so the true gap is pinned much tighter than any emitted interval.
GAP_TAIL_BITS = 1 << 20


class Mismatch(Exception):
    """An output disagrees with the oracle."""


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# --- exact arithmetic on (num, den) pairs -----------------------------------

def q_add(x: Q, y: Q) -> Q:
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def q_sub(x: Q, y: Q) -> Q:
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


def q_mul(x: Q, y: Q) -> Q:
    return x[0] * y[0], x[1] * y[1]


def q_div(x: Q, y: Q) -> Q:
    num, den = x[0] * y[1], x[1] * y[0]
    return (-num, -den) if den < 0 else (num, den)


def q_le(x: Q, y: Q) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def combine_interval(op: str, x: Tuple[Q, Q], y: Tuple[Q, Q]) -> Tuple[Q, Q]:
    """Interval arithmetic on positive intervals (both series are positive)."""
    (xl, xh), (yl, yh) = x, y
    if op == "sum":
        return q_add(xl, yl), q_add(xh, yh)
    if op == "difference":
        return q_sub(xl, yh), q_sub(xh, yl)
    if op == "product":
        return q_mul(xl, yl), q_mul(xh, yh)
    return q_div(xl, yh), q_div(xh, yl)


def combine_exact(op: str, x: Fraction, y: Fraction) -> Fraction:
    if op == "sum":
        return x + y
    if op == "difference":
        return x - y
    if op == "product":
        return x * y
    return x / y


# --- schedules and series --------------------------------------------------------

def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, by integer Newton iteration."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def exponents(a1: int, beta: Tuple[int, int], count: int) -> List[int]:
    """a_1..a_count of a_{n+1} = a_n**(1+u/v), stopping early at the first
    non-integral step."""
    u, v = beta
    seq = [a1]
    while len(seq) < count:
        r = _iroot(seq[-1], v)
        if r ** v != seq[-1]:
            break
        seq.append(r ** (u + v))
    return seq


def next_exponent_floor(a: int, beta: Tuple[int, int]) -> int:
    """A lower bound on a**(1+u/v), exact when a is a perfect v-th power."""
    u, v = beta
    return _iroot(a, v) ** (u + v)


class Series:
    """theta = sum g**-a_k for one base and schedule, computed independently."""

    def __init__(self, g: int, a1: int, beta: Tuple[int, int]):
        self.g, self.beta = g, beta
        self.exps = exponents(a1, beta, 8)
        self._sums: Dict[int, Q] = {}

    def fraction_sum(self, n: int) -> Fraction:
        """Direct Fraction sum of the first n terms."""
        _need(n <= len(self.exps), f"a_{n} is not an integer")
        return sum((Fraction(1, self.g ** a) for a in self.exps[:n]), Fraction(0))

    def partial(self, m: int) -> Q:
        if m not in self._sums:
            exps = self.exps[:m]
            num = sum(self.g ** (exps[-1] - a) for a in exps)
            self._sums[m] = (num, self.g ** exps[-1])
        return self._sums[m]

    def tail_bits(self, m: int) -> int:
        """b with tail past m terms < 2*g**-a_{m+1} <= 2**-b."""
        a_next = (self.exps[m] if m < len(self.exps)
                  else next_exponent_floor(self.exps[m - 1], self.beta))
        return a_next - 1

    def depth_for_bits(self, bits: int) -> int:
        """Smallest m whose tail is below 2**-bits (or the deepest known)."""
        for m in range(1, len(self.exps) + 1):
            if self.tail_bits(m) >= bits:
                return m
        return len(self.exps)

    def enclosure(self, m: int, bits: int) -> Tuple[Q, Q]:
        """[S_m, S_m + 2**-b] with b = min(bits, tail_bits(m))."""
        s = self.partial(m)
        b = min(bits, self.tail_bits(m))
        return s, ((s[0] << b) + s[1], s[1] << b)


@functools.lru_cache(maxsize=None)
def _series(g: int, a1: int, beta: Tuple[int, int]) -> Series:
    return Series(g, a1, beta)


def series(g: int, a1: int, beta) -> Series:
    """The shared Series for one base and schedule (partial sums are kept)."""
    return _series(g, a1, tuple(beta))


# --- per-kind checks --------------------------------------------------------------

def _rat(obj) -> Q:
    num, den = int(obj["num"]), int(obj["den"])
    _need(den > 0, "non-positive denominator")
    return num, den


def check_witness(p: dict, text: str) -> None:
    doc = json.loads(text)
    canon = json.dumps(doc, separators=(",", ":"), ensure_ascii=True, allow_nan=False) + "\n"
    _need(canon == text, "certificate is not canonical JSON")
    cfg = doc["config"]
    _need((cfg["g1"], cfg["g2"], cfg["a1"], cfg["op"], cfg["n_from"], cfg["n_to"])
          == (str(p["g1"]), str(p["g2"]), str(p["a1"]), p["op"],
              str(p["n_from"]), str(p["n_to"])), "config echo")
    d = Fraction(*p["d"])
    d_eff = (2 + d) / 2
    _need(_rat(cfg["d"]) == (d.numerator, d.denominator), "config d")
    _need(_rat(cfg["d_eff"]) == (d_eff.numerator, d_eff.denominator), "config d_eff")
    u, v = d_eff.numerator, d_eff.denominator
    op = p["op"]
    s1, s2 = series(p["g1"], p["a1"], p["beta"]), series(p["g2"], p["a1"], p["beta"])

    _check_thresholds(doc, s1, s2, d)

    # The value from depth-m partial sums, and how far the true value can
    # sit from it in units of E = 2**-GAP_TAIL_BITS.  With tails
    # 0 < t_j < E and both series in (g**-a1, 1):
    #   sum t1+t2 in (0, 2E); difference t1-t2 in (-E, E);
    #   product S1*t2 + S2*t1 + t1*t2 in (0, 3E);
    #   quotient (S2*t1 - S1*t2)/(S2*(S2+t2)) in (-K*E, K*E), K = g2**(2*a1).
    m = max(s1.depth_for_bits(GAP_TAIL_BITS), s2.depth_for_bits(GAP_TAIL_BITS))
    _need(min(s1.tail_bits(m), s2.tail_bits(m)) >= GAP_TAIL_BITS, "oracle depth")
    approx = {"sum": q_add, "difference": q_sub, "product": q_mul,
              "quotient": q_div}[op](s1.partial(m), s2.partial(m))
    k = p["g2"] ** (2 * p["a1"])
    shift = {"sum": (0, 2), "difference": (-1, 1), "product": (0, 3),
             "quotient": (-k, k)}[op]

    passes = 0
    records = doc["records"]
    _need([int(r["n"]) for r in records] == list(range(p["n_from"], p["n_to"] + 1)),
          "record indices")
    for r in records:
        n = int(r["n"])
        _need(r["error"] is None, f"record n={n} carries an error")
        conv = combine_exact(op, s1.fraction_sum(n), s2.fraction_sum(n))
        c = int(r["convergent"]["p"]), int(r["convergent"]["q"])
        _need(c == (conv.numerator, conv.denominator), f"convergent n={n}")
        if op == "quotient" and n < 2:
            _need(r["gap"] is None and r["notice"] is not None, "quotient n=1 notice")
            continue
        lo, hi = _rat(r["gap"]["lo"]), _rat(r["gap"]["hi"])
        bound = _rat(r["gap_bound"])
        _need(0 <= lo[0] and q_le(lo, hi), f"gap interval n={n} malformed")
        # true gap = |approx - c + x*E| with x in (shift[0], shift[1])
        g0 = q_sub(approx, c)
        side = 1 if g0[0] > 0 else -1
        g0 = (abs(g0[0]), g0[1])
        low, high = sorted((side * shift[0], side * shift[1]))
        _need(_at_least(q_sub(g0, lo), -low) and _at_least(q_sub(hi, g0), high),
              f"gap n={n} does not contain the true gap")
        _need(r["bound_dominates"] == q_le(hi, bound), f"bound_dominates n={n}")
        roth = r["roth"]
        _need(_rat(roth["d_eff"]) == (u, v), f"roth d_eff n={n}")
        # gap < q**(-u/v)  <=>  gap**v * q**u < 1
        qu = c[1] ** u
        hi_pass = hi[0] ** v * qu < hi[1] ** v
        lo_cmp = lo[0] ** v * qu - lo[1] ** v
        _need(roth["passed"] == hi_pass, f"passed n={n}")
        if hi_pass:
            _need(roth["tie"] is False, f"tie on a pass n={n}")
            passes += 1
        else:
            _need(lo_cmp >= 0, f"fail n={n} is not certified by gap.lo")
            _need(roth["tie"] == (lo_cmp == 0), f"tie n={n}")
    _need(doc["verdict"].startswith(f"{passes} of {len(records)} indices pass"), "verdict")


def _at_least(x: Q, units: int) -> bool:
    """x >= units * 2**-GAP_TAIL_BITS, by a shift instead of a product."""
    if units <= 0:
        return x[0] >= 0 or (-x[0] << GAP_TAIL_BITS) <= -units * x[1]
    return (x[0] << GAP_TAIL_BITS) >= units * x[1]


def _check_thresholds(doc: dict, s1: Series, s2: Series, d: Fraction) -> None:
    """g2**(dv*a_{n+1}) > (g1*g2)**(du*a_n), decided on exact integers."""
    du, dv = d.numerator, d.denominator
    n0 = None
    for chk in doc["threshold_checks"]:
        n = int(chk["n"])
        a_n, a_next = s1.exps[n - 1], s1.exps[n]
        holds = s2.g ** (dv * a_next) > (s1.g * s2.g) ** (du * a_n)
        _need(chk["passed"] == holds, f"threshold check n={n}")
        if holds and n0 is None:
            n0 = n
    _need(doc["n0"] == (None if n0 is None else str(n0)), "n0")


def _truncation(iv: Tuple[Q, Q], places: int) -> Optional[int]:
    """The toward-zero truncation of every value in iv to `places` places,
    scaled by 10**places, or None when the endpoints truncate differently."""
    scale = 10 ** places
    ends = [(abs(n) * scale // d) * (-1 if n < 0 else 1) for n, d in iv]
    return ends[0] if ends[0] == ends[1] else None


def _printed(line: str, label: str, places: int) -> int:
    _need(line.startswith(label + " = "), f"expected '{label} = ...'")
    text = line[len(label) + 3:]
    whole, _, frac = text.lstrip("-").partition(".")
    _need(len(frac) == places and whole.isdigit() and frac.isdigit(), f"{label}: format")
    t = int(whole + frac)
    _need(t != 0 or not text.startswith("-"), f"{label}: negative zero")
    return -t if text.startswith("-") else t


# Largest exponent whose power g**a the oracle builds.
MAX_TERM_EXPONENT = 1 << 20


def check_digits(p: dict, text: str) -> None:
    places = p["digits"]
    lines = text.split("\n")
    _need(len(lines) == 4 and lines[3] == "", "digits: three lines")
    s1, s2 = series(p["g1"], p["a1"], p["beta"]), series(p["g2"], p["a1"], p["beta"])
    labels = (f"theta1(g={p['g1']})", f"theta2(g={p['g2']})", p["op"])
    want = {}
    # 3.33 bits per decimal place plus slack, plus what a quotient loses
    # to 1/theta2**2 < g2**(2*a1).  A line the enclosure cannot decide
    # sits on a terminating decimal of the partial sums; one more term
    # moves it off, so deepen and refine together.
    start = 4 * places + 64 + 2 * p["a1"] * p["g2"].bit_length()
    m0 = max(s1.depth_for_bits(start), s2.depth_for_bits(start))
    for i in range(4):
        m = m0 + i
        if m > len(s1.exps) or s1.exps[m - 1] > MAX_TERM_EXPONENT:
            break
        # finer than the last term, which is what moves a terminating sum
        bits = max(start << i, s1.exps[m - 1] * p["g1"].bit_length() + 64)
        e1, e2 = s1.enclosure(m, bits), s2.enclosure(m, bits)
        for j, iv in enumerate((e1, e2, combine_interval(p["op"], e1, e2))):
            if j not in want:
                t = _truncation(iv, places)
                if t is not None:
                    want[j] = t
        if len(want) == 3:
            break
    _need(len(want) == 3, "the oracle's enclosures cannot decide these places")
    for i, label in enumerate(labels):
        _need(_printed(lines[i], label, places) == want[i],
              f"{label}: {places} places disagree with the enclosure")


def check_convergents(p: dict, text: str) -> None:
    s1, s2 = series(p["g1"], p["a1"], p["beta"]), series(p["g2"], p["a1"], p["beta"])
    want = []
    for n in range(p["n_from"], p["n_to"] + 1):
        f1, f2 = s1.fraction_sum(n), s2.fraction_sum(n)
        fc = combine_exact(p["op"], f1, f2)
        want.append(f"n={n} theta1={f1.numerator}/{f1.denominator} "
                    f"theta2={f2.numerator}/{f2.denominator} "
                    f"{p['op']}={fc.numerator}/{fc.denominator}")
    _need(text == "".join(w + "\n" for w in want), "convergents")


def check_measure(p: dict, text: str) -> None:
    d, h = p["d"], p["height"]
    base, expo = 2 * h * d * d, 1 + 4 * d
    head = [f"target: degree d = {d}, height H = {h}",
            f"base: 2*H*d^2 = {base}",
            f"exponent: 1+4*d = {expo}",
            f"bound: 1/({base})^{expo}",
            f"denominator: {base ** expo}"]
    lines = text.split("\n")
    _need(lines[:5] == head, "measure closed form")
    _need(len(lines) > 6 and lines[-1] == "", "measure: bracketing section")


def check_validate(p: dict, text: str) -> None:
    # a_{n+1} = a_n**(1+beta) with a_n > 1, so a_n**alpha <= a_{n+1} iff
    # alpha <= 1+beta, and a_{n+1} < a_n**(k*alpha) iff 1+beta < k*alpha.
    growth = 1 + Fraction(*p["beta"])
    alpha, k = Fraction(*p["alpha"]), Fraction(*p["k"])
    lower, upper = alpha <= growth, growth < k * alpha
    word = {True: "pass", False: "FAIL"}
    want = [f"n={n}: lower={word[lower]} upper={word[upper]} overall={word[lower and upper]}"
            for n in range(1, p["n_to"] + 1)]
    good = p["n_to"] if lower and upper else 0
    want.append(f"summary: {good}/{p['n_to']} indices inside the window")
    _need(text == "".join(w + "\n" for w in want), "validate report")


CHECKS = {
    "witness": check_witness,
    "digits": check_digits,
    "convergents": check_convergents,
    "measure": check_measure,
    "validate": check_validate,
}


def check(case, rc: int, out: str, err: str) -> Optional[str]:
    """None when the output is right, else the reason it is not."""
    if rc != case.expect_rc:
        return f"exit {rc}, expected {case.expect_rc}: {err.strip()[:200]}"
    try:
        if case.kind == "refusal":
            prefix = "config error" if rc == 2 else "budget error"
            _need(out == "" and err.startswith(prefix), f"refusal should print '{prefix}'")
        else:
            CHECKS[case.kind](case.params, out)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None

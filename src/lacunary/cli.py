"""Command-line front end: config parsing, subcommand dispatch,
deterministic reports and canonical certificate emission.

Subcommands: digits, convergents, witness, measure, validate.
Configuration comes from an optional JSON file (--config) overridden by
flags; flags always win.  All output is UTF-8 with LF line endings.
The witness certificate schema lives in certjson.

Exit codes: 0 success, 2 configuration error, 3 budget or precision
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .certjson import certificate_document, dumps
from .errors import (
    ExponentBudgetExceeded,
    InsufficientDepth,
    InternalError,
    InvalidConfigError,
    NonIntegralExponent,
    NotFound,
    PrecisionUnattainable,
    TieEncountered,
)
from .intmath import decimal_str, int_label, value_label
from .measure import AlgebraicTarget, approximation_measure, find_n1
from .schedule import DEFAULT_BUDGET_BITS, GrowthWindow, PowerSchedule, validate_growth
from .series import LacunarySeries
from .witness import CompositeNumber, Op, certify, composite_convergent, composite_digits


# Longest integer or rational text converted: int() and Fraction() take
# time quadratic in its length (CPython before 3.12).
MAX_NUMBER_CHARS = 100_000


def _number_text(field: str, value) -> str:
    """str(value), refused before any conversion if it is too long."""
    text = str(value)
    if len(text) > MAX_NUMBER_CHARS:
        raise InvalidConfigError(field, f"number text longer than {MAX_NUMBER_CHARS} characters")
    return text


def _parse_int(field: str, value) -> int:
    if isinstance(value, bool):
        raise InvalidConfigError(field, f"expected an integer, got {value_label(value)}")
    if isinstance(value, int):  # a JSON integer, converted once by the JSON reader
        return value
    try:
        return int(_number_text(field, value), 10)
    except ValueError as exc:
        raise InvalidConfigError(field, f"expected an integer, got {value_label(value)}") from exc


# The decimal exponent of rational text like "1e99999999": Fraction would
# build 10**exponent, so it obeys the same cap as the length of plain text.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\s*\Z")


def _parse_rational(field: str, value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InvalidConfigError(
            field, f"expected an exact rational like \"5/2\", got {value_label(value)}")
    text = value
    if not isinstance(value, int):
        text = _number_text(field, value)
        exp = _EXPONENT.search(text)
        digits = exp[1].replace("_", "").lstrip("0") if exp else ""
        if len(digits) > len(str(MAX_NUMBER_CHARS)) or int(digits or 0) > MAX_NUMBER_CHARS:
            raise InvalidConfigError(
                field, f"decimal exponent beyond {MAX_NUMBER_CHARS} in absolute value")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidConfigError(field, f"not a rational: {value_label(value)}") from exc


def _parse_op(field: str, value) -> Op:
    try:
        return Op(str(value))
    except ValueError as exc:
        names = ", ".join(o.value for o in Op)
        raise InvalidConfigError(
            field, f"must be one of {names}, got {value_label(value)}") from exc


def _parse_str(field: str, value) -> str:
    if not isinstance(value, str):
        raise InvalidConfigError(field, f"expected a string, got {value_label(value)}")
    return value


# A configuration key: its default, the parser of its config value and
# flag, and the flag's text; the flag is on `command` alone, or on every
# subcommand when that is None.
_Key = namedtuple("_Key", "default parse metavar help command", defaults=(None,))

# Every configuration key, stated once.  Config values and flags are
# applied in this order, and the flags are listed in it.
_KEYS = {
    "g1": _Key(3, _parse_int, "INT", "first base (must exceed g2)"),
    "g2": _Key(2, _parse_int, "INT", "second base (>= 2)"),
    "a1": _Key(2, _parse_int, "INT", "first exponent (>= 2)"),
    "beta": _Key(Fraction(1), _parse_rational, "U/V", "growth exponent, a positive rational"),
    "op": _Key(Op.SUM, _parse_op, "OP", "sum | difference | product | quotient"),
    "d": _Key(Fraction(3), _parse_rational, "U/V",
              "target exponent (witness) or degree (measure)"),
    "n_from": _Key(1, _parse_int, "INT", "first index"),
    "n_to": _Key(4, _parse_int, "INT", "last index"),
    "budget_bits": _Key(DEFAULT_BUDGET_BITS, _parse_int, "INT",
                        "exponent budget: a_n <= 2**bits"),
    "digits": _Key(10, _parse_int, "INT", "decimal places (default 10)", "digits"),
    "alpha": _Key(Fraction(3, 2), _parse_rational, "U/V", "window exponent alpha > 1",
                  "validate"),
    "k": _Key(Fraction(2), _parse_rational, "U/V", "window multiplier k > 1", "validate"),
    "height": _Key(1, _parse_int, "INT", "naive height H (default 1)", "measure"),
    "out": _Key(None, _parse_str, "PATH", "write output here instead of stdout"),
}


class RunConfig:
    """One value for each key of `_KEYS`: the key's default, read from the
    class, unless a keyword, a config value or a flag set it on the
    instance.  `RunConfig(height=2)` sets one key; an unknown keyword is a
    TypeError."""

    def __init__(self, **values):
        for name, value in values.items():
            if name not in _KEYS:
                raise TypeError(f"RunConfig() got an unexpected keyword argument {name!r}")
            setattr(self, name, value)


for _name, _key in _KEYS.items():  # every default is immutable, so instances share it
    setattr(RunConfig, _name, _key.default)
del _name, _key


def _validate(cfg: RunConfig) -> None:
    if cfg.g2 < 2:
        raise InvalidConfigError("g2", f"must be an integer >= 2, got {int_label(cfg.g2)}")
    if cfg.g1 <= cfg.g2:
        raise InvalidConfigError(
            "g1", f"must exceed g2, got g1={int_label(cfg.g1)} g2={int_label(cfg.g2)}")
    if cfg.n_from < 1:
        raise InvalidConfigError("n_from", f"must be >= 1, got {int_label(cfg.n_from)}")
    if cfg.n_to < 0:
        raise InvalidConfigError("n_to", f"must be >= 0, got {int_label(cfg.n_to)}")
    if cfg.digits < 1:
        raise InvalidConfigError("digits", f"must be >= 1, got {int_label(cfg.digits)}")
    if cfg.height < 1:
        raise InvalidConfigError("height", f"must be >= 1, got {int_label(cfg.height)}")


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        import json  # only a --config call reads JSON
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f, parse_int=lambda text: int(_number_text("config", text)))
        # ValueError: a NUL byte in the path, bytes that are not UTF-8 or bad
        # JSON; RecursionError: JSON nested too deep for the parser
        except (OSError, ValueError, RecursionError) as exc:
            raise InvalidConfigError("config", f"cannot read {value_label(path)}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidConfigError("config", "top level must be a JSON object")
        for name, value in raw.items():
            if name not in _KEYS:
                raise InvalidConfigError(name, "unknown configuration field")
            setattr(cfg, name, _KEYS[name].parse(name, value))
    for name, key in _KEYS.items():
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, key.parse(name, value))
    _validate(cfg)
    return cfg


def _build_composite(cfg: RunConfig) -> CompositeNumber:
    sched = PowerSchedule(cfg.a1, cfg.beta, cfg.budget_bits)
    return CompositeNumber(cfg.op, LacunarySeries(cfg.g1, sched),
                           LacunarySeries(cfg.g2, sched))


def cmd_digits(cfg: RunConfig) -> str:
    comp = _build_composite(cfg)
    lines = [
        f"theta1(g={cfg.g1}) = {comp.s1.decimal_digits(cfg.digits)}",
        f"theta2(g={cfg.g2}) = {comp.s2.decimal_digits(cfg.digits)}",
        f"{cfg.op.value} = {composite_digits(comp, cfg.digits)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_convergents(cfg: RunConfig) -> str:
    comp = _build_composite(cfg)
    indices = range(cfg.n_from, cfg.n_to + 1)
    # every index passes the partial-sum gate, in the order the rows are
    # built, before any row is: a refusal at a later index builds nothing
    for n in indices:
        comp.s1.checked_exponent(n)
        comp.s2.checked_exponent(n)
    rows = [(n, comp.s1.partial_sum(n), comp.s2.partial_sum(n),
             composite_convergent(comp, n))
            for n in indices]

    def frac(c) -> str:
        return f"{decimal_str(c.p)}/{decimal_str(c.q)}"

    return "".join(f"n={n} theta1={frac(c1)} theta2={frac(c2)} {cfg.op.value}={frac(cc)}\n"
                   for n, c1, c2, cc in rows)


def cmd_witness(cfg: RunConfig) -> str:
    comp = _build_composite(cfg)
    cert = certify(comp, cfg.d, (cfg.n_from, cfg.n_to))
    return dumps(certificate_document(cert))


def cmd_measure(cfg: RunConfig) -> str:
    if cfg.d.denominator != 1 or cfg.d < 2:
        raise InvalidConfigError(
            "d", f"degree must be an integer >= 2 here, got {value_label(cfg.d)}")
    comp = _build_composite(cfg)
    target = AlgebraicTarget(int(cfg.d), cfg.height)
    lines = list(approximation_measure(target).derivation)
    n_max = max(cfg.n_to, 1)
    try:
        res = find_n1(comp, target, n_max)
        lines.append(f"n1 = {res.n1}")
        for ev in res.evidence:
            right = "-" if ev.right is None else ev.right.value
            lines.append(f"evidence n={ev.n}: left={ev.left.value} right={right}")
        lines.append(f"dominance = {'certified' if res.dominance_certified else 'not certified'}")
        lines.append(f"exponent step = {'ok' if res.exponent_step_ok else 'short'}")
    except TieEncountered as exc:
        lines.append(f"warning: tie at n={exc.n} ({exc.side} comparison): "
                     f"strict bracketing impossible")
    except NotFound as exc:
        lines.append(f"warning: no bracketing index: {exc}")
    return "\n".join(lines) + "\n"


def cmd_validate(cfg: RunConfig) -> str:
    sched = PowerSchedule(cfg.a1, cfg.beta, cfg.budget_bits)
    window = GrowthWindow(cfg.alpha, cfg.k)
    report = validate_growth(sched, window, cfg.n_to)
    if not report:
        return "vacuous pass (no indices checked)\n"
    lines = []
    for chk in report:
        lines.append(f"n={chk.n}: lower={'pass' if chk.lower_ok else 'FAIL'} "
                     f"upper={'pass' if chk.upper_ok else 'FAIL'} "
                     f"overall={'pass' if chk.ok else 'FAIL'}")
    good = sum(1 for chk in report if chk.ok)
    lines.append(f"summary: {good}/{len(report)} indices inside the window")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "digits": (cmd_digits, "certified decimal expansions of both series and the composite"),
    "convergents": (cmd_convergents, "exact reduced convergents over the index range"),
    "witness": (cmd_witness, "emit the canonical JSON witness certificate"),
    "measure": (cmd_measure, "approximation-measure bound and bracketing evidence"),
    "validate": (cmd_validate, "check the schedule against a growth window"),
}


def _flag(name: str) -> str:
    """The flag of configuration key `name`."""
    return "--" + name.replace("_", "-")


def _add_flags(parser: argparse.ArgumentParser, command: str | None) -> None:
    """The flags of the configuration keys whose flag is on `command`."""
    for name, key in _KEYS.items():
        if key.command == command:
            parser.add_argument(_flag(name), metavar=key.metavar, help=key.help)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  `parse_args` keeps no state on it,
    so every `main` call reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    _add_flags(common, None)

    parser = argparse.ArgumentParser(
        prog="lacunary",
        description="Exact-arithmetic toolkit for sparse power series: "
                    "convergents, certified gap bounds, witness certificates "
                    "and approximation measures.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, parents=[common], help=text), name)
    return parser


@functools.cache
def _flags(command: str) -> dict:
    """The full text of every flag `command` takes, mapped to its Namespace
    name: --config and the flags of its configuration keys."""
    names = ["config"] + [name for name, key in _KEYS.items() if key.command in (None, command)]
    return {_flag(name): name for name in names}


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The Namespace `_build_parser().parse_args(argv)` returns, read without
    argparse when argv is a command and then `--flag value` pairs: each flag
    spelled in full, no value starting with "-", a repeated flag keeping its
    last value.  None for any other argv, which is argparse's to read: help,
    version, abbreviations, `--flag=value`, negative numbers and errors."""
    if (len(argv) % 2 == 0 or not all(isinstance(a, str) for a in argv)
            or argv[0] not in _COMMANDS):
        return None
    flags = _flags(argv[0])
    args = dict.fromkeys(flags.values())
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in flags or value.startswith("-"):
            return None
        args[flags[flag]] = value
    return argparse.Namespace(command=argv[0], **args)


def _emit(text: str, out: str | None) -> None:
    if not out:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # a closed pipe or a full disk: the unwritten text stays buffered
            # and Python flushes it again at exit, so point stdout at devnull
            # to keep that flush from failing too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InvalidConfigError("out", f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InvalidConfigError("out", f"cannot write {value_label(out)}: {exc}") from exc


def _parse_args(argv: list) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`, with the help or version text it
    prints before it exits written by `_emit`, so that a stdout that
    cannot take it is a configuration error."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            return _build_parser().parse_args(argv)
    except SystemExit:
        if text.getvalue():
            _emit(text.getvalue(), None)
        raise


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain_args(argv)
        if args is None:
            args = _parse_args(argv)
        cfg = load_config(args)
        _emit(_COMMANDS[args.command][0](cfg), cfg.out)
    except (InvalidConfigError, NonIntegralExponent) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ExponentBudgetExceeded, PrecisionUnattainable, InsufficientDepth) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("budget error: out of memory: this input needs more than the process's "
              "memory limit allows", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lacunary
from lacunary import (CompositeNumber, LacunarySeries, PowerSchedule, __version__, certjson,
                      cli, series)
from lacunary.certjson import certificate_document, dumps
from lacunary.errors import InvalidConfigError
from lacunary.cli import main
from lacunary.witness import Op, certify, gap_bound

from conftest import CLI_ENV, build_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, seconds=10):
    """`python -m lacunary argv`, failing the test if it runs past `seconds`."""
    return subprocess.run([sys.executable, "-m", "lacunary", *argv],
                          capture_output=True, text=True, env=CLI_ENV, timeout=seconds)


def test_digits_default_config(capsys):
    code, out, err = run_cli(capsys, "digits")
    assert code == 0 and err == ""
    assert out == ("theta1(g=3) = 0.1234568133\n"
                   "theta2(g=2) = 0.3125152587\n"
                   "sum = 0.4359720721\n")


def test_digits_other_ops(capsys):
    code, out, _ = run_cli(capsys, "digits", "--op", "difference", "--digits", "6")
    assert code == 0
    assert out.endswith("difference = -0.189058\n")


def test_convergents_text(capsys):
    code, out, _ = run_cli(capsys, "convergents", "--n-to", "2")
    assert code == 0
    assert out == ("n=1 theta1=1/9 theta2=1/4 sum=13/36\n"
                   "n=2 theta1=10/81 theta2=5/16 sum=565/1296\n")


def test_convergents_empty_range(capsys):
    code, out, _ = run_cli(capsys, "convergents", "--n-from", "2", "--n-to", "1")
    assert code == 0 and out == ""


def test_witness_schema_and_content(capsys):
    code, out, _ = run_cli(capsys, "witness")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "tool", "config", "n0", "n0_error",
                         "threshold_checks", "records", "verdict"]
    assert list(doc["config"]) == ["g1", "g2", "a1", "beta", "budget_bits",
                                   "op", "d", "d_eff", "n_from", "n_to"]
    assert doc["schema_version"] == "1"
    assert doc["tool"] == f"lacunary {__version__}"
    assert doc["n0"] == "3" and doc["n0_error"] is None
    assert [t["passed"] for t in doc["threshold_checks"]] == [False, False, True, True]
    recs = doc["records"]
    assert [r["n"] for r in recs] == ["1", "2", "3", "4"]
    assert list(recs[0]) == ["n", "error", "notice", "convergent", "gap_bound",
                             "gap", "bound_dominates", "roth", "exponent", "forms"]
    assert recs[1]["gap_bound"] == {"num": "1", "den": "16384"}
    assert recs[1]["convergent"] == {"p": "565", "q": "1296"}
    assert [r["roth"]["passed"] for r in recs] == [False, False, True, True]
    assert all(r["bound_dominates"] for r in recs)
    assert doc["verdict"].startswith("2 of 4 indices pass")
    assert doc["verdict"].endswith("n0=3")


def test_witness_quotient_notice(capsys):
    code, out, _ = run_cli(capsys, "witness", "--op", "quotient", "--n-to", "3")
    assert code == 0
    recs = json.loads(out)["records"]
    assert recs[0]["notice"] is not None and recs[0]["roth"] is None
    assert recs[0]["convergent"] == {"p": "4", "q": "9"}
    assert recs[1]["forms"] is not None


def test_witness_embeds_schedule_failure(capsys):
    # the non-integral step is recorded per index, not fatal for witness
    code, out, _ = run_cli(capsys, "witness", "--a1", "4", "--beta", "1/2",
                           "--n-to", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n0_error"] is not None and "NonIntegralExponent" in doc["n0_error"]
    assert any(r["error"] for r in doc["records"])


def test_measure_report_height_three(capsys):
    code, out, _ = run_cli(capsys, "measure", "--height", "3")
    assert code == 0
    lines = out.splitlines()
    assert "bound: 1/(54)^13" in lines
    assert "n1 = 2" in lines
    assert "evidence n=1: left=less right=less" in lines
    assert "evidence n=2: left=less right=greater" in lines
    assert "dominance = certified" in lines
    assert "exponent step = short" in lines


def test_measure_tie_warning(capsys):
    code, out, _ = run_cli(capsys, "measure", "--height", "2")
    assert code == 0
    assert "warning: tie at n=2 (left comparison): strict bracketing impossible" in out
    assert "bound: 1/(36)^13" in out


def test_measure_rejects_fractional_degree(capsys):
    code, _, err = run_cli(capsys, "measure", "--d", "5/2")
    assert code == 2 and "config error" in err


def test_validate_reports(capsys):
    code, out, _ = run_cli(capsys, "validate", "--n-to", "3")
    assert code == 0
    assert out.splitlines()[-1] == "summary: 3/3 indices inside the window"
    code, out, _ = run_cli(capsys, "validate", "--n-to", "3", "--alpha", "4")
    assert code == 0
    assert "n=1: lower=FAIL upper=pass overall=FAIL" in out
    assert out.splitlines()[-1] == "summary: 0/3 indices inside the window"
    code, out, _ = run_cli(capsys, "validate", "--n-to", "0")
    assert code == 0 and out == "vacuous pass (no indices checked)\n"


def test_exit_code_config_errors(capsys):
    assert run_cli(capsys, "digits", "--digits", "0")[0] == 2
    assert run_cli(capsys, "digits", "--g1", "2")[0] == 2  # g1 must exceed g2
    assert run_cli(capsys, "digits", "--beta", "0")[0] == 2
    assert run_cli(capsys, "digits", "--a1", "4", "--beta", "1/2")[0] == 2
    assert run_cli(capsys, "witness", "--op", "modulo")[0] == 2
    assert run_cli(capsys, "witness", "--d", "2")[0] == 2


def test_exit_code_budget_errors(capsys):
    code, _, err = run_cli(capsys, "digits", "--budget-bits", "4", "--digits", "30")
    assert code == 3 and "budget error" in err


def test_budget_bits_over_materialization_cap(capsys):
    # 2**budget_bits is built up front, so budgets are capped at 2**25 bits
    code, out, err = run_cli(capsys, "convergents", "--budget-bits", "33554433")
    assert code == 2 and out == ""
    assert err == "config error: budget_bits: must be at most 33554432, got 33554433\n"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"op": "product", "n_to": 2}))
    code, out, _ = run_cli(capsys, "convergents", "--config", str(cfg), "--op", "sum")
    assert code == 0
    # op overridden by flag, n_to taken from the file
    assert out.splitlines() == ["n=1 theta1=1/9 theta2=1/4 sum=13/36",
                                "n=2 theta1=10/81 theta2=5/16 sum=565/1296"]


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "digits", "--config", str(bad))[0] == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"frobnicate": 1}))
    assert run_cli(capsys, "digits", "--config", str(unknown))[0] == 2
    assert run_cli(capsys, "digits", "--config", str(tmp_path / "missing.json"))[0] == 2



def _config_file(tmp_path, data: bytes) -> str:
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("config", [
    lambda tmp_path: str(tmp_path / "a\u0000b.json"),
    lambda tmp_path: _config_file(tmp_path, b'{"g1": "\xff"}'),
    lambda tmp_path: _config_file(tmp_path, b"[" * 200_000 + b"]" * 200_000),
], ids=["nul-in-path", "not-utf-8", "nested-200000-deep"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, config):
    code, out, err = run_cli(capsys, "digits", "--config", config(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("config error: config: cannot read ")
    assert "\0" not in err and err.count("\n") == 1 and err.endswith("\n")

@pytest.mark.parametrize("doc,err", [
    ([1], "config: top level must be a JSON object"),
    ({"g1": True}, "g1: expected an integer, got True"),
    ({"beta": 0.5}, 'beta: expected an exact rational like "5/2", got 0.5'),
])
def test_config_values_of_the_wrong_json_type(tmp_path, capsys, doc, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(capsys, "digits", "--config", str(cfg)) == (2, "", f"config error: {err}\n")


def test_config_file_with_two_bad_flags_refuses_the_first_key(tmp_path, capsys):
    # flags apply in RunConfig's field order, after the file: g1 before
    # beta, whatever their order on the command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g1": 5, "op": "product", "beta": "1/2"}))
    assert run_cli(capsys, "witness", "--config", str(cfg), "--beta", "y", "--g1", "x") == (
        2, "", "config error: g1: expected an integer, got 'x'\n")
    cfg.write_text(json.dumps({"height": "x", "g1": 5}))
    assert run_cli(capsys, "measure", "--config", str(cfg), "--g1", "y", "--d", "z") == (
        2, "", "config error: height: expected an integer, got 'x'\n")


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "digits.txt"
    code, out, _ = run_cli(capsys, "digits", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8").endswith("sum = 0.4359720721\n")


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "convergents", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("config error: out: cannot write")
    assert not path.exists()


def test_out_with_a_nul_byte_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "a\u0000b"}))
    code, out, err = run_cli(capsys, "convergents", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("config error: out: cannot write")
    assert "\0" not in err and err.count("\n") == 1


# a command's output, then argparse's own: help and version text
_UNWRITABLE = [("closed pipe", ("witness", "--g1", "7", "--g2", "5")),
               ("/dev/full", ("convergents",))]
_UNWRITABLE += [(target, args) for args in (("--help",), ("--version",), ("digits", "--help"))
                for target in ("closed pipe", "/dev/full")]


@pytest.mark.parametrize("target, args", _UNWRITABLE, ids=[
    target if i < 2 else f"{target} {' '.join(args)}"
    for i, (target, args) in enumerate(_UNWRITABLE)])
def test_unwritable_stdout_is_a_config_error(target, args):
    argv = [sys.executable, "-m", "lacunary", *args]
    # stdout buffered, as it is by default: the error may wait for a flush
    # (unbuffered, argparse drops its own write error and exits 0)
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    if target == "/dev/full":
        if not os.path.exists(target):
            pytest.skip("no /dev/full")
        with open(target, "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=10)
    else:
        read, write = os.pipe()
        os.close(read)  # before the child starts, so that its write must fail
        try:
            proc = subprocess.run(argv, stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=10)
        finally:
            os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: out: cannot write stdout: [Errno ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_config_out_must_be_a_string(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for value in (None, 5, ["x"]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": value}))
        code, out, err = run_cli(capsys, "convergents", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: out: expected a string")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


CAP = cli.MAX_NUMBER_CHARS
HUGE = "9" * (CAP - 1)  # the longest negative integer text under the cap


def test_number_text_over_the_cap_is_refused(tmp_path, capsys):
    long_int = "1" + "0" * CAP
    for argv, field in ((["validate", "--a1", long_int], "a1"),
                        (["validate", "--beta", "1/" + long_int], "beta")):
        assert run_cli(capsys, *argv) == (
            2, "", f"config error: {field}: number text longer than {CAP} characters\n")
    cfg = tmp_path / "cfg.json"
    for text, field in ((long_int, "config"), (json.dumps(long_int), "a1")):
        cfg.write_text('{"a1": %s}' % text)
        assert run_cli(capsys, "validate", "--config", str(cfg)) == (
            2, "", f"config error: {field}: number text longer than {CAP} characters\n")
    # text at the cap is read, as a flag and as a JSON number
    at_cap = long_int[:-1]
    cfg.write_text('{"a1": %s}' % at_cap)
    for argv in (["--a1", at_cap], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, "validate", "--budget-bits", str(8 * CAP),
                                 "--n-to", "1", *argv)
        assert code == 0 and err == "" and out.endswith("summary: 1/1 indices inside the window\n")


def test_exponent_form_rationals_obey_the_number_cap(tmp_path, capsys):
    # the decimal exponent obeys the cap on the length of plain text
    refusal = f"config error: beta: decimal exponent beyond {CAP} in absolute value\n"
    for text in (f"1e{CAP + 1}", f"1E-{CAP + 1}", "1e0_000_000_100_001", "2.5e99999999"):
        assert run_cli(capsys, "validate", "--beta", text, "--n-to", "1") == (2, "", refusal)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"beta": "1e-999999999"}')
    assert run_cli(capsys, "validate", "--config", str(cfg)) == (2, "", refusal)
    # an exponent at the cap is read, and the budget refusal names 1+beta
    # by its bit length
    code, out, err = run_cli(capsys, "validate", "--beta", f"1e{CAP}", "--n-to", "1")
    assert (code, out) == (3, "") and "**(<332193-bit integer>) exceeds" in err
    assert len(err) < 200


def test_non_text_rationals_are_quoted_as_given(tmp_path, capsys):
    # a JSON null, list or object is refused by its own repr, not its str()
    cfg = tmp_path / "cfg.json"
    for text, label in (("null", "None"), ("[1]", "[1]"), ('{"a": 1}', "{'a': 1}")):
        cfg.write_text('{"beta": %s}' % text)
        assert run_cli(capsys, "validate", "--config", str(cfg)) == (
            2, "", f"config error: beta: not a rational: {label}\n")


def test_json_integers_are_used_as_parsed():
    value = 10 ** 5000
    assert cli._parse_int("a1", value) is value


@pytest.mark.parametrize("argv", [
    ["digits", "--g2", "-" + HUGE],
    ["digits", "--g1", "1" + "0" * (CAP - 2), "--g2", HUGE],
    ["digits", "--n-from", "-" + HUGE],
    ["convergents", "--n-to", "-" + HUGE],
    ["digits", "--digits", "-" + HUGE],
    ["measure", "--height", "-" + HUGE],
    ["digits", "--a1", "x" * CAP],
    ["digits", "--beta", "x" * CAP],
    ["digits", "--op", "x" * CAP],
    ["digits", "--a1", "-" + HUGE],
    ["validate", "--beta", "-" + HUGE],
    ["validate", "--budget-bits", HUGE],
    ["validate", "--budget-bits", "-" + HUGE],
    ["validate", "--alpha", "1/" + HUGE],
    ["validate", "--k", "-" + HUGE],
    ["measure", "--d", "1/" + HUGE],
    ["witness", "--d", "-" + HUGE],
    {"beta": [1] * (CAP // 5)},
    {"a1": [1] * (CAP // 5)},
    {"out": [1] * CAP},
], ids=lambda a: " ".join(x[:8] for x in a) if isinstance(a, list) else f"config {[*a][0]}")
def test_refusals_do_not_echo_huge_inputs(tmp_path, capsys, argv):
    if isinstance(argv, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv))
        argv = ["digits", "--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and len(err.encode()) < 1024, err[:200]


def test_composite_refusal_names_huge_bases_by_bit_length():
    sched = PowerSchedule(2, Fraction(1))
    big = 10 ** CAP
    with pytest.raises(InvalidConfigError) as info:
        CompositeNumber(Op.SUM, LacunarySeries(big, sched), LacunarySeries(big + 1, sched))
    assert str(info.value) == ("g1: first base must exceed the second, got "
                               "g1=<332193-bit integer> <= g2=<332193-bit integer>")


def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "lacunary", "--version"],
                          capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"lacunary {__version__}"


def test_package_exports_resolve():
    assert len(set(lacunary.__all__)) == len(lacunary.__all__)
    assert [name for name in lacunary.__all__ if not hasattr(lacunary, name)] == []
    namespace = {}
    exec("from lacunary import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lacunary.__all__)
    # names deleted with measure's target check; none may stay importable
    for name in ("NoSignChange", "TargetCheck", "check_against_target",
                 "liouville_gap_bound", "root_enclosure"):
        with pytest.raises(ImportError):
            exec(f"from lacunary import {name}", {})


def test_rationals_reparse_exactly(capsys):
    code, out, _ = run_cli(capsys, "witness")
    doc = json.loads(out)
    r = doc["records"][2]
    got = Fraction(int(r["gap_bound"]["num"]), int(r["gap_bound"]["den"]))
    assert got == gap_bound(build_example(), 3)


# Inputs whose size comes straight from the command line: each must be
# refused by the materialization cap within seconds, not built.

@pytest.mark.parametrize("n_to,d", [("4", "99999999"), ("1", "2000001/1000000")])
def test_witness_huge_degree_is_refused_per_index(n_to, d):
    proc = run_module("witness", "--n-to", n_to, "--d", d)
    assert proc.returncode == 0, proc.stderr
    recs = json.loads(proc.stdout)["records"]
    assert len(recs) == int(n_to)
    assert all(r["error"].startswith("ExponentBudgetExceeded: ")
               and r["error"].endswith("-bit materialization cap") for r in recs)


def test_measure_huge_degree_exits_3():
    proc = run_module("measure", "--d", "1000000")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("budget error: 2000000000000**4000001 would need about "
                           "164000041 bits, over the 33554432-bit materialization cap\n")


def test_digits_out_of_reach_exits_3():
    # the default schedule stops at a_5, so every grid is coarser than
    # 10**-digits and no end is scaled by 10**digits, which past 2**63
    # places would leave the decimal exponent range
    for digits in ("3000000", "9223372036854775808", "1180591620717411303424"):
        proc = run_module("digits", "--digits", digits)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == (f"budget error: no enclosure tight enough for {digits} decimal "
                               "places within the configured budgets\n")


def test_digits_past_a_huge_second_exponent():
    # a_2 = 2**24 is in a 25-bit budget and 3**(2**24) is under the size
    # cap; 50 places need about 230 bits, so that power is never built
    proc = run_module("digits", "--budget-bits", "25", "--a1", "4096", "--digits", "50")
    assert proc.returncode == 0, proc.stderr
    # every later term is under 2**-(2**24), so the first one fixes 50 places
    want = [series.format_fixed(int(f * 10**50), 50)
            for f in (Fraction(1, 3**4096), Fraction(1, 2**4096),
                      Fraction(1, 3**4096) + Fraction(1, 2**4096))]
    assert proc.stdout == (f"theta1(g=3) = {want[0]}\ntheta2(g=2) = {want[1]}\n"
                           f"sum = {want[2]}\n")


def test_default_certificate_size():
    # dyadic gap ends carry about as many bits as the gap itself
    assert len(cli.cmd_witness(cli.RunConfig()).encode()) <= 80_000


def test_huge_first_exponent_refusal_names_its_bit_length(capsys):
    code, out, err = run_cli(capsys, "validate", "--a1", str(2**20000))
    assert code == 3 and out == ""
    assert err == ("budget error: a_1 = <20001-bit integer> already exceeds the 2**20 "
                   "exponent budget\n")
    code, _, err = run_cli(capsys, "validate", "--a1", str(2**64 - 1))
    assert err == (f"budget error: a_1 = {2**64 - 1} already exceeds the 2**20 "
                   "exponent budget\n")


def test_witness_stops_at_schedule_end():
    proc = run_module("witness", "--n-to", "3000")
    assert proc.returncode == 0, proc.stderr
    recs = json.loads(proc.stdout)["records"]
    assert [r["n"] for r in recs] == ["1", "2", "3", "4", "5", "6"]
    assert recs[-1]["error"].startswith("ExponentBudgetExceeded: a_6 = ")
    assert recs[-1]["notice"] == "a_6 does not exist, so indices 7..3000 are omitted"
    assert all(r["notice"] is None for r in recs[:-1])


def test_measure_d_30000_prints_its_denominator_quickly():
    proc = run_module("measure", "--d", "30000")
    assert proc.returncode == 0, proc.stderr
    line = next(x for x in proc.stdout.splitlines() if x.startswith("denominator: "))
    text = line[len("denominator: "):]
    den = (2 * 30000**2) ** (1 + 4 * 30000)
    # int() of the 1.1M-digit text would be quadratic: check the length
    # and the first 50 digits by one bracket, the last 50 digits mod 10**50
    head, scale = int(text[:50]), 10 ** (len(text) - 50)
    assert text[0] != "0" and head * scale <= den < (head + 1) * scale
    assert den % 10**50 == int(text[-50:])


@pytest.mark.parametrize("n,stderr", [
    (26, "budget error: 3**<33554433-bit integer> would need about <33554434-bit integer> "
         "bits, over the 33554432-bit materialization cap\n"),
    (27, "budget error: a_27 = <33554433-bit integer>**(2) exceeds the 2**33554432 "
         "exponent budget\n"),
])
def test_refusal_names_a_huge_exponent_by_bit_length(n, stderr):
    # a_26 = 2**(2**25) fits the budget; its 10M decimal digits must not
    # be printed into the refusal
    proc = run_module("convergents", "--n-from", str(n), "--n-to", str(n),
                      "--budget-bits", "33554432")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == stderr


@pytest.mark.parametrize("op,n_to", [(Op.SUM, 4), (Op.QUOTIENT, 3)])
def test_certificate_bytes_do_not_depend_on_the_conversion(monkeypatch, op, n_to):
    # the default witness certificate (and the quotient's), built once and
    # emitted through decimal_str and through plain str
    cert = certify(build_example(op), Fraction(3), (1, n_to))
    fast = dumps(certificate_document(cert))
    monkeypatch.setattr(certjson, "decimal_str", str)
    same = dumps(certificate_document(cert)) == fast
    assert same


@pytest.mark.parametrize("argv", [
    ["convergents", "--n-to", "5"],
    ["digits", "--digits", "12000", "--op", "product"],
])
def test_text_output_does_not_depend_on_the_conversion(monkeypatch, capsys, argv):
    code, fast, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(cli, "decimal_str", str)  # digits prints Decimals with str already
    code, slow, _ = run_cli(capsys, *argv)
    same = code == 0 and slow == fast
    assert same


def test_a_trapped_decimal_signal_exits_4(monkeypatch, capsys):
    # a Decimal step that would round on the digits path is an invariant
    # break: one `internal error:` line and exit 4, never a traceback
    monkeypatch.setattr(series.DecimalGrid, "inverse_power",
                        lambda self, g, a, j: Decimal("0.5").to_integral_exact())
    assert run_cli(capsys, "digits") == (
        4, "", "internal error: decimal arithmetic signalled Inexact; "
               "only exact results may print\n")


def test_running_out_of_memory_exits_3(monkeypatch, capsys):
    # a MemoryError is a resource limit: one `budget error:` line, exit 3
    def out_of_memory(doc):
        raise MemoryError

    monkeypatch.setattr(cli, "dumps", out_of_memory)
    code, out, err = run_cli(capsys, "witness")
    assert (code, out) == (3, "")
    assert err.startswith("budget error: ") and err.count("\n") == 1


def run_main(capsys, argv):
    """`main(argv)` with an argparse rejection read as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_calls_in_one_process_match_each_call_alone(capsys):
    argvs = [["digits", "--digits", "5"], ["convergents"], ["measure", "--height", "3"],
             ["digits", "--no-such-flag"], ["digits", "--digits", "5"]]
    together = [run_main(capsys, argv) for argv in argvs]
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(run_main(capsys, argv))
    assert together == alone
    assert [r[0] for r in together] == [0, 0, 0, 2, 0]
    assert together[3][2].endswith("error: unrecognized arguments: --no-such-flag\n")


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    # `--flag=value` is not plain, so both calls go through argparse
    built = []
    init = argparse.ArgumentParser.__init__
    assert run_cli(capsys, "convergents", "--n-to=2")[0] == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    assert run_cli(capsys, "validate", "--n-to=2")[0] == 0
    assert built == []


@pytest.mark.parametrize("argv,code,err", [
    # a_6 = 2**32 is over the budget: the 2**65536-sized n = 5 row is not built
    (["--n-from", "5", "--n-to", "6"], 3,
     "budget error: a_6 = 65536**(2) exceeds the 2**20 exponent budget\n"),
    # the size gate at n = 6 refuses before the schedule would at a_7
    (["--budget-bits", "33", "--n-to", "7"], 3,
     "budget error: 3**4294967296 would need about 8589934592 bits, over the "
     "33554432-bit materialization cap\n"),
    (["--beta", "1/2", "--a1", "16", "--n-to", "4"], 2,
     "config error: a_4 = a_3**(3/2) is not an integer: a_3 = 512 is not a perfect "
     "2-th power\n"),
])
def test_convergents_refuses_before_building_any_row(monkeypatch, capsys, argv, code, err):
    built = []
    partial_sum = series.LacunarySeries.partial_sum
    monkeypatch.setattr(series.LacunarySeries, "partial_sum",
                        lambda self, n: built.append(n) or partial_sum(self, n))
    assert run_cli(capsys, "convergents", *argv) == (code, "", err)
    assert built == []


# One case of each small-queries kind of perfbench/workloads.py, the seven
# refusals included.
_SMALL_QUERIES = [
    (0, ["convergents", "--g1", "5", "--g2", "3", "--op", "product", "--a1", "16",
         "--beta", "1/2", "--n-from", "1", "--n-to", "3"]),
    (0, ["measure", "--g1", "4", "--g2", "2", "--op", "quotient", "--a1", "3", "--beta", "1",
         "--d", "7", "--height", "23", "--n-to", "3"]),
    (0, ["validate", "--g1", "6", "--g2", "5", "--op", "difference", "--a1", "2", "--beta", "2",
         "--alpha", "5/2", "--k", "3/2", "--budget-bits", "64", "--n-to", "2"]),
    (0, ["digits", "--g1", "7", "--g2", "2", "--op", "sum", "--a1", "5", "--beta", "1",
         "--digits", "73"]),
    (2, ["convergents", "--g1", "2", "--g2", "5", "--op", "sum"]),
    (2, ["measure", "--g1", "5", "--g2", "2", "--op", "product", "--d", "7/3"]),
    (2, ["convergents", "--g1", "4", "--g2", "3", "--op", "quotient", "--a1", "6",
         "--beta", "1/2", "--n-to", "2"]),
    (3, ["convergents", "--g1", "6", "--g2", "4", "--op", "difference", "--budget-bits", "3",
         "--n-to", "3"]),
    (3, ["convergents", "--g1", "3", "--g2", "2", "--op", "sum", "--n-from", "5",
         "--n-to", "6"]),
    (3, ["digits", "--g1", "7", "--g2", "3", "--op", "product", "--budget-bits", "4",
         "--digits", "64"]),
    (3, ["validate", "--g1", "5", "--g2", "4", "--op", "quotient", "--a1", "2", "--beta", "2",
         "--budget-bits", "64", "--n-to", "4"]),
]


def test_in_process_calls_match_fresh_processes(capsys):
    # the benchmark calls main in one process: nothing may leak between calls
    in_process = [run_main(capsys, argv) for _, argv in _SMALL_QUERIES]
    fresh = []
    for _, argv in _SMALL_QUERIES:
        proc = run_module(*argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [r[0] for r in fresh] == [code for code, _ in _SMALL_QUERIES]


# Pins that `--flag=value` respells, so that argparse reads them.
_RESPELLED_PINS = [
    ["witness", "--op", "sum"],
    ["witness", "--g1", "7", "--g2", "5", "--op", "product"],
    ["digits", "--budget-bits", "9", "--digits", "400"],
    ["convergents", "--n-to", "5"],
    ["measure", "--height", "3"],
    ["validate", "--n-to", "3"],
]


@pytest.mark.parametrize("argv", [argv for _, argv in _SMALL_QUERIES] + _RESPELLED_PINS)
def test_both_routes_print_the_same_bytes(capsys, argv):
    respelled = [argv[0], *(f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2]))]
    assert cli._plain_args(argv) is not None and cli._plain_args(respelled) is None
    assert run_main(capsys, argv) == run_main(capsys, respelled)


_COUNT_PARSER_CALLS = """
import contextlib, io, json, sys
from lacunary import cli

def call(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass

for argv in json.loads(sys.argv[1]):
    call(argv)
sys.argv = ["lacunary", "convergents", "--n-to", "2"]
call(None)
info = cli._build_parser.cache_info()
print(info.hits + info.misses)
call(["--help"])
call(["digits", "--help"])
print(cli._build_parser.cache_info().misses)
"""


def test_plain_calls_build_no_parser_in_a_fresh_process():
    # plain calls never call _build_parser; the first --help builds it, once
    argvs = json.dumps([argv for _, argv in _SMALL_QUERIES])
    proc = subprocess.run([sys.executable, "-c", _COUNT_PARSER_CALLS, argvs],
                          capture_output=True, text=True, env=CLI_ENV, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "0\n1\n"), proc.stderr


_FLAG_TEXTS = ["--config"] + ["--" + name.replace("_", "-") for name in cli._KEYS]
_OTHER_TOKENS = ["-h", "--help", "--version", "--", "--dig", "--n", "--he", "--bud", "--o"]
_VALUES = ["2", "3", "7", "1/2", "sum", "quotient", "digits", "", "x y", "-5", "-1/2"]
_ARGVS = st.one_of(st.just([]), st.builds(
    lambda head, pairs, tail: [head, *(t for pair in pairs for t in pair), *tail],
    st.sampled_from([*cli._COMMANDS, "nope", "--version", "-h"]),
    st.lists(st.tuples(st.sampled_from(_FLAG_TEXTS + ["-h", "--help"]),
                       st.sampled_from(_VALUES)), max_size=4),
    st.one_of(st.just([]), st.lists(
        st.one_of(st.sampled_from(_FLAG_TEXTS + _OTHER_TOKENS + _VALUES),
                  st.builds("{}={}".format, st.sampled_from(_FLAG_TEXTS),
                            st.sampled_from(_VALUES))), min_size=1, max_size=2))))


def _call(argv):
    """(exit code, stdout, stderr) of `main(argv)`, run in an empty
    directory so that `--out` and `--config` name no file of the tree."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=500)
@given(argv=_ARGVS)
def test_plain_reader_matches_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(cli._build_parser().parse_args(argv))
    with mock.patch.object(cli, "_plain_args", return_value=None):
        fallback = _call(argv)
    assert _call(argv) == fallback


@pytest.mark.parametrize("code, argv", [
    (0, ["digits", "--digits", "27500"]),
    (0, ["witness"]),
    (0, ["witness", "--beta", "1/2", "--a1", "16"]),
    (3, ["digits", "--budget-bits", "9", "--digits", "400"]),
])
def test_series_are_freed_when_main_returns(monkeypatch, capsys, code, argv):
    # nothing a series caches may hold a traceback, whose frames would tie
    # the series into a reference cycle, alive until the cyclic collector ran
    made = []
    init = series.LacunarySeries.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(series.LacunarySeries, "__init__", tracked)
    gc.disable()
    try:
        assert run_cli(capsys, *argv)[0] == code
        assert len(made) == 2
        assert [ref() for ref in made] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("code, argv, err", [
    (3, ["digits", "--budget-bits", "9", "--digits", "400"],
     "budget error: no enclosure tight enough for 400 decimal places"),
    (2, ["digits", "--beta", "1/2", "--a1", "16", "--digits", "400"],
     "config error: a_4 = a_3**(3/2) is not an integer: "),
    (0, ["witness", "--beta", "1/2", "--a1", "16"], ""),
])
def test_enclosure_caches_hold_only_integers(monkeypatch, capsys, code, argv, err):
    # an enclosure cut short by the schedule's end records the index the
    # schedule refused, not the refusal: the cache keeps no exception
    made = []
    init = series.LacunarySeries.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(series.LacunarySeries, "__init__", tracked)
    got, _, stderr = run_cli(capsys, *argv)
    assert got == code and stderr.startswith(err)
    assert len(made) == 2 and any(s._on_grid for s in made)
    for s in made:
        for entry in s._on_grid.values():
            assert all(x is None or type(x) in (int, Decimal) for x in entry), entry

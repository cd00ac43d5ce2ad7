"""CLI contract: exit codes, byte-identical reruns, manifests, config files."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gapscope
from gapscope.cli import (
    _OPTIONS, _SUMMARIES, _read_manifest, _table, build_parser, main, parse_flag,
    parse_int_literal,
)
from gapscope.claims import format_ledger
from gapscope.ledger import builtin_ledger, mutated_ledger
from gapscope.primes import max_gap_table
from gapscope.reports import canonical_json, write_manifest, write_table_csv
from test_claims import SQRT2_CLAIM, _ledger_text


DATA = Path(__file__).parent / "data"


def run(args):
    return main(args)


def read(path: Path) -> bytes:
    return Path(path).read_bytes()


def test_gaps_small(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["gaps", "--limits", "10,100,1000", "--out", str(out)]) == 0
    table = (out / "max_gap_table.csv").read_text()
    assert "10,4,0.60" in table and "100,8,0.45" in table and "1000,20,0.43" in table
    summaries = json.loads((out / "gap_summaries.json").read_text())
    assert summaries[0] == {"x": 10, "count": 4, "max_gap": 4, "sum_gap": 9,
                            "sum_gap_sq": 25}
    assert (out / "manifest.json").exists()


def test_gaps_scientific_literals(tmp_path):
    out = tmp_path / "o"
    assert run(["gaps", "--limits", "1e2", "--out", str(out)]) == 0
    rows = (out / "max_gap_table.csv").read_text().splitlines()
    assert rows[1] == "100,8,0.45"


def test_gaps_large_guard(tmp_path):
    assert run(["gaps", "--limits", "1e12", "--out", str(tmp_path / "o")]) == 2


def test_gaps_limit_over_ceiling_refused_up_front(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run(["gaps", "--limits", "2000", "--ceiling", "1000", "--out", out]) == 2
    assert "limit 2000 exceeds ceiling 1000" in capsys.readouterr().err
    t0 = time.perf_counter()
    assert run(["gaps", "--limits", "2e10", "--allow-large", "--out", out]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds ceiling" in capsys.readouterr().err


def test_gaps_rows_match_max_gap_table(tmp_path):
    limits = [10, 97, 1000, 12345, 10**5]
    out = tmp_path / "o"
    assert run(["gaps", "--limits", ",".join(map(str, limits)), "--out", str(out)]) == 0
    write_table_csv(tmp_path / "ref.csv", max_gap_table(limits))
    assert read(out / "max_gap_table.csv") == read(tmp_path / "ref.csv")


def test_gaps_stream_csv(tmp_path):
    out = tmp_path / "o"
    assert run(["gaps", "--limits", "50", "--stream-csv",
                "--stream-limit", "50", "--out", str(out)]) == 0
    lines = (out / "gaps.csv").read_text().splitlines()
    assert lines[0] == "p,next,gap"
    assert lines[1] == "2,3,1"
    assert lines[-1] == "47,53,6"  # straddling gap for limit 50


def test_usage_error_exit_1(tmp_path):
    assert run(["gaps", "--limits", "ten", "--out", str(tmp_path / "o")]) == 1
    assert run(["nonsense"]) == 1
    assert run(["verify", "--threads", "2", "--out", str(tmp_path / "o")]) == 1
    for res in ("1/0", "0", "-1/64"):
        assert run(["optimize-nu", "--res", res, "--out", str(tmp_path / "o")]) == 1, res


def test_gaps_non_integer_limits(tmp_path):
    out = str(tmp_path / "o")
    for bad in ("inf", "nan", "-inf", "1.5", "15e-1"):
        assert run(["gaps", "--limits", bad, "--out", out]) == 1, bad
    # an exact 10^400 is a valid literal, refused by the desk-scale guard
    assert run(["gaps", "--limits", "1e400", "--out", out]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("limits=1.5\n", encoding="utf-8")
    assert run(["gaps", "--config", str(cfg), "--out", out]) == 1


@pytest.mark.parametrize("args,needle", [
    (["identity", "--k", "0"], "error: need n >= 0 and k >= 1 for the integer k-th root, "
                               "got n=150, k=0"),
    (["perron", "--T0", "-5"], "error: need T0 > 0"),
    (["perron", "--T0", "0"], "error: need T0 > 0"),
    (["perron", "--tau", "inf"], "error: need finite y, tau, c, T0 and T1"),
    (["perron", "--y", "nan"], "error: need finite y, tau, c, T0 and T1"),
    (["perron", "--y", "1"], "error: need y >= 3 and tau >= 2"),
    (["perron", "--y", "0"], "error: need y >= 3 and tau >= 2"),
    (["perron", "--y", "-5"], "error: need y >= 3 and tau >= 2"),
    (["perron", "--y", "0.5"], "error: need y >= 3 and tau >= 2"),
    (["largevalues", "--experiments", "-1"], "error: n_experiments must be >= 0, got -1"),
    (["largevalues", "--slack", "nan"], "error: slack must be finite and positive, got nan"),
    (["largevalues", "--slack", "inf"], "error: slack must be finite and positive, got inf"),
    (["largevalues", "--slack", "0"], "error: slack must be finite and positive, got 0.0"),
    (["perron", "--factors", "unit:3", "--y", "4", "--tau", "2"],
     "error: factor length N = 3 is not a power of two"),
    (["perron", "--factors", "unit:8,singleton:5"],
     "error: bad factor spec 'singleton:5' (e.g. unit:8, mobius:16, singleton)"),
], ids=["k=0", "T0=-5", "T0=0", "tau=inf", "y=nan", "y=1", "y=0", "y=-5", "y=0.5",
        "experiments=-1", "slack=nan", "slack=inf", "slack=0", "factors=unit:3",
        "factors=singleton:5"])
def test_out_of_domain_inputs_exit_1_with_message(tmp_path, capsys, args, needle):
    out = tmp_path / "o"
    assert run(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == needle
    assert not (out / "manifest.json").exists()


def run_quietly(argv) -> tuple[int, str]:
    """main(argv) into a scratch --out, with its exit code and its stdout and stderr."""
    text = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(text), \
            contextlib.redirect_stderr(text):
        code = main(argv + ["--out", out])
    return code, text.getvalue()


#: Factor spec parts: valid ones at lengths whose products stay small (2^0..2^6),
#: and near misses: lengths refused at once (2^24 and up), other kinds, any text.
FACTOR_PART = st.one_of(
    st.just("singleton"),
    st.builds("{}:{}".format, st.sampled_from(["unit", "log", "mobius"]),
              st.integers(0, 6).map(lambda e: 2**e)),
    st.sampled_from(["unit", "singleton:", ":8", "", "unit:8:2", "log: 16",
                     "unit:" + "9" * 5000, "mobius:1e3"]),
    st.builds("{}:{}".format, st.sampled_from(["unit", "log", "mobius", "singleton", "zeta"]),
              st.one_of(st.integers(24, 80).map(lambda e: str(2**e)),
                        st.integers(-3, 70).map(str), st.text(max_size=3))),
    st.text(max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(FACTOR_PART, min_size=1, max_size=3).map(",".join))
def test_generated_perron_factor_specs_keep_the_exit_code_contract(spec):
    code, text = run_quietly(["perron", "--factors", spec])
    assert code in (0, 1, 2, 3) and "Traceback" not in text


INT_TEXT = st.one_of(st.integers(-3, 300).map(str), st.integers(10**6, 10**400).map(str),
                     st.sampled_from(["1e3", "2.5e2", "1.5", "abc", "", "-0", "1e400"]))


@settings(max_examples=80, deadline=None)
@given(INT_TEXT, st.one_of(st.integers(-2, 8).map(str), INT_TEXT), st.booleans())
def test_generated_identity_argv_keeps_the_exit_code_contract(x, k, dump):
    argv = ["identity", "--x", x, "--k", k] + ["--dump-factorizations"] * dump
    code, text = run_quietly(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in text


#: Option texts refused before any work: no number, or digits past every cap.
NEAR_MISS = st.one_of(st.sampled_from(["", "abc", "1.5", "-0", "nan", "inf", "1e400", "9" * 5000]),
                      st.text(max_size=4))


def maybe_option(name, values):
    """[] or [name, value] with value drawn from values."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


#: gaps limits of at most 10^5 (a sweep and its successor search take
#: milliseconds), or past the desk scale and the ceiling, so refused at once;
#: ceilings stay at most 10^6 for the same reason.
GAPS_ARGV = st.tuples(
    maybe_option("--limits", st.lists(st.one_of(st.integers(-3, 10**5).map(str),
                                                 st.integers(10**10 + 1, 10**400).map(str),
                                                 NEAR_MISS), min_size=1, max_size=3).map(",".join)),
    st.sampled_from([[], ["--allow-large"]]),
    maybe_option("--ceiling", st.one_of(st.integers(-3, 10**6).map(str), NEAR_MISS)),
    st.sampled_from([[], ["--stream-csv"]]),
    maybe_option("--stream-limit", st.one_of(st.integers(-3, 10**4).map(str), NEAR_MISS)),
).map(lambda parts: ["gaps"] + sum(parts, []))


@settings(max_examples=150, deadline=None)
@given(GAPS_ARGV)
def test_generated_gaps_argv_keeps_the_exit_code_contract(argv):
    code, text = run_quietly(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in text


#: largevalues runs at most 2 experiments (a few ms each), or a count over the
#: cap, refused at once.
LARGEVALUES_ARGV = st.tuples(
    maybe_option("--experiments", st.one_of(st.integers(-3, 2).map(str),
                                            st.integers(10**4 + 1, 10**400).map(str), NEAR_MISS)),
    maybe_option("--seed", st.one_of(st.integers(-10**400, 10**400).map(str), NEAR_MISS)),
    maybe_option("--slack", st.one_of(st.floats().map(repr), NEAR_MISS)),
).map(lambda parts: ["largevalues"] + sum(parts, []))


@settings(max_examples=100, deadline=None)
@given(LARGEVALUES_ARGV)
def test_generated_largevalues_argv_keeps_the_exit_code_contract(argv):
    code, text = run_quietly(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in text


@pytest.mark.parametrize("mu_box", ["-1, 2", "0, 1"])
def test_verify_refuses_mu_box_reaching_zero(tmp_path, capsys, mu_box):
    # at mu = 1/2, inside the box, u = 1/mu = 2 > 1: the claim is false
    ledger = tmp_path / "l.txt"
    ledger.write_text(f"a | u | 1 | 0, 1 | {mu_box}\n", encoding="utf-8")
    assert run(["verify", "--ledger", str(ledger), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mu box of claim a starts at") and "mu > 0" in err



def test_non_finite_perron_estimate_exits_1_without_traceback(tmp_path):
    # y = 1e308 overflows the closed form; QuadratureError is a usage error
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "gapscope.cli", "perron", "--y", "1e308", "--tau", "2",
         "--factors", "singleton", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(gapscope.__file__).parents[1])},
    )
    assert proc.returncode == 1
    assert "error: non-finite estimate" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (out / "manifest.json").exists()


def test_exact_commands_import_no_numpy():
    # verify, optimize-nu and report on them need only the pure-Python layers
    code = ("import sys, gapscope.cli, gapscope.nu, gapscope.ledger; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(gapscope.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_parse_int_literal_exact():
    assert parse_int_literal("123456789012345678e2") == 12345678901234567800
    assert parse_int_literal("1e400") == 10**400
    assert parse_int_literal(" 2.5e3 ") == 2500
    assert parse_int_literal("1500e-2") == 15
    assert parse_int_literal("-0") == 0
    assert parse_int_literal("+7") == 7
    for bad in ("1.5", "15e-1", "inf", "nan", "9/5", "", "e5", "1e5000", "1e-99999999"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_int_literal(bad)


@given(st.integers(), st.integers(-10**30, 10**30), st.integers(0, 60))
def test_parse_int_literal_round_trip(n, m, k):
    assert parse_int_literal(str(n)) == n
    assert parse_int_literal(f"{m}e{k}") == m * 10**k


def test_identity_command(tmp_path):
    out = tmp_path / "o"
    assert run(["identity", "--x", "50", "--k", "2",
                "--dump-factorizations", "--out", str(out)]) == 0
    rep = json.loads((out / "identity_report.json").read_text())
    assert rep["exact"] and rep["max_residual"] < 1e-9
    dump = json.loads((out / "factorizations.json").read_text())
    assert all(set(d) == {"j", "lengths", "classes", "weight"} for d in dump)


def test_identity_dump_over_the_enumeration_cap_exits_2_at_once(tmp_path, capsys):
    # k = 5 at x = 5000 has 17,819,340 block tuples, refused before any is built
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert run(["identity", "--x", "5000", "--k", "5", "--dump-factorizations",
                "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.strip() == ("capacity: enumeration refused at x=5000, k=5: "
                                               "more than 100000 block tuples")
    assert not (out / "factorizations.json").exists()


def test_verify_escapes_control_characters_in_claim_ids(tmp_path):
    ledger = tmp_path / "l.txt"
    ledger.write_text("tab\there\x01 | s | 5/8 | 1/2, 5/8 | all\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run(["verify", "--ledger", str(ledger), "--out", str(out)]) == 0
    report = json.loads((out / "verdicts.json").read_text(encoding="utf-8"))
    assert [v["id"] for v in report["verdicts"]] == ["tab\there\x01"]
    every = "".join(map(chr, range(32))) + '\x7f "\\ é\u2028'
    assert json.loads(canonical_json(every)) == every


def test_verify_builtin_and_mutated(tmp_path, capsys):
    out = tmp_path / "v"
    assert run(["verify", "--out", str(out)]) == 0
    rep = json.loads((out / "verdicts.json").read_text())
    assert rep["claims"] >= 20 and not rep["failures"]

    bad = tmp_path / "mutated.txt"
    bad.write_text(format_ledger(mutated_ledger()), encoding="utf-8")
    assert run(["verify", "--ledger", str(bad), "--out", str(tmp_path / "v2")]) == 3
    printed = capsys.readouterr().out
    assert "FAIL" in printed and "sigma=" in printed


def test_verify_of_the_builtin_ledger_text_writes_the_builtin_verdicts(tmp_path):
    ledger = tmp_path / "builtin.txt"
    ledger.write_text(format_ledger(builtin_ledger()), encoding="utf-8")
    assert run(["verify", "--out", str(tmp_path / "a")]) == 0
    assert run(["verify", "--ledger", str(ledger), "--out", str(tmp_path / "b")]) == 0
    assert read(tmp_path / "a" / "verdicts.json") == read(tmp_path / "b" / "verdicts.json")


@settings(max_examples=80, deadline=None)
@given(_ledger_text)
def test_generated_ledger_files_keep_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as d:
        ledger = Path(d) / "l.txt"
        ledger.write_bytes(text.encode("utf-8", "surrogatepass"))
        code, printed = run_quietly(["verify", "--ledger", str(ledger)])
    assert code in (0, 1, 2, 3) and "Traceback" not in printed


def test_mutated_ledger_golden(tmp_path):
    ledger = DATA / "m.txt"
    assert format_ledger(mutated_ledger()).encode("utf-8") == read(ledger)
    out = tmp_path / "v"
    assert run(["verify", "--ledger", str(ledger), "--out", str(out)]) == 3
    assert read(out / "verdicts.json") == read(DATA / "verdicts.json")


def test_optimize_nu_command(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["optimize-nu", "--res", "1/64", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "nu* = 1/4" in printed
    prof = json.loads((out / "nu_profile.json").read_text())
    assert prof["nu_star"] == "1/4"
    assert abs(prof["nu_star_float"] - 0.25) <= 0.005


def test_perron_command(tmp_path):
    out = tmp_path / "o"
    assert run(["perron", "--y", "9", "--tau", "3", "--T0", "200",
                "--factors", "unit:8", "--out", str(out)]) == 0
    rep = json.loads((out / "perron_report.json").read_text())
    assert rep["direct"] == 3
    assert rep["residual"] < 0.05


def test_perron_high_T0_runs_in_constant_time(tmp_path):
    # the closed form costs O(support) per height: T0 = 1e8 is no dearer
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert run(["perron", "--T0", "1e8", "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    rep = json.loads((out / "perron_report.json").read_text())
    assert rep["T0"] == 1e8 and rep["direct"] == 20
    assert rep["implied_constant"] <= 50


def test_largevalues_command(tmp_path):
    out = tmp_path / "o"
    assert run(["largevalues", "--experiments", "6", "--out", str(out)]) == 0
    rep = json.loads((out / "largevalues_report.json").read_text())
    assert rep["sandwich_ok"] and rep["montgomery_ok"]
    assert rep["cells"] and "ratios" in rep["cells"][0]


def test_idempotent_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gaps", "--limits", "10,1000", "--out", str(out)]) == 0
    for name in ("max_gap_table.csv", "gap_summaries.json"):
        assert read(a / name) == read(b / name)


def test_manifest_rerun_reproduces_outputs(tmp_path):
    a = tmp_path / "a"
    assert run(["gaps", "--limits", "10,100", "--out", str(a)]) == 0
    b = tmp_path / "b"
    assert run(["report", "--manifest", str(a / "manifest.json"),
                "--out", str(b)]) == 0
    for name in ("max_gap_table.csv", "gap_summaries.json"):
        assert read(a / name) == read(b / name)


GAPS_OPTIONS = {"limits": [10], "allow_large": False, "ceiling": 10**10,
                "stream_csv": False, "stream_limit": 10**5}


@pytest.mark.parametrize("manifest", [
    {"command": "frobnicate", "options": {}},
    {"options": {"limits": [10]}},
    {"command": ["gaps"], "options": {}},
    {"command": "gaps"},
    {"command": "gaps", "options": [10, 100]},
    {"command": "gaps", "options": {"limits": [10]}},
    [1, 2],
    {"command": "gaps", "options": {**GAPS_OPTIONS, "limits": "abc"}},
    {"command": "gaps", "options": {**GAPS_OPTIONS, "ceiling": "x"}},
    {"command": "gaps", "options": {**GAPS_OPTIONS, "limits": [1000.5]}},
])
def test_report_bad_manifest_exit_1(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert run(["report", "--manifest", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: manifest")


def test_manifest_rerun_optimize(tmp_path):
    a = tmp_path / "a"
    assert run(["optimize-nu", "--res", "1/64", "--out", str(a)]) == 0
    b = tmp_path / "b"
    assert run(["report", "--manifest", str(a / "manifest.json"),
                "--out", str(b)]) == 0
    assert read(a / "nu_profile.json") == read(b / "nu_profile.json")


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("limits=10,100\n# comment\nstream-csv=false\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run(["gaps", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "max_gap_table.csv").read_text().splitlines()
    assert rows[1:] == ["10,4,0.60", "100,8,0.45"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"]["limits"] == [10, 100]
    assert manifest["options"]["stream_csv"] is False
    cfg.write_text("limits=10\nstream-csv=maybe\n", encoding="utf-8")
    assert run(["gaps", "--config", str(cfg), "--out", str(out)]) == 1


@pytest.mark.parametrize("line", [
    "limit=10",  # no option has this key
    "x=5",  # an identity option, not a gaps one
])
def test_config_key_gaps_does_not_take_exit_1(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run(["gaps", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key") and repr(line.split("=")[0]) in err
    assert not (out / "manifest.json").exists()


# SHA-256 of reports written by the Fraction-walk enumeration and the
# per-cell required_nu that the exponent walk and the row kernel replaced,
# and by the per-integer convolution loop, trial-division Lambda and
# isinstance-chain writer that the hyperbola split, the sieved Lambda table
# and the type dispatch replaced.  Paths are relative to the output directory
# of test_golden_report_digests.
GOLDEN_SHA256 = {
    "nu_profile.json": "4c788eb4f8be16e648e78c9c8bde204f4dd566b21174eb96e284d81830d0bc77",
    "factorizations.json": "8354c9c5dba2a7b32e9aa49c9e56d5aba22c5ca6829b66d11718bc5407953744",
    "identity_report.json": "cd98887d1b8888c99bde678a841b47c6b6345b66d339fd08a83c65ef3630e21a",
    "k3/identity_report.json": "6eb8911f4327c0e3ac6253140521d07421680afe440e8e65d43e60f749995eee",
    "verify/verdicts.json": "c406af779a484fecefe3c640cf070fba8f1d3334bc02d75b364c69cd36c736ed",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(read(path)).hexdigest()


def test_golden_report_digests(tmp_path):
    out = tmp_path / "o"
    assert run(["optimize-nu", "--res", "1/64", "--out", str(out)]) == 0
    assert run(["identity", "--x", "5000", "--k", "2", "--dump-factorizations",
                "--out", str(out)]) == 0
    assert run(["identity", "--x", "5000", "--k", "3", "--out", str(out / "k3")]) == 0
    assert run(["verify", "--out", str(out / "verify")]) == 0
    for name, digest in GOLDEN_SHA256.items():
        assert sha256(out / name) == digest, name


# SHA-256 of the gaps reports written before the sieve struck its next segment
# on a worker thread.  The stream runs to the default stream_limit, 10^5.
GAPS_SHA256 = {
    "max_gap_table.csv": "3b35d74eecd49de9ae2435efc89dbc129fb6d7dd13cbd5fcaf593edade36f1a6",
    "gap_summaries.json": "a5bcf59de67606c12992dae6a6c6cfa400775b96c2c8123389d79567899d42c2",
    "gaps.csv": "fd5d7bc768182f6ff22df4767ba1495336ce6622531ac0dda8deac6876ebb8be",
}


def test_gaps_report_digests(tmp_path):
    out = tmp_path / "o"
    assert run(["gaps", "--limits", "10,1e2,1e3,1e4,1e5,1e6,1e7,1e8", "--stream-csv",
                "--out", str(out)]) == 0
    for name, digest in GAPS_SHA256.items():
        assert sha256(out / name) == digest, name


# SHA-256 of the large-value and Perron reports, and of the exact repr of the
# decay suite's rows and of the long-T classification (unit(16) x mobius(8) on
# c = 1.12, T = 3000: cells, S0 and floors).  The floats are as numpy 2.4.6
# with scipy-openblas (OpenBLAS 0.3.31, DYNAMIC_ARCH) computes them on x86-64;
# another numpy or BLAS may move a last bit, and so a digest.
WINDOW_CELL_SHA256 = {
    "largevalues_report.json":
        "5942f6c9d04552e5add13b792c95ab9b8dfa2a55513093da4a53a3057953568c",
    "seed-20120118/largevalues_report.json":
        "0a256406ab11b245d57d8448ce9a6e170874f6243714d501142c05820ac09032",
    "perron/perron_report.json":
        "0a4b12c2210b2cdad3642a620d0c6c69531f32f6332d9c71b332ff8294dfead3",
    "decay-suite rows":
        "2a50913dd21497d6781788a1d992de5df4f3b71cb4eb6e3ee44c7f14a798fbcd",
    "long-T cells":
        "a632660711c133c4f1f3f7aa848969c2aced0d6ed24009a5e73563c9158572b0",
}


def _window_cell_digests(out: Path) -> dict:
    from gapscope import dirichlet, experiments

    assert run(["largevalues", "--experiments", "25", "--out", str(out)]) == 0
    assert run(["largevalues", "--experiments", "25", "--seed", "20120118",
                "--out", str(out / "seed-20120118")]) == 0
    assert run(["perron", "--factors", "unit:16,log:8,mobius:8",
                "--out", str(out / "perron")]) == 0
    got = {name: sha256(out / name) for name in WINDOW_CELL_SHA256 if name.endswith(".json")}
    rows = experiments.run_perron_decay_suite()["rows"]
    got["decay-suite rows"] = hashlib.sha256(repr(rows).encode()).hexdigest()
    cls = dirichlet.classify_profile(
        [dirichlet.unit_factor(16), dirichlet.mobius_factor(8)], 1.12, 3000.0)
    profiles = sorted(cls.cells, key=lambda p: p.band_indices)
    long_t = ([(p.band_indices, cls.cells[p]) for p in profiles], cls.s0,
              [cls.floors[p] for p in profiles])
    got["long-T cells"] = hashlib.sha256(repr(long_t).encode()).hexdigest()
    return got


def test_window_and_cell_report_digests(tmp_path):
    assert _window_cell_digests(tmp_path / "o") == WINDOW_CELL_SHA256


def test_canonical_json_subclasses_match_exact_types():
    class S(str):
        pass

    class N(int):
        pass

    class D(dict):
        pass

    class L(list):
        pass

    exact = {"s": 'a"b\\', "n": 7, "flags": [True, None], "q": [Fraction(1, 3), 2.5, 3.0],
             "rows": [{"k": []}, {}], "t": (1, "x")}
    sub = D(s=S('a"b\\'), n=N(7), flags=L([True, None]), q=L([Fraction(1, 3), 2.5, 3.0]),
            rows=L([D(k=L()), D()]), t=(N(1), S("x")))
    text = canonical_json(exact)
    assert canonical_json(sub) == text
    assert text == ('{\n  "s": "a\\"b\\\\",\n  "n": 7,\n  "flags": [\n    true,\n    null\n  ],\n'
                    '  "q": ["1/3", 2.5, 3],\n  "rows": [\n    {\n      "k": []\n    },\n'
                    '    {}\n  ],\n  "t": [1, "x"]\n}')


def test_report_replays_manifest_with_threads_key(tmp_path):
    # manifests written while --threads existed carry a "threads" option
    manifest = {"command": "optimize-nu",
                "options": {"res": "1/64", "out": str(tmp_path / "a"), "threads": 2}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "b"
    assert run(["report", "--manifest", str(path), "--out", str(out)]) == 0
    assert sha256(out / "nu_profile.json") == GOLDEN_SHA256["nu_profile.json"]
    replayed = json.loads((out / "manifest.json").read_text())
    assert replayed["options"] == {"res": "1/64", "out": str(out)}


def test_report_replays_perron_manifest_with_gauss_order_key(tmp_path, capsys):
    # manifests written while perron --gauss-order existed carry "gauss_order";
    # the replay reproduces that version's report at the report's precision
    manifest = {"command": "perron",
                "options": {"y": 201.5, "tau": 10, "T0": None, "factors": "unit:128",
                            "gauss_order": 24, "out": str(tmp_path / "a")}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "b"
    assert run(["report", "--manifest", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "perron_report.json").read_text()) == {
        "y": 201.5, "tau": 10, "T0": 1493.65404283, "estimate": 19.9103279211,
        "direct": 20, "residual": 0.0896720788684, "envelope": 9.10352776706,
        "implied_constant": 0.00985025598459,
    }
    replayed = json.loads((out / "manifest.json").read_text())
    assert "gauss_order" not in replayed["options"]
    assert run(["perron", "--gauss-order", "12", "--out", str(out)]) == 1
    assert "unrecognized arguments: --gauss-order" in capsys.readouterr().err


@pytest.mark.parametrize("args,needle", [
    (["identity", "--x", "1e8"], "capacity: identity check at x = 100000000 over the "
                                 "desk-scale cap x <= 1000000 (about 70 bytes per n <= 3x)"),
    (["identity", "--x", "1000001"], "capacity: identity check at x = 1000001 over the "
                                     "desk-scale cap x <= 1000000 (about 70 bytes per n <= 3x)"),
    (["optimize-nu", "--res", "1/100000000"], "capacity: resolution 1/100000000 makes "
                                              "3888889077777780 grid cells, over the cap 131072"),
    (["optimize-nu", "--res", "1/1024"], "capacity: resolution 1/1024 makes 409374 grid cells, "
                                         "over the cap 131072"),
], ids=["identity-x=1e8", "identity-x=1000001", "res=1e-8", "res=1/1024"])
def test_capacity_guards_refuse_before_work(tmp_path, capsys, args, needle):
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert run(args + ["--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.strip() == needle
    assert not (out / "manifest.json").exists()


#: A coprime degree-12 over degree-11 quotient with 63-bit coefficients: its
#: 12th power is refused at once only if the power takes no gcd per step (a
#: gcd per step takes minutes).
_QUOTIENT = "({})/({})".format(" + ".join(f"{2**63 - 7 * k - 25}*s^{k}" for k in range(13)),
                               " + ".join(f"{2**63 - 11 * k - 3}*s^{k}" for k in range(12)))


@pytest.mark.parametrize("line,code,needle", [
    ("a | s^40000 | 1 | 1/2, 1 | all", 2, "capacity: exponent 40000 over the cap 12 in 's^40000'"),
    (f"a | ({_QUOTIENT})^12 | 1 | 1/2, 1 | all", 2,
     f"capacity: degree 144 over the cap 12 in '({_QUOTIENT})^12'"),
    # past int()'s 4300-digit limit
    ("a | " + "9" * 5000 + " | 1 | 1/2, 1 | all", 2,
     f"capacity: coefficient over 64 bits in '{'9' * 5000}'"),
    ("a | s^" + "9" * 5000 + " | 1 | 1/2, 1 | all", 2,
     f"capacity: exponent {'9' * 5000} over the cap 12 in 's^{'9' * 5000}'"),
    ("a | s^99999999 | 1 | 1/2, 1 | all", 2,
     "capacity: exponent 99999999 over the cap 12 in 's^99999999'"),
    ("a | (s^12)^12 | 1 | 1/2, 1 | all", 2, "capacity: degree 144 over the cap 12 in '(s^12)^12'"),
    ("a | 1; s^7*s^6 | 1 | 1/2, 1 | all", 2, "capacity: degree 13 over the cap 12 in 's^7*s^6'"),
    ("a | 1/0 | 1 | 1/2, 1 | all", 1,
     "error: division by zero in ledger line 'a | 1/0 | 1 | 1/2, 1 | all'"),
    ("a | s/(s-s) | 1 | 1/2, 1 | all", 1,
     "error: division by zero in ledger line 'a | s/(s-s) | 1 | 1/2, 1 | all'"),
    ("a | s | 1 | 1/0, 1 | all", 1,
     "error: division by zero in ledger line 'a | s | 1 | 1/0, 1 | all'"),
    ("a | s | 1 | 1/2, 1 | all | maybe", 1,
     "error: sixth field must be 'strict', got 'maybe': 'a | s | 1 | 1/2, 1 | all | maybe'"),
    ("a | s | 1 | 1/2, 1 | all |", 1,
     "error: sixth field must be 'strict', got '': 'a | s | 1 | 1/2, 1 | all |'"),
    # the 12th power of a 4300-digit box end passes int()'s limit when written
    ("a | s^12 | 1 | 0, 1e-4299 | 1e4299, 2e4299", 2,
     "capacity: box end over 170 digits in '1e-4299'"),
    ("a | s | 1 | 1/2, 1 | 1, " + "9" * 171, 2,
     f"capacity: box end over 170 digits in '{'9' * 171}'"),
    # an ordering line takes '-' in both box fields
    ("b | root(s - 1; 0, 2) | 5 | nonsense | 1,2,3,4", 1,
     "error: sigma field of root() must be '-', got 'nonsense': "
     "'b | root(s - 1; 0, 2) | 5 | nonsense | 1,2,3,4'"),
    ("b | root(s - 1; 0, 2) | 5 | - | all | strict", 1,
     "error: mu field of root() must be '-', got 'all': "
     "'b | root(s - 1; 0, 2) | 5 | - | all | strict'"),
], ids=["s^40000", "big-quotient^12", "5000-digits", "s^5000-digits", "s^99999999",
        "nested-power", "product", "1/0", "s/0", "box-1/0", "sixth=maybe", "sixth=empty",
        "box-1e-4299", "mu-171-digits", "root-sigma-box", "root-mu-box"])
def test_ledger_inputs_refused_with_contract_code(tmp_path, capsys, line, code, needle):
    ledger = tmp_path / "l.txt"
    ledger.write_text(line + "\n", encoding="utf-8")
    t0 = time.perf_counter()
    assert run(["verify", "--ledger", str(ledger), "--out", str(tmp_path / "o")]) == code
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.strip() == needle


def test_ordering_bound_next_to_its_root_is_decided_at_once(tmp_path, capsys):
    ledger = tmp_path / "l.txt"
    ledger.write_text(SQRT2_CLAIM + "\n", encoding="utf-8")
    t0 = time.perf_counter()
    assert run(["verify", "--ledger", str(ledger), "--out", str(tmp_path / "o")]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "0/1 claims hold" in capsys.readouterr().out


def test_ledger_degree_cap_admits_degree_12(tmp_path, capsys):
    ledger = tmp_path / "l.txt"
    ledger.write_text("a | s^12; s^6*s^6 - u | 2 | 1/2, 1 | all | strict\n", encoding="utf-8")
    assert run(["verify", "--ledger", str(ledger), "--out", str(tmp_path / "o")]) == 0
    assert "1/1 claims hold" in capsys.readouterr().out


@pytest.mark.parametrize("line,code", [
    ("a | u*s^12 | 1/s^12 | 1/{n}, 2/{n} | 1/{n}, 2/{n}", 0),
    ("a | s^12 | 1 | 0, {n} | all", 3),
    ("a | 1/s^12 | u*s^12 | 1/{n}, 2/{n} | 1/{n}, {n}", 3),
], ids=["holds", "fails-at-box-end", "fails-degree-24"])
def test_ledger_box_ends_at_the_digit_cap_are_decided(tmp_path, capsys, line, code):
    ledger = tmp_path / "l.txt"
    ledger.write_text(line.format(n="9" * 170) + "\n", encoding="utf-8")
    assert run(["verify", "--ledger", str(ledger), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == ""


def test_each_subparser_takes_exactly_its_table_row():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    subparsers = sub.choices
    assert list(subparsers) == list(_SUMMARIES) == list(_OPTIONS)
    for command, sp in subparsers.items():
        wired = {a.dest: a for a in sp._actions if a.dest != "help"}
        extra = ["manifest"] if command == "report" else []
        assert list(wired) == ["out", "config", *_OPTIONS[command], *extra], command
        for key, (parse, _, text) in _OPTIONS[command].items():
            a = wired[key]
            assert a.option_strings == ["--" + key.replace("_", "-")]
            assert (a.default, a.help) == (None, text)
            if parse is parse_flag:
                assert isinstance(a, argparse._StoreTrueAction), key
            else:
                assert a.type is parse, key


@pytest.mark.parametrize("command", [c for c in _OPTIONS if c != "report"])
def test_option_defaults_survive_a_manifest_trip(tmp_path, command):
    defaults = {key: default for key, (_, default, _) in _table(command).items()}
    path = tmp_path / "manifest.json"
    write_manifest(path, command, defaults)
    replayed, options = _read_manifest(str(path), defaults["out"])
    assert replayed == command
    assert options == defaults
    assert list(map(type, options.values())) == list(map(type, defaults.values()))


@pytest.mark.parametrize("command", ["", *_SUMMARIES])
def test_help_exits_0_for_every_command(capsys, command):
    assert run([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: gapscope")


@pytest.mark.parametrize("args,needle", [
    (["gaps", "--limits", "1e12"],
     "capacity: limit 1000000000000 beyond desk scale 1000000000; pass --allow-large to attempt it"),
    (["gaps", "--limits", "2000", "--ceiling", "1000"], "capacity: limit 2000 exceeds ceiling 1000"),
    (["identity", "--x", "5000", "--k", "5", "--dump-factorizations"],
     "capacity: enumeration refused at x=5000, k=5: more than 100000 block tuples"),
    (["identity", "--x", "50", "--k", "2000"],
     "capacity: identity check at x = 50, k = 2000 over the caps k <= 56 and k^2 * 3x <= 27000000"),
    (["identity", "--x", "1e6", "--k", "4"],
     "capacity: identity check at x = 1000000, k = 4 over the caps k <= 56 and k^2 * 3x <= 27000000"),
    (["largevalues", "--experiments", "1e12"],
     "capacity: 1000000000000 experiments over the cap 10000"),
], ids=["gaps-desk-scale", "gaps-ceiling", "identity-dump", "identity-k=2000", "identity-work",
        "largevalues-experiments"])
def test_refusals_exit_2_at_once_and_write_nothing(tmp_path, capsys, args, needle):
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert run(args + ["--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.strip() == needle
    assert not out.exists()


# ---------------------------------------------------------------------------
# rational literals, factor lengths and manifests: refused at once, exit 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("res,needle", [
    ("1e-9999999", "decimal exponent over 4 digits in '1e-9999999'"),
    ("1e-999999999", "decimal exponent over 4 digits in '1e-999999999'"),
    ("1e-99999", "decimal exponent over 4 digits in '1e-99999'"),
    ("1e-9999", "numerator or denominator over 4300 digits in '1e-9999'"),
    ("1/" + "9" * 4301, "numerator or denominator over 4300 digits in '1/" + "9" * 4301 + "'"),
], ids=["7-digit-exponent", "9-digit-exponent", "5-digit-exponent", "10000-digit-denominator",
        "4301-digit-denominator"])
def test_res_literals_over_the_caps_exit_1_at_once(tmp_path, capsys, res, needle):
    out = tmp_path / "o"
    cfg = tmp_path / "res.cfg"
    cfg.write_text(f"res = {res}\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "optimize-nu", "options": {"res": res}}),
                        encoding="utf-8")
    for argv, prefix in ((["optimize-nu", "--res", res], "error: argument --res: "),
                         (["optimize-nu", "--config", str(cfg)], "error: "),
                         (["report", "--manifest", str(manifest)],
                          f"error: manifest option res={res!r}: ")):
        t0 = time.perf_counter()
        assert run(argv + ["--out", str(out)]) == 1, argv
        assert time.perf_counter() - t0 < 1.0, argv
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == prefix + needle, argv
        assert "Traceback" not in err and not out.exists()


def test_res_literals_in_range_are_read_exactly(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["optimize-nu", "--res", "1/64", "--out", str(a)]) == 0
    assert run(["optimize-nu", "--res", "1.5625e-2", "--out", str(b)]) == 0
    assert read(a / "nu_profile.json") == read(b / "nu_profile.json")
    assert json.loads(read(b / "manifest.json"))["options"]["res"] == "1/64"


def test_ledger_bound_over_the_digit_cap_exits_2(tmp_path, capsys):
    ledger = tmp_path / "l.txt"
    ledger.write_text("a | s | 1 | 0, 1e-9999 | all\n", encoding="utf-8")
    t0 = time.perf_counter()
    assert run(["verify", "--ledger", str(ledger), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.strip() == (
        "capacity: numerator or denominator over 4300 digits in '1e-9999'")


def test_perron_factor_lengths_take_integer_literals(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["perron", "--factors", "unit:128", "--out", str(a)]) == 0
    assert run(["perron", "--factors", "unit:1.28e2", "--out", str(b)]) == 0
    assert read(a / "perron_report.json") == read(b / "perron_report.json")
    capsys.readouterr()
    for spec, needle in (("unit:1e3", "error: factor length N = 1000 is not a power of two"),
                         ("log:1.5", "error: '1.5' is not an integer"),
                         ("mobius:" + "9" * 5000,
                          f"error: numerator or denominator over 4300 digits in '{'9' * 5000}'")):
        out = tmp_path / "c"
        assert run(["perron", "--factors", spec, "--out", str(out)]) == 1, spec
        err = capsys.readouterr().err
        assert err.strip() == needle and "Traceback" not in err
        assert not out.exists()


def test_deeply_nested_manifest_exits_1(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    for depth in (100_000, 900):
        path.write_text('{"command": "gaps", "options": ' + "[" * depth + "]" * depth + "}",
                        encoding="utf-8")
        out = tmp_path / "o"
        assert run(["report", "--manifest", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest") and "Traceback" not in err
        assert not out.exists()
    nested = "[" * 900 + "]" * 900
    path.write_text('{"command": "gaps", "options": {"limits": ' + nested + ', "allow_large": '
                    'false, "ceiling": 1e10, "stream_csv": false, "stream_limit": 10}}',
                    encoding="utf-8")
    assert run(["report", "--manifest", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: manifest option limits is not a value or a flat list of values")


#: --res text: resolutions that run (1/64 to 1/128, at most 0.1 s each), values
#: optimize_nu refuses, exponents of up to seven digits, and any text.
RES_TEXT = st.one_of(
    st.integers(64, 128).map("1/{}".format),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 70)),
    st.builds("{}e{}".format, st.sampled_from(["1", "2.5", "0", "-1", ".5", "1."]),
              st.integers(-10**7 + 1, 10**7 - 1)),
    st.text(alphabet="0123456789./eE_-+ ", max_size=12),
    st.text(max_size=6),
)


@settings(max_examples=120, deadline=None)
@given(RES_TEXT)
@example("1e-9999999")
def test_generated_res_text_keeps_the_exit_code_contract(res):
    t0 = time.perf_counter()
    code, text = run_quietly(["optimize-nu", "--res", res])
    assert code in (0, 1, 2, 3) and "Traceback" not in text
    if code:  # a refusal comes before any work
        assert time.perf_counter() - t0 < 1.0


#: Option values of the cheap commands (each run well under 0.1 s) ...
_CHEAP_OPTIONS = {
    "gaps": {"limits": st.lists(st.integers(2, 1000), min_size=1, max_size=3),
             "allow_large": st.booleans(), "ceiling": st.integers(10, 10**10),
             "stream_csv": st.booleans(), "stream_limit": st.integers(0, 100)},
    "identity": {"x": st.integers(1, 60), "k": st.integers(1, 3),
                 "dump_factorizations": st.booleans()},
    "largevalues": {"experiments": st.integers(0, 2), "seed": st.integers(0, 10**6),
                    "slack": st.floats(1, 1000)},
    "perron": {"y": st.floats(2, 300), "tau": st.floats(1, 20), "T0": st.none(),
               "factors": st.sampled_from(["unit:8", "singleton", "log:4,mobius:4"])},
    "verify": {"ledger": st.none()},
    "optimize-nu": {"res": st.sampled_from(["1/64", "1/80", "0.0125"])},
}
#: ... and values of the wrong type or out of range, none of which names a costly
#: run: no digits in text, numbers within 3 of zero.
_WRONG_VALUE = st.one_of(
    st.none(), st.booleans(), st.floats(-3, 3), st.sampled_from([math.nan, math.inf]),
    st.text(alphabet=st.characters(blacklist_categories=("Nd",)), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), max_size=2),
)


@st.composite
def _manifest_text(draw) -> str:
    kind = draw(st.sampled_from(["manifest", "manifest", "deep", "json"]))
    if kind == "deep":
        depth = draw(st.integers(0, 200_000))
        inner = "[" * depth + "]" * depth
        return draw(st.sampled_from([inner, '{"command": "gaps", "options": ' + inner + "}",
                                     '{"command": ' + inner + ', "options": {}}']))
    if kind == "json":
        leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3))
        return json.dumps(draw(st.recursive(leaf, lambda c: st.one_of(
            st.lists(c, max_size=3), st.dictionaries(st.text(max_size=3), c, max_size=3)),
            max_leaves=10)))
    command = draw(st.sampled_from(sorted(_CHEAP_OPTIONS)))
    options = {}
    for key, good in _CHEAP_OPTIONS[command].items():
        pick = draw(st.sampled_from(["good", "good", "good", "wrong", "missing"]))
        if pick != "missing":
            options[key] = draw(good if pick == "good" else _WRONG_VALUE)
    options.update(draw(st.dictionaries(st.sampled_from(["threads", "gauss_order", "out", "x"]),
                                        _WRONG_VALUE, max_size=2)))
    return json.dumps({"command": command, "options": options})


@settings(max_examples=150, deadline=None)
@given(_manifest_text())
@example('{"command": "gaps", "options": ' + "[" * 100_000 + "]" * 100_000 + "}")
def test_generated_manifests_keep_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "manifest.json"
        path.write_text(text, encoding="utf-8")
        code, printed = run_quietly(["report", "--manifest", str(path)])
    assert code in (0, 1, 2, 3) and "Traceback" not in printed

"""Tests for the command-line front end.

Command behavior is exercised through ``main(argv)`` with captured
stdout/stderr.  Numeric spot values repeat the hand- and brute-force
derived constants frozen in the engine test suites; everything else here
is plumbing: exit codes, formats, seeds, resume, and parallel output
determinism.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from permorder import cli, exactdist, numtheory, sampler
from permorder.asymptotics import (
    prediction_residual,
    verify_gap_inequality,
    verify_mode_location,
    verify_near_max_form,
)
from permorder.cli import main, parse_range
from permorder.store import Ratio, ResultStore, to_json

# sha256 of the log `scan-counterexamples --n 2..30` writes into an empty
# store: it holds multi-witness rows and counts past 2**53.
SCAN_2_30_LOG_SHA256 = "754ab9be7be4512179d578848f5529c50c0e13d31ef49b37017241c431055ab2"

# sha256 of the stdout of documents larger than the golden cases, frozen
# from the encoder that converted a copy of the rows and ran json.dumps.
# In the landau one, 35 of the 51 values of g(n) pass 2**53 and are
# written as decimal strings.
LARGE_OUTPUT_SHA256 = {
    "pmf --n 40 --format json":
        "96508ca197de19bc070d5ef2a5d13b7eb430e7a54cb6f0a69bf62991172c8a94",
    "pmf --n 40 --format csv":
        "0abb922631239ddc93ad2ae69a4532e4f22033231ab22c858bc739420aa15dd4",
    "landau --n 250..300 --format json":
        "48a4b42df8b4d444fbf52fde28b440232180c95c463dee7c1f865d4c5b32a13b",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def digit_limit():
    """Python's default int <-> str digit limit, set for the test.

    None on a Python without the limit.  Setting it keeps the test from
    reading a limit that an earlier test left lifted.
    """
    with helpers.int_str_digits() as limit:
        yield limit


def json_rows(out):
    doc = json.loads(out)
    return doc["rows"]


def csv_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


class TestParseRange:
    def test_forms(self):
        assert parse_range("2..20") == (2, 20)
        assert parse_range("7") == (7, 7)
        assert parse_range("5..5") == (5, 5)

    def test_rejects(self):
        for bad in ("", "a", "5..", "..7", "9..3", "1..2..3", "-1..4", "0x5"):
            with pytest.raises(ValueError):
                parse_range(bad)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "mode")
        assert code == 2

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "mode", "--n", "9..3")
        assert code == 2
        assert "9..3" in err or "range" in err.lower()

    def test_bad_format(self, capsys):
        code, _, _ = run_cli(capsys, "mode", "--n", "5", "--format", "yaml")
        assert code == 2

    def test_sample_p_requires_m(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "p", "--n", "3", "--trials", "10")
        assert code == 2

    def test_sample_collision_rejects_m(self, capsys):
        code, out, err = run_cli(capsys, "sample", "collision", "--n", "3", "--m", "2",
                                 "--trials", "10")
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")
        assert "--m" in err

    def test_n_past_the_int_digit_limit(self, capsys, digit_limit):
        # --n is parsed under the digit limit, which main lifts only for
        # the output.
        if digit_limit is None:
            pytest.skip("this Python has no int <-> str digit limit")
        code, out, err = run_cli(capsys, "pmf", "--n", "9" * (digit_limit + 1))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: invalid range")

    def test_range_where_single_n_required(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--n", "3..5")
        assert code == 2

    @pytest.mark.parametrize("eps", ["1/0", "abc"])
    def test_eps_that_is_not_a_fraction(self, capsys, eps):
        code, out, err = run_cli(capsys, "tail-max", "--n", "10", "--eps", eps)
        assert (code, out) == (2, "")
        assert err == f"usage error: argument --eps: invalid Fraction value: '{eps}'\n"


def run_python(*args) -> subprocess.CompletedProcess:
    """``python args...`` in a new interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                           timeout=120)


def run_fresh_process(*argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in a new interpreter."""
    proc = run_python(
        "-c", "import sys; from permorder.cli import main; sys.exit(main(sys.argv[1:]))",
        *argv,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


class TestRepeatedMain:
    """`main` reuses one parser per process, and no value leaks between calls."""

    @pytest.mark.parametrize("calls, codes", [
        ([("sample", "p", "--n", "12", "--m", "6", "--trials", "2000",
           "--seed", "7", "--format", "json"),
          ("sample", "collision", "--n", "12", "--trials", "2000",
           "--seed", "7", "--format", "json")], [0, 0]),
        ([("sample", "p", "--n", "12", "--m", "6", "--trials", "200", "--seed", "7"),
          ("sample", "p", "--n", "12", "--trials", "200", "--seed", "7")], [0, 2]),
        ([("eta-check", "--n", "30", "--k", "2", "--format", "json"),
          ("eta-check", "--n", "30", "--format", "json")], [0, 0]),
        ([("sample", "p", "--n", "10", "--m", "4", "--seed", "3", "--trials", "nope"),
          ("sample", "collision", "--n", "10", "--trials", "500", "--seed", "3",
           "--format", "csv")], [2, 0]),
    ], ids=["p-then-collision", "p-then-p-without-m", "eta-k2-then-k0",
            "usage-error-then-valid"])
    def test_each_call_matches_a_fresh_process(self, capsys, calls, codes):
        in_process = [run_cli(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in in_process] == codes
        assert [run_fresh_process(*argv) for argv in calls] == in_process

    def test_parser_built_on_first_call_then_reused(self, capsys):
        at_import = run_python(
            "-c", "import permorder.cli as c; print(c._build_parser.cache_info().currsize)"
        )
        assert at_import.stdout == b"0\n"
        run_cli(capsys, "kn", "--n", "10")
        built = cli._build_parser.cache_info().misses
        run_cli(capsys, "kn", "--n", "12")
        run_cli(capsys, "kn", "--n", "0")
        assert cli._build_parser.cache_info().misses == built


class TestKn:
    def test_members_for_ten(self, capsys):
        code, out, _ = run_cli(capsys, "kn", "--n", "10", "--format", "json")
        assert code == 0
        (row,) = json_rows(out)
        assert row == {"n": 10, "members": [0, 1, 2], "max_k": 2}

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "kn", "--n", "10")
        assert code == 0
        assert "0 1 2" in out

    def test_range(self, capsys):
        code, out, _ = run_cli(capsys, "kn", "--n", "2..5", "--format", "json")
        assert code == 0
        assert [r["n"] for r in json_rows(out)] == [2, 3, 4, 5]


class TestLandau:
    def test_small_values(self, capsys):
        code, out, _ = run_cli(capsys, "landau", "--n", "1..8", "--format", "json")
        assert code == 0
        assert [r["g"] for r in json_rows(out)] == [1, 2, 3, 4, 6, 6, 12, 15]

    def test_range_runs_one_knapsack(self, capsys, monkeypatch):
        tops = []
        real = cli.landau_table
        monkeypatch.setattr(cli, "landau_table", lambda n: tops.append(n) or real(n))
        code, out, _ = run_cli(capsys, "landau", "--n", "1..300", "--format", "json")
        assert code == 0
        assert tops == [300]
        rows = json_rows(out)
        assert [r["n"] for r in rows] == list(range(1, 301))
        # g(n) past 2**53 is written as a decimal string
        assert [int(r["g"]) for r in rows] == [numtheory.landau_g(n) for n in range(1, 301)]

    def test_past_budget_exits_1_before_the_knapsack(self, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(numtheory, "primes_up_to", lambda n: started.append(n) or [])
        code, out, err = run_cli(capsys, "landau", "--n", "1000000")
        assert code == 1
        assert err.startswith("resource limit exceeded:")
        assert out == ""
        assert started == []


@pytest.mark.parametrize("argv", sorted(LARGE_OUTPUT_SHA256))
def test_large_output_bytes_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LARGE_OUTPUT_SHA256[argv]


class TestPmf:
    def test_n4(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "4", "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert [(r["m"], r["count"], r["prob"]) for r in rows] == [
            (1, "1", "1/24"),
            (2, "9", "3/8"),
            (3, "8", "1/3"),
            (4, "6", "1/4"),
        ]

    def test_counts_are_exact_strings(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "20", "--format", "json")
        assert code == 0
        rows = json_rows(out)
        assert sum(int(r["count"]) for r in rows) == math.factorial(20)

    def test_budget_exceeded_is_resource_error(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--n", "101", "--format", "json")
        assert code == 1
        assert "exceed" in err.lower()

    def test_rows_build_no_fraction(self, capsys, monkeypatch):
        # Each prob is count/n! reduced by one gcd into a Ratio.
        made = []
        new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        code, out, _ = run_cli(capsys, "pmf", "--n", "60", "--format", "json")
        monkeypatch.undo()
        assert (code, len(json_rows(out)), made) == (0, 2083, [])

    @pytest.mark.parametrize("fmt", cli._FORMATS)
    def test_ratio_rows_write_as_fraction_rows(self, capsys, fmt):
        args = argparse.Namespace(subcommand="pmf", fmt=fmt)
        for n in range(1, 61):
            args.n = range(n, n + 1)
            rows, _ = cli._cmd_pmf(args)
            assert {type(row["prob"]) for row in rows} == {Ratio}
            fact = math.factorial(n)
            cli._emit(args, rows)
            as_ratios = capsys.readouterr().out
            cli._emit(args, [
                {**row, "prob": Fraction(int(row["count"]), fact)} for row in rows
            ])
            assert capsys.readouterr().out == as_ratios, n


class TestMode:
    def test_spec_example_n5_json(self, capsys):
        code, out, _ = run_cli(capsys, "mode", "--n", "5", "--format", "json")
        assert code == 0
        (row,) = json_rows(out)
        assert row["argmax"] == [4]
        assert row["max_prob"] == "1/4"

    def test_raised_budget_is_served(self, capsys, monkeypatch):
        monkeypatch.setattr(exactdist, "DEFAULT_MAX_N", 101)
        code, out, _ = run_cli(capsys, "mode", "--n", "101", "--format", "json")
        assert code == 0
        (row,) = json_rows(out)
        assert row["n"] == 101

    def test_range_csv(self, capsys):
        code, out, _ = run_cli(capsys, "mode", "--n", "3..6", "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert [r["max_prob"] for r in rows] == ["1/2", "3/8", "1/4", "1/3"]
        assert [r["argmax"] for r in rows] == ["2", "2", "4", "6"]

    def test_table_adds_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "mode", "--n", "5")
        assert code == 0
        assert "1/4" in out
        assert "0.25" in out

    def test_json_csv_numeric_identity(self, capsys):
        _, out_json, _ = run_cli(capsys, "mode", "--n", "3..6", "--format", "json")
        _, out_csv, _ = run_cli(capsys, "mode", "--n", "3..6", "--format", "csv")
        jrows = json_rows(out_json)
        crows = csv_rows(out_csv)
        for jr, cr in zip(jrows, crows, strict=True):
            assert str(jr["n"]) == cr["n"]
            assert ";".join(str(m) for m in jr["argmax"]) == cr["argmax"]
            assert jr["max_count"] == cr["max_count"]
            assert jr["max_prob"] == cr["max_prob"]

    def test_threads_do_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, "mode", "--n", "3..8", "--format", "json")
        _, out2, _ = run_cli(
            capsys, "mode", "--n", "3..8", "--format", "json", "--threads", "3"
        )
        assert out1 == out2


class TestCollision:
    def test_n3(self, capsys):
        code, out, _ = run_cli(capsys, "collision", "--n", "3", "--format", "json")
        assert code == 0
        (row,) = json_rows(out)
        assert row["norm"] == "7/18"
        assert row["scaled"] == "7/2"


class TestEtaCheck:
    def test_skips_n_where_k_not_forcing(self, capsys):
        code, out, err = run_cli(
            capsys, "eta-check", "--n", "10..14", "--k", "2", "--format", "json"
        )
        assert code == 0
        rows = json_rows(out)
        assert [r["n"] for r in rows] == [10, 12, 14]
        for r in rows:
            assert r["residual"] == _frac(prediction_residual(r["n"], 2))
        assert "skip" in err.lower()

    def test_k_zero_everywhere(self, capsys):
        code, out, _ = run_cli(
            capsys, "eta-check", "--n", "3..5", "--format", "json"
        )
        assert code == 0
        rows = json_rows(out)
        assert [r["n"] for r in rows] == [3, 4, 5]
        assert rows[0]["predicted"] == "1/3"

    def test_negative_k_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eta-check", "--n", "3..5", "--k", "-1")
        assert (code, out) == (2, "")
        assert err == "usage error: need k >= 0, got -1\n"

    def test_values_past_the_int_digit_limit(self, capsys, digit_limit):
        # The exact value's denominator has 4 882 digits, past the 4 300 to
        # which Python limits int <-> str conversion by default; main lifts
        # the limit for the output only and puts it back.
        for fmt in cli._FORMATS:
            code, out, err = run_cli(
                capsys, "eta-check", "--n", "1800", "--k", "2", "--format", fmt
            )
            assert (code, err) == (0, ""), fmt
            if digit_limit is not None:
                assert sys.get_int_max_str_digits() == digit_limit
        (row,) = json_rows(out)
        with helpers.int_str_digits(0):
            assert Fraction(row["exact"]) == exactdist.p_exact(1800, 1798)

    def test_past_point_budget_exits_1(self, capsys):
        # One scaled column at n = 100 000 would hold about 19 GB.
        code, out, err = run_cli(capsys, "eta-check", "--n", "100000")
        assert code == 1
        assert err.startswith("resource limit exceeded:")
        assert out == ""


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


class TestRatioCells:
    @pytest.mark.parametrize("p, q", [
        (1, 1),
        (2**53 - 1, 2**53 + 1),
        (3**9300, 2**14700),  # 4 438 and 4 426 digits
    ], ids=["one", "q past 2**53", "p and q past 4300 digits"])
    def test_written_as_the_equal_fraction(self, p, q):
        ratio, frac = Ratio((p, q)), Fraction(p, q)
        with helpers.int_str_digits(0):
            for write in (to_json, cli._csv_cell, cli._table_cell):
                assert write(ratio) == write(frac), write
                assert write([ratio]) == write([frac]), write


class TestVerify:
    def test_thm12_failure_exits_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm12", "--n", "5..6", "--format", "json"
        )
        assert code == 3
        rows = json_rows(out)
        by_n = {r["n"]: r for r in rows}
        assert by_n[5]["holds"] is True
        assert by_n[6]["holds"] is False
        assert by_n[6]["witnesses"] == [6]

    def test_thm12_all_hold(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "thm12", "--n", "3..5")
        assert code == 0

    def test_thm11_failure_at_5(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm11", "--n", "5", "--format", "json"
        )
        assert code == 3
        (row,) = json_rows(out)
        assert row["witnesses"] == [2]

    def test_ineq_holds(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "ineq", "--n", "2..12")
        assert code == 0

    def test_unknown_claim(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "thm99", "--n", "3")
        assert code == 2


class TestTailMax:
    def test_hit(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail-max", "--n", "5", "--eps", "1/10", "--format", "json"
        )
        assert code == 0
        (row,) = json_rows(out)
        assert row["m"] == 6
        assert row["prob"] == "1/6"

    def test_none(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail-max", "--n", "6", "--eps", "3/10", "--format", "json"
        )
        assert code == 0
        (row,) = json_rows(out)
        assert row["m"] is None

    def test_bad_eps(self, capsys):
        code, _, _ = run_cli(capsys, "tail-max", "--n", "5", "--eps", "0/1")
        assert code == 2

    def test_huge_denominator_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "tail-max", "--n", "40", "--eps", "1/10000000")
        assert code == 1
        assert err.startswith("resource limit exceeded:")
        assert out == ""


class TestSample:
    def test_estimate_p_reproducible(self, capsys):
        args = (
            "sample", "p", "--n", "3", "--m", "2",
            "--trials", "2000", "--seed", "99", "--format", "json",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        (row,) = json_rows(out1)
        assert row["seed"] == "99"
        assert row["trials"] == 2000
        se = math.sqrt(0.5 * 0.5 / 2000)
        assert abs(row["estimate"] - 0.5) <= 4 * se

    def test_estimate_collision(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "collision", "--n", "3",
            "--trials", "2000", "--seed", "7", "--format", "json",
        )
        assert code == 0
        (row,) = json_rows(out)
        p = 7 / 18
        se = math.sqrt(p * (1 - p) / 2000)
        assert abs(row["estimate"] - p) <= 4 * se

    def test_seed_generated_and_echoed(self, capsys):
        args = ("sample", "p", "--n", "3", "--m", "2", "--trials", "500",
                "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        (row1,) = json_rows(out1)
        seed = row1["seed"]
        assert seed.isdigit()
        _, out2, _ = run_cli(capsys, *args, "--seed", seed)
        assert out2 == out1

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, seed):
        # Chunk seeds are taken mod 2**64, so these would alias 2**64 - 3 and 0.
        code, out, err = run_cli(capsys, "sample", "p", "--n", "200", "--m", "200",
                                 "--trials", "1000", "--seed", seed)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and "seed" in err

    def test_threads_do_not_change_output(self, capsys):
        base = ("sample", "p", "--n", "4", "--m", "4", "--trials", "30000",
                "--seed", "5", "--format", "json")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out2, _ = run_cli(capsys, *base, "--threads", "3")
        assert out1 == out2


class TestBoundsCheck:
    def test_small_range_holds(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds-check", "--n", "2..5", "--format", "json"
        )
        assert code == 0
        rows = json_rows(out)
        assert [r["n"] for r in rows] == [2, 3, 4, 5]
        assert all(r["violations"] == 0 for r in rows)
        assert all(r["checks"] > 0 for r in rows)

    def test_rejects_large_n(self, capsys):
        code, _, _ = run_cli(capsys, "bounds-check", "--n", "2..12")
        assert code == 2


class TestScanCounterexamples:
    def test_finds_n6_and_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "scan-counterexamples", "--n", "2..8",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 3
        rows = json_rows(out)
        by_n = {r["n"]: r for r in rows}
        assert set(by_n) == set(range(2, 9))
        assert by_n[6]["holds"] is False
        assert by_n[6]["witnesses"] == [6]
        assert by_n[2]["holds"] is False  # tie at n=2
        assert by_n[5]["holds"] is True
        assert by_n[5]["expected"] == 4
        # records persisted; the verdict log is the only resume state
        store = ResultStore(tmp_path)
        assert len(store.load()) == 7
        assert not (tmp_path / "checkpoint.json").exists()

    def test_resume_skips_cached(self, capsys, tmp_path):
        run_cli(capsys, "scan-counterexamples", "--n", "2..5",
                "--cache-dir", str(tmp_path))
        code, out, err = run_cli(
            capsys, "scan-counterexamples", "--n", "2..8",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 3
        assert "4 cached" in err
        assert "3 to compute" in err
        rows = json_rows(out)
        assert [r["n"] for r in rows] == list(range(2, 9))
        # no duplicate records were appended for the cached n
        store = ResultStore(tmp_path)
        assert len(store.load(2, 5)) == 4

    def test_rerun_fully_cached(self, capsys, tmp_path):
        run_cli(capsys, "scan-counterexamples", "--n", "2..6",
                "--cache-dir", str(tmp_path))
        code, out, err = run_cli(
            capsys, "scan-counterexamples", "--n", "2..6",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 3
        assert "5 cached" in err
        assert "0 to compute" in err

    def test_clean_window_exits_0(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "scan-counterexamples", "--n", "7..9",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        assert all(r["holds"] for r in json_rows(out))

    def test_env_var_sets_cache_dir(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("PERMORDER_CACHE_DIR", str(env_dir))
        run_cli(capsys, "scan-counterexamples", "--n", "3..4")
        assert ResultStore(env_dir).load() != []

    def test_flag_overrides_env_var(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("PERMORDER_CACHE_DIR", str(env_dir))
        run_cli(capsys, "scan-counterexamples", "--n", "3..4",
                "--cache-dir", str(flag_dir))
        assert not env_dir.exists() or ResultStore(env_dir).load() == []
        assert ResultStore(flag_dir).load() != []

    @pytest.mark.parametrize("bad_line", ["{broken", "{}"])
    def test_mid_log_corruption_is_store_error(self, capsys, tmp_path, bad_line):
        run_cli(capsys, "scan-counterexamples", "--n", "2..4",
                "--cache-dir", str(tmp_path))
        log = tmp_path / "verification.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text(bad_line + "\n" + "".join(lines[1:]))
        code, out, err = run_cli(capsys, "scan-counterexamples", "--n", "2..5",
                                 "--cache-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("store error:")
        assert out == ""

    @pytest.mark.parametrize("where", ["last", "earlier"])
    def test_non_utf8_byte_is_store_error(self, capsys, tmp_path, where):
        run_cli(capsys, "scan-counterexamples", "--n", "2..4",
                "--cache-dir", str(tmp_path))
        log = tmp_path / "verification.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        if where == "last":
            lines.append(b"\xff\n")
        else:
            lines[0] = lines[0][:20] + b"\xff" + lines[0][20:]
        log.write_bytes(b"".join(lines))
        code, out, err = run_cli(capsys, "scan-counterexamples", "--n", "2..5",
                                 "--cache-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("store error:")
        assert "UTF-8" in err
        assert out == ""

    def test_stored_lines_count_as_cached(self, capsys, tmp_path):
        lines = "\n".join(helpers.STORED_VERDICT_LINES) + "\n"
        (tmp_path / "verification.jsonl").write_text(lines)
        code, out, err = run_cli(capsys, "scan-counterexamples", "--n", "5..6",
                                 "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 3
        assert "2 cached, 0 to compute" in err
        assert json_rows(out) == [
            {"n": 5, "holds": True, "expected": 4, "witnesses": []},
            {"n": 6, "holds": False, "expected": 4, "witnesses": [6]},
        ]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_warm_output_matches_cold(self, capsys, tmp_path, fmt):
        argv = ("scan-counterexamples", "--n", "2..12", "--cache-dir", str(tmp_path),
                "--format", fmt)
        cold_code, cold_out, _ = run_cli(capsys, *argv)
        warm_code, warm_out, warm_err = run_cli(capsys, *argv)
        assert warm_err == "scan 2..12: 11 cached, 0 to compute\n"
        assert cold_code == warm_code == 3
        assert warm_out == cold_out

    def test_scanned_lines_reencode_byte_for_byte(self, capsys, tmp_path):
        run_cli(capsys, "scan-counterexamples", "--n", "2..12", "--cache-dir", str(tmp_path))
        text = (tmp_path / "verification.jsonl").read_text()
        reports = ResultStore(tmp_path).load()
        assert len(reports) == len(text.splitlines()) == 11
        again = ResultStore(tmp_path / "again")
        for report in reports:
            again.append(report)
        assert (tmp_path / "again" / "verification.jsonl").read_text() == text

    def test_scan_log_bytes_are_pinned(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "scan-counterexamples", "--n", "2..30",
                             "--cache-dir", str(tmp_path))
        assert code == 3
        data = (tmp_path / "verification.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == SCAN_2_30_LOG_SHA256

    def test_records_of_other_claims_are_skipped(self, capsys, tmp_path):
        store = ResultStore(tmp_path)
        for report in (verify_near_max_form(5), verify_gap_inequality(6),
                       verify_mode_location(6)):
            store.append(report)
        code, out, err = run_cli(capsys, "scan-counterexamples", "--n", "5..6",
                                 "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 3
        assert "1 cached, 1 to compute" in err
        assert json_rows(out) == [
            {"n": 5, "holds": True, "expected": 4, "witnesses": []},
            {"n": 6, "holds": False, "expected": 4, "witnesses": [6]},
        ]

    @pytest.mark.parametrize(
        "n, payload",
        [
            ("5", "{}"),
            ("5", '{"claim":"thm_1_2_mode","details":null,"holds":true,"witnesses":[]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":"yes","witnesses":[]}'),
            ("5.0", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":true,"witnesses":[]}'),
            ("true", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":true,"witnesses":[]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":true,"witnesses":["5"]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":false,"witnesses":[]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":false,"witnesses":[7.0]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":false,"witnesses":[true]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":false,"witnesses":["07"]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":false,"witnesses":[6]}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":false,"witnesses":"6"}'),
            ("5", '{"claim":"thm_1_2_mode","details":{"expected":"four"},"holds":true,"witnesses":[]}'),
        ],
        ids=["empty", "null-details", "string-holds", "float-n", "bool-n",
             "holds-with-witnesses", "fails-without-witnesses", "float-witness",
             "bool-witness", "padded-witness", "int-witness", "string-witnesses",
             "string-expected"],
    )
    def test_malformed_cached_verdict_is_store_error(self, capsys, tmp_path, n, payload):
        line = f'{{"kind":"verification","n":{n},"payload":{payload},"schema_version":1}}'
        (tmp_path / "verification.jsonl").write_text(line + "\n")
        code, out, err = run_cli(capsys, "scan-counterexamples", "--n", "5",
                                 "--cache-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("store error:")
        assert "Traceback" not in err
        assert out == ""

    def test_foreign_schema_is_store_error(self, capsys, tmp_path):
        run_cli(capsys, "scan-counterexamples", "--n", "2..4",
                "--cache-dir", str(tmp_path))
        log = tmp_path / "verification.jsonl"
        log.write_text(log.read_text().replace('"schema_version":1', '"schema_version":7'))
        code, out, err = run_cli(capsys, "scan-counterexamples", "--n", "2..5",
                                 "--cache-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("store error:")
        assert "schema_version 7" in err

    def test_unusable_cache_dir_is_store_error(self, capsys, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code, _, err = run_cli(capsys, "scan-counterexamples", "--n", "2..3",
                               "--cache-dir", str(not_a_dir))
        assert code == 1
        assert err.startswith("store error:")

    def test_threads_do_not_change_output(self, capsys, tmp_path):
        _, out1, _ = run_cli(
            capsys, "scan-counterexamples", "--n", "2..7",
            "--cache-dir", str(tmp_path / "a"), "--format", "json",
        )
        _, out2, _ = run_cli(
            capsys, "scan-counterexamples", "--n", "2..7",
            "--cache-dir", str(tmp_path / "b"), "--format", "json",
            "--threads", "3",
        )
        assert out1 == out2

    def test_each_verdict_is_stored_before_the_next_is_computed(
        self, capsys, tmp_path, monkeypatch
    ):
        log = tmp_path / "verification.jsonl"
        stored_before = []
        real = cli.verify_mode_location

        def checked(n):
            stored_before.append(len(log.read_bytes().splitlines()) if log.exists() else 0)
            return real(n)

        monkeypatch.setattr(cli, "verify_mode_location", checked)
        code, _, _ = run_cli(capsys, "scan-counterexamples", "--n", "2..6",
                             "--cache-dir", str(tmp_path))
        assert code == 3
        assert stored_before == [0, 1, 2, 3, 4]


class TestWorkerCap:
    """--threads opens a pool no larger than the work items or the CPUs."""

    def test_sample(self, capsys, pool_sizes):
        argv = ["sample", "p", "--n", "10", "--m", "10", "--trials", "20000",
                "--seed", "1", "--format", "json"]
        _, solo, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--threads", "5000")
        assert (code, out) == (0, solo)
        assert pool_sizes == [2]

    def test_sample_is_capped_at_the_cpu_count(self, capsys, pool_sizes, monkeypatch):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        argv = ["sample", "p", "--n", "10", "--m", "10", "--trials", "100000",
                "--seed", "1", "--format", "json"]
        _, solo, _ = run_cli(capsys, *argv)
        for threads in ("2", "3", "5000"):
            code, out, _ = run_cli(capsys, *argv, "--threads", threads)
            assert (code, out) == (0, solo)
        assert pool_sizes == [2, 2, 2]

    def test_mode_and_verify(self, capsys, pool_sizes):
        assert run_cli(capsys, "mode", "--n", "3..5", "--threads", "5000")[0] == 0
        assert run_cli(capsys, "verify", "thm12", "--n", "3..4", "--threads", "5000")[0] == 0
        assert pool_sizes == [3, 2]

    def test_scan(self, capsys, tmp_path, pool_sizes):
        code, _, _ = run_cli(capsys, "scan-counterexamples", "--n", "2..4",
                             "--cache-dir", str(tmp_path), "--threads", "5000")
        assert code == 3
        assert pool_sizes == [3]

    def test_import_loads_no_process_pool(self):
        # the pool machinery is imported only when a pool starts
        proc = run_python(
            "-c", "import sys, permorder.cli; print(sorted(m for m in sys.modules"
            " if m in ('concurrent.futures.process', 'multiprocessing')))"
        )
        assert proc.stdout == b"[]\n"

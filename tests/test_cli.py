import dataclasses
import json
import multiprocessing
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corewalk import cli, oracle
from corewalk.cli import _decimal_ratio, main
from corewalk.errors import VerificationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decimal_ratio():
    assert _decimal_ratio(24 * 198, 5**6) == "0.304128000000"
    assert _decimal_ratio(1, 3, digits=5) == "0.33333"
    assert _decimal_ratio(7, 7) == "1.000000000000"
    assert _decimal_ratio(-1, 4, digits=3) == "-0.250"
    with pytest.raises(ValueError):
        _decimal_ratio(1, 0)


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40), st.sampled_from([1, 9, 12]))
def test_decimal_ratio_truncates_toward_zero(num, den, digits):
    text = _decimal_ratio(num, den, digits)
    whole, frac = text.lstrip("-").split(".")
    assert text.startswith("-") == (num < 0) and len(frac) == digits
    shown = Fraction(int(whole + frac), 10**digits)
    assert 0 <= Fraction(abs(num), den) - shown < Fraction(1, 10**digits)


def test_lambda_text(capsys):
    code, out, _ = run(capsys, "lambda", "-p", "3", "--emit", "parts", "--emit", "m")
    assert code == 0
    assert "size: 10" in out
    assert "parts: 4,2,2,1,1" in out
    assert "m: 2,1" in out


def test_lambda_ratio_frozen(capsys):
    code, out, _ = run(capsys, "lambda", "-p", "5")
    assert code == 0
    assert "ratio_24size_p6: 0.304128000000" in out
    assert "c: 8" in out


def test_lambda_json(capsys):
    code, out, _ = run(capsys, "lambda", "-p", "11", "--format", "json", "--emit", "m")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 11
    assert doc["size"] == "29773"
    assert doc["m"] == [10, 5, 7, 6, 8, 8, 6, 7, 5, 9]


def test_lambda_rejects_composite(capsys):
    code, _, err = run(capsys, "lambda", "-p", "4")
    assert code == 2
    assert "odd prime" in err
    assert run(capsys, "lambda", "-p", "2")[0] == 2


def test_lambda_parts_cap(capsys):
    code, _, err = run(capsys, "lambda", "-p", "307", "--emit", "parts")
    assert code == 2
    assert "limited to p <= 300" in err


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--min", "3", "--max", "60")
    assert code == 0
    assert "checked 16 primes in [3, 60]: no asserted failures" in out
    assert "p=59" in out


def test_verify_check_selection(capsys):
    code, out, _ = run(capsys, "verify", "--min", "17", "--max", "100",
                       "--checks", "c-bounds,symmetry,identity", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "p,c-bounds,symmetry,identity,notes"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_repeated_check_names_run_once(capsys, fmt):
    # the CSV header, meta.checks and the text line name each check once, like the JSON rows
    argv = ["verify", "--min", "3", "--max", "30", "--format", fmt, "--checks"]
    once = run(capsys, *argv, "theorem")
    assert run(capsys, *argv, "theorem,theorem") == once
    assert run(capsys, *argv, "theorem, lemmas,theorem,lemmas") == run(capsys, *argv, "theorem,lemmas")
    assert once[0] == 0


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--min", "10", "--max", "5")
    assert code == 2
    assert "bad range" in err


def test_verify_bad_check_name(capsys):
    code, _, _ = run(capsys, "verify", "--min", "3", "--max", "5", "--checks", "nonsense")
    assert code == 2


def test_verify_json_layout(capsys):
    code, out, _ = run(capsys, "verify", "--min", "3", "--max", "12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["range"] == [3, 12]
    assert doc["meta"]["count"] == 4
    assert doc["failures"] == 0
    row = doc["rows"][0]
    assert row["p"] == 3
    assert isinstance(row["size"], str)
    assert row["checks"]["theorem"]["status"] == "pass*"
    assert row["bounds"]["construction_comparison"]["asserted"] is False


def test_verify_reports_asserted_failures(capsys, monkeypatch):
    # a size of p^6/24 breaks the theorem's upper bound (not asserted at
    # p = 17) and McDowell's and McSpirit-Ono's bounds (always asserted)
    honest = cli.lambda_profile

    def inflated(p, classification=None):
        return dataclasses.replace(honest(p, classification), size=p**6 // 24)

    monkeypatch.setattr(cli, "lambda_profile", inflated)
    code, out, _ = run(capsys, "verify", "--min", "17", "--max", "17", "--checks", "theorem,eq1,c-bounds")
    assert code == 1
    assert out.splitlines() == [
        "p=17 theorem=fail* eq1=fail c-bounds=pass*",
        "  note[theorem]: theorem_upper does not hold (outside its stated range, not asserted)",
        "  note[eq1]: eq1_upper fails, margin -217256",
        "  note[eq1]: mcspirit_ono_upper fails, margin -111396",
        "checked 1 primes in [17, 17]: 1 primes with asserted failures",
    ]


def test_oracle_walks(capsys):
    code, out, _ = run(capsys, "oracle", "-p", "5", "--mode", "walks")
    assert code == 0
    assert "size=198" in out


def test_oracle_partitions(capsys):
    code, out, _ = run(capsys, "oracle", "-p", "3", "--mode", "partitions")
    assert code == 0
    assert "4,2,2,1,1" in out


def test_oracle_longest_dp(capsys):
    code, out, _ = run(capsys, "oracle", "-p", "13", "--mode", "longest-dp")
    assert code == 0
    assert "matches the profile" in out


def test_oracle_longest_dp_builds_the_profile_once(capsys, monkeypatch):
    # cmd_oracle compares the whole m itself, so the dynamic program must not rebuild the profile
    def rebuilt(p):
        raise AssertionError(f"longest_walk_dp rebuilt the profile at p={p}")

    monkeypatch.setattr(oracle, "lambda_profile", rebuilt)
    code, out, _ = run(capsys, "oracle", "-p", "13", "--mode", "longest-dp")
    assert code == 0
    assert "matches the profile" in out


def test_oracle_cap_exceeded(capsys):
    code, _, err = run(capsys, "oracle", "-p", "23", "--mode", "walks")
    assert code == 2
    assert "capped" in err


def test_oracle_longest_dp_cap_exceeded(capsys):
    # the dynamic program's own cap, MAX_DP_PRIME = 500, refuses p
    code, out, err = run(capsys, "oracle", "-p", "503", "--mode", "longest-dp")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "capped" in err


def test_verification_failure_exits_1(capsys, monkeypatch):
    def refused(p, classification=None):
        raise VerificationError(f"profile invariant violated at p={p}: row count symmetry fails at i=2")

    monkeypatch.setattr(cli, "lambda_profile", refused)
    code, out, err = run(capsys, "lambda", "-p", "11")
    assert (code, out) == (1, "")
    assert err == "verification failure: profile invariant violated at p=11: row count symmetry fails at i=2\n"


def test_table_csv_frozen(capsys):
    code, out, _ = run(capsys, "table", "--min", "3", "--max", "5")
    assert code == 0
    assert out.splitlines() == [
        "p,size,c,mcdowell_upper,mcspirit_ono,theorem_lower_ok,theorem_upper_ok,ratio_24size_p6",
        "3,10,2,10,16,true,true,0.329218106995",
        "5,198,8,289,440,true,true,0.304128000000",
    ]


def test_table_empty_range_is_header_only(capsys):
    code, out, _ = run(capsys, "table", "--min", "24", "--max", "28")
    assert code == 0
    assert out == "p,size,c,mcdowell_upper,mcspirit_ono,theorem_lower_ok,theorem_upper_ok,ratio_24size_p6\n"


def test_table_json_meta(capsys):
    code, out, _ = run(capsys, "table", "--min", "3", "--max", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["range"] == [3, 8]
    assert [row["p"] for row in doc["rows"]] == [3, 5, 7]
    assert doc["rows"][1]["ratio_24size_p6"] == "0.304128000000"


def test_worker_count_does_not_change_output(tmp_path, capsys):
    base = tmp_path / "w1.csv"
    multi = tmp_path / "w4.csv"
    assert main(["table", "--min", "3", "--max", "80", "--output", str(base)]) == 0
    assert main(["table", "--min", "3", "--max", "80", "--workers", "4", "--output", str(multi)]) == 0
    capsys.readouterr()
    assert base.read_bytes() == multi.read_bytes()


def test_verify_workers_deterministic(tmp_path, capsys):
    one = tmp_path / "v1.json"
    four = tmp_path / "v4.json"
    argv = ["verify", "--min", "3", "--max", "60", "--format", "json"]
    assert main(argv + ["--output", str(one)]) == 0
    assert main(argv + ["--workers", "4", "--output", str(four)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == four.read_bytes()


def test_output_path_failure(tmp_path, capsys):
    missing_dir = tmp_path / "not" / "there.csv"
    code, _, err = run(capsys, "table", "--min", "3", "--max", "5", "--output", str(missing_dir))
    assert code == 2
    assert "error" in err


def test_totient_check_pass(capsys):
    code, out, _ = run(capsys, "totient-check", "--n-max", "1")
    assert code == 0
    assert "32/5" in out


def test_totient_check_guard(capsys):
    code, _, _ = run(capsys, "totient-check", "--n-max", "0")
    assert code == 2


def test_workers_guard(capsys):
    code, _, err = run(capsys, "verify", "--min", "3", "--max", "5", "--workers", "0")
    assert code == 2
    assert err == "error: --workers must be at least 1\n"


def test_worker_pool_is_capped_by_items_and_cores(capsys, monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return map(func, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    code, out, _ = run(capsys, "verify", "--min", "3", "--max", "100", "--workers", "5000")
    assert (code, sizes) == (0, [8])
    assert out.encode() == (Path(__file__).parent / "golden" / "verify_3_100_text.txt").read_bytes()
    assert run(capsys, "table", "--min", "3", "--max", "7", "--workers", "5000")[0] == 0
    assert sizes == [8, 3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run(capsys, "table", "--min", "3", "--max", "7", "--workers", "5000")[0] == 0
    assert sizes == [8, 3]  # an unknown core count is taken as one: no pool


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="pool children must inherit the patch")
@pytest.mark.parametrize("command", ["verify", "table"])
def test_dead_worker_exits_2(capsys, monkeypatch, command):
    # a pool child that dies (say, OOM-killed) is environment trouble, not a failed assertion
    parent = os.getpid()
    real = cli.lambda_profile

    def dies_at_101(p, classification=None):
        if p == 101 and os.getpid() != parent:
            os._exit(1)
        return real(p, classification)

    monkeypatch.setattr(cli, "lambda_profile", dies_at_101)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, command, "--min", "3", "--max", "200", "--workers", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_out_of_memory_exits_cleanly(capsys, monkeypatch):
    def exhausted(p, classification=None):
        raise MemoryError

    monkeypatch.setattr(cli, "lambda_profile", exhausted)
    code, out, err = run(capsys, "lambda", "-p", "10000019")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "totient-check" in out

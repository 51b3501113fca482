"""Byte-for-byte CLI output on a fixed set of small-p commands.

Each file under tests/golden/ holds the stdout of one command, recorded once
and never regenerated by a refactor: a change that alters any of them
changes what corewalk prints.  Every command exits 0.  All run at small p
except one verify row just above 10^6 and one verify and one table row
above 4*10^6.
"""

from pathlib import Path

import pytest

from corewalk.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "lambda_p3_parts": ["lambda", "-p", "3", "--emit", "parts"],
    "lambda_p11_m_json": ["lambda", "-p", "11", "--emit", "m", "--format", "json"],
    "lambda_p101_b": ["lambda", "-p", "101", "--emit", "b"],
    "verify_3_100_text": ["verify", "--min", "3", "--max", "100"],
    "verify_3_100_csv": ["verify", "--min", "3", "--max", "100", "--format", "csv"],
    "verify_3_100_json": ["verify", "--min", "3", "--max", "100", "--format", "json"],
    "verify_17_200_checks": ["verify", "--min", "17", "--max", "200", "--checks", "c-bounds,symmetry,identity"],
    # in the paper's stated range p > 10^6: the 35-digit size, c and every bound margin
    "verify_1000003_json": ["verify", "--min", "1000003", "--max", "1000003", "--format", "json"],
    # isqrt(p) = 2000: the lemmas and the block checks on uint16 witnesses and 2^14-label blocks
    "verify_4000037_json": ["verify", "--min", "4000037", "--max", "4000037", "--format", "json"],
    "oracle_walks_p7": ["oracle", "-p", "7", "--mode", "walks"],
    "oracle_longest_dp_p199": ["oracle", "-p", "199", "--mode", "longest-dp"],
    "oracle_partitions_p3": ["oracle", "-p", "3", "--mode", "partitions"],
    "table_3_100_csv": ["table", "--min", "3", "--max", "100"],
    "table_3_100_json": ["table", "--min", "3", "--max", "100", "--format", "json"],
    # isqrt(p) = 2000: the table path with a coprime pair table past k = 1000
    "table_4000037_csv": ["table", "--min", "4000037", "--max", "4000037"],
    "totient_check_1000": ["totient-check", "--n-max", "1000"],
}


def _assert_golden(capsys, name: str, argv: list[str]) -> None:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    _assert_golden(capsys, name, CASES[name])


def test_golden_verify_with_two_workers(capsys):
    _assert_golden(capsys, "verify_3_100_text", CASES["verify_3_100_text"] + ["--workers", "2"])


def test_every_golden_file_has_a_command():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)

"""Command-line interface.

Subcommands: lambda (one profile), verify (inequality sweep over a prime
range), oracle (brute-force cross-checks), table (convergence table),
totient-check (the harmonic totient bound).  Exit codes: 0 success, 1 a
verified mathematical assertion failed, 2 usage or environment trouble.

All numeric output is produced from exact integers; values that may
overflow 64-bit readers are serialized as decimal strings in JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from .bounds import (
    Bound,
    bounds_report,
    mcdowell_upper,
    mcspirit_ono_bound,
    theorem_interval_check,
    totient_sum_check,
)
from .errors import VerificationError
from .modarith import primes_in_range, require_odd_prime
from .oracle import exhaustive_partition_search, longest_walk_dp, max_size_walk
from .partitions import format_partition
from .residue_walk import (
    check_st_lemmas,
    check_sum_identity,
    check_symmetry,
    classify_residues,
    lambda_profile,
    profile_to_partition,
    validate_walk,
)

TABLE_HEADER = "p,size,c,mcdowell_upper,mcspirit_ono,theorem_lower_ok,theorem_upper_ok,ratio_24size_p6"
VERIFY_CHECKS = ("theorem", "eq1", "c-bounds", "symmetry", "identity", "structure", "lemmas")
ORACLE_MODES = ("walks", "longest-dp", "partitions")
RATIO_DIGITS = 12


def _decimal_ratio(num: int, den: int, digits: int = RATIO_DIGITS) -> str:
    """num / den truncated toward zero to a fixed number of digits."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    q, frac = divmod(abs(num) * 10**digits // den, 10**digits)
    return f"{'-' if num < 0 else ''}{q}.{frac:0{digits}d}"


def _decimal_fraction(value: Fraction) -> str:
    """value truncated toward zero to 9 digits, as totient-check prints its slack."""
    return _decimal_ratio(value.numerator, value.denominator, 9)


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _run_ordered(func: Callable, items: Sequence, workers: int) -> list:
    items = list(items)
    # more processes than items or cores buy nothing; the map keeps item order
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [func(item) for item in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items, chunksize=chunk))


def _bool_token(flag: bool) -> str:
    return "true" if flag else "false"


# one profile


MAX_PARTS_PRIME = 300


def cmd_lambda(args: argparse.Namespace) -> int:
    p = require_odd_prime(args.p)
    emit = args.emit
    if "parts" in emit and p > MAX_PARTS_PRIME:
        raise ValueError(f"explicit parts are limited to p <= {MAX_PARTS_PRIME}, got {p}")
    profile = lambda_profile(p)
    ratio = _decimal_ratio(24 * profile.size, p**6)
    fields: dict = {"p": p, "size": profile.size, "c": profile.c, "ratio_24size_p6": ratio}
    if "m" in emit:
        fields["m"] = profile.m[1:].tolist()
    if "b" in emit:
        fields["b"] = profile.b[1:].tolist()
    if "parts" in emit:
        fields["parts"] = list(profile_to_partition(profile).parts)
    if args.fmt == "json":
        text = json.dumps({**fields, "size": str(profile.size)}, indent=2) + "\n"
    else:
        text = "".join(
            f"{key}: {','.join(map(str, value)) if isinstance(value, list) else value}\n"
            for key, value in fields.items()
        )
    _write_output(text, args.output)
    return 0


# inequality sweep


def _group_status(report: dict[str, Bound], names: Sequence[str]) -> tuple[str, list[str]]:
    """One status for a group of bounds: fail, fail*, pass* or pass, with its notes.

    A bound that is empty at this p (ok None) is skipped; every group in
    _CHECK_GROUPS holds one that never is (theorem_lower, eq1_upper, c_upper).
    """
    notes: list[str] = []
    asserted_fail = soft_fail = starred = False
    for name in names:
        ok, asserted, margin = report[name]
        if ok is None:
            continue
        if asserted:
            if not ok:
                asserted_fail = True
                notes.append(f"{name} fails, margin {margin}")
        else:
            starred = True
            if not ok:
                soft_fail = True
                notes.append(f"{name} does not hold (outside its stated range, not asserted)")
    if asserted_fail:
        return "fail", notes
    if soft_fail:
        return "fail*", notes
    if starred:
        return "pass*", notes
    return "pass", notes


_CHECK_GROUPS = {
    "theorem": ("theorem_lower", "theorem_upper"),
    "eq1": ("eq1_upper", "bound_chain", "mcspirit_ono_upper"),
    "c-bounds": ("c_upper", "c_lower", "c18"),
}


def _verify_row(args: tuple[int, tuple[str, ...]]) -> dict:
    p, checks = args
    cls_ = classify_residues(p)
    profile = lambda_profile(p, cls_)
    report = bounds_report(profile)
    row: dict = {"p": p, "size": str(profile.size), "c": profile.c, "checks": {}, "notes": []}
    for check in checks:
        if check in _CHECK_GROUPS:
            status, notes = _group_status(report, _CHECK_GROUPS[check])
        elif check in ("symmetry", "identity"):
            viol = check_symmetry(profile) if check == "symmetry" else check_sum_identity(profile)
            status, notes = ("fail", viol) if viol else ("pass", [])
        elif check == "structure":
            wv = validate_walk(profile)
            status, notes = ("pass", []) if wv.ok else ("fail", [wv.violation])
        elif check == "lemmas":
            viol, lemma_notes = check_st_lemmas(cls_)
            status, notes = ("fail", viol) if viol else ("pass", [])
            notes = notes + lemma_notes
        else:
            raise ValueError(f"unknown check {check!r}")
        row["checks"][check] = {"status": status, "notes": notes}
    row["bounds"] = {
        name: {"ok": ok, "asserted": asserted, "margin": None if margin is None else str(margin)}
        for name, (ok, asserted, margin) in report.items()
    }
    row["failed"] = any(entry["status"] == "fail" for entry in row["checks"].values())
    return row


def _prime_range(args: argparse.Namespace) -> tuple[int, int, list[int]]:
    lo, hi = args.lo, args.hi
    if lo > hi:
        raise ValueError(f"bad range: --min {lo} exceeds --max {hi}")
    return lo, hi, primes_in_range(max(3, lo), hi)


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi, primes = _prime_range(args)
    checks = args.checks
    rows = _run_ordered(_verify_row, [(p, checks) for p in primes], args.workers)
    failures = sum(1 for row in rows if row["failed"])

    if args.fmt == "json":
        doc = {
            "meta": {"range": [lo, hi], "count": len(rows), "checks": list(checks), "version": __version__},
            "rows": rows,
            "failures": failures,
        }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.fmt == "csv":
        header = "p," + ",".join(checks) + ",notes"
        lines = [header]
        for row in rows:
            notes = "; ".join(note for entry in row["checks"].values() for note in entry["notes"])
            lines.append(
                f"{row['p']},"
                + ",".join(row["checks"][check]["status"] for check in checks)
                + f",{notes}"
            )
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for row in rows:
            tokens = " ".join(f"{check}={row['checks'][check]['status']}" for check in checks)
            lines.append(f"p={row['p']} {tokens}")
            for check in checks:
                for note in row["checks"][check]["notes"]:
                    lines.append(f"  note[{check}]: {note}")
        verdict = "no asserted failures" if failures == 0 else f"{failures} primes with asserted failures"
        lines.append(f"checked {len(rows)} primes in [{lo}, {hi}]: {verdict}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 1 if failures else 0


# brute-force cross-checks


def cmd_oracle(args: argparse.Namespace) -> int:
    """Compare one brute-force route with the profile; a p above the route's cap is its own refusal."""
    p = require_odd_prime(args.p)
    lines = [f"mode: {args.mode}", f"p: {p}"]
    if args.mode == "walks":
        cand = max_size_walk(p)
        profile = lambda_profile(p)
        if cand.m != tuple(profile.m[1:].tolist()):
            raise VerificationError(f"enumerated maximal walk {cand.m} differs from the profile at p={p}")
        if cand.size != profile.size:
            raise VerificationError(f"enumerated maximal size {cand.size} != profile size {profile.size}")
        lines.append(f"unique maximal walk matches the profile: length={cand.length} size={cand.size}")
        lines.append("m: " + ",".join(map(str, cand.m)))
    elif args.mode == "longest-dp":
        result = longest_walk_dp(p, compare_profile=False)  # m is compared whole below
        profile = lambda_profile(p)
        if result.m != tuple(profile.m[1:].tolist()):
            raise VerificationError(f"longest walk row counts differ from the profile at p={p}")
        lines.append(f"unique longest walk matches the profile: length={result.length}")
        lines.append("m: " + ",".join(map(str, result.m)))
    elif args.mode == "partitions":
        profile = lambda_profile(p)
        found = exhaustive_partition_search(p, profile.size)
        expected = profile_to_partition(profile)
        if found.partition.parts != expected.parts or found.size != profile.size:
            raise VerificationError(f"exhaustive search winner differs from the profile at p={p}")
        lines.append(f"exhaustive search up to size {profile.size} found the same unique maximum")
        lines.append("parts: " + format_partition(expected))
    else:
        raise ValueError(f"unknown oracle mode {args.mode!r}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


# convergence table


def _table_row(p: int) -> dict:
    profile = lambda_profile(p)
    theorem = theorem_interval_check(p, profile.size)
    return {
        "p": p,
        "size": str(profile.size),
        "c": profile.c,
        "mcdowell_upper": str(mcdowell_upper(p)),
        "mcspirit_ono": str(mcspirit_ono_bound(p)),
        "theorem_lower_ok": theorem["theorem_lower"].ok,
        "theorem_upper_ok": theorem["theorem_upper"].ok,
        "ratio_24size_p6": _decimal_ratio(24 * profile.size, p**6),
    }


def cmd_table(args: argparse.Namespace) -> int:
    lo, hi, primes = _prime_range(args)
    rows = _run_ordered(_table_row, primes, args.workers)
    if args.fmt == "json":
        doc = {
            "meta": {"range": [lo, hi], "count": len(rows), "version": __version__},
            "rows": rows,
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [TABLE_HEADER]
        for row in rows:
            lines.append(
                f"{row['p']},{row['size']},{row['c']},{row['mcdowell_upper']},{row['mcspirit_ono']},"
                f"{_bool_token(row['theorem_lower_ok'])},{_bool_token(row['theorem_upper_ok'])},"
                f"{row['ratio_24size_p6']}"
            )
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0


# totient bound


def cmd_totient_check(args: argparse.Namespace) -> int:
    result = totient_sum_check(args.n_max)  # refuses n_max < 1 itself
    lines = [f"checked n = 1..{result.n_max}: " + ("bound holds" if result.ok else "bound FAILS")]
    if result.first_violation is not None:
        lines.append(f"first violation at n = {result.first_violation}")
    slack_lo, slack_hi = result.slack_bounds
    if result.exact_slack is not None:
        lines.append(
            f"smallest certified slack at n = {result.argmin_n}: {result.exact_slack} "
            f"(= {_decimal_fraction(result.exact_slack)})"
        )
    else:
        lines.append(
            f"smallest certified slack at n = {result.argmin_n}: in "
            f"[{_decimal_fraction(slack_lo)}, {_decimal_fraction(slack_hi)})"
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return 0 if result.ok else 1


# parser plumbing


def _parse_checks(raw: str) -> tuple[str, ...]:
    """The comma-separated check names, each once, in the order of their first occurrence."""
    names = tuple(dict.fromkeys(name.strip() for name in raw.split(",") if name.strip()))
    bad = [name for name in names if name not in VERIFY_CHECKS]
    if bad or not names:
        raise argparse.ArgumentTypeError(
            f"unknown checks {bad}; valid names: {', '.join(VERIFY_CHECKS)}"
        )
    return names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corewalk",
        description="Exact construction and verification of maximal p-core p'-partitions.",
    )
    parser.add_argument("--version", action="version", version=f"corewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lambda", help="construct the profile for one prime")
    sp.add_argument("-p", type=int, required=True, dest="p")
    sp.add_argument("--emit", action="append", choices=("m", "b", "parts"), default=[])
    sp.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("verify", help="verify inequalities over a prime range")
    sp.add_argument("--min", type=int, required=True, dest="lo")
    sp.add_argument("--max", type=int, required=True, dest="hi")
    sp.add_argument("--checks", type=_parse_checks, default=VERIFY_CHECKS)
    sp.add_argument("--format", dest="fmt", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force cross-checks at small p")
    sp.add_argument("-p", type=int, required=True, dest="p")
    sp.add_argument("--mode", choices=ORACLE_MODES, default="walks")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("table", help="convergence table over a prime range")
    sp.add_argument("--min", type=int, required=True, dest="lo")
    sp.add_argument("--max", type=int, required=True, dest="hi")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("totient-check", help="verify the harmonic totient lower bound")
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_totient_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(ns, "workers", 1) < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    try:
        return ns.func(ns)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, BrokenProcessPool) as exc:  # a dead --workers child exits 2 too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

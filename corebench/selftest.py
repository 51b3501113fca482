"""Shows that every check in checks.py rejects a corrupted output.

Runs real ops through corewalk's CLI, confirms the untouched outputs pass,
then corrupts one thing at a time and confirms the check rejects it.  Each
benchmark run calls ``run_selftest`` after its timed ops.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import checks

SEED = 7
P = 1009  # the verify op's prime


def _run(cli, argv: list[str], workdir: Path):
    """(exit code, output text, last profile built) of one CLI op."""
    out = workdir / "selftest.out"
    with checks.last_profile(cli) as captured:
        rc = cli.main(argv + ["--output", str(out)])
    text = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    return rc, text, captured.get("profile")


def _rng() -> random.Random:
    return random.Random(SEED)


def _checked_residue(profile) -> int:
    """A residue the seeded brute force visits, with x_i != y_i."""
    for i in checks.seeded_residues(profile.p, _rng()):
        if profile.x[i] != profile.y[i]:
            return i
    raise ValueError("no seeded residue has an asymmetric pair")


def run_selftest(cli, workdir: Path) -> dict[str, bool]:
    """Corruption name -> True when the checks rejected it.

    The 'clean ...' entries are True when the untouched output passed.
    """
    result: dict[str, bool] = {}
    argv = ["verify", "--min", str(P), "--max", str(P), "--format", "json"]
    rc, text, profile = _run(cli, argv, workdir)

    def rejects(text_=text, profile_=profile) -> bool:
        return bool(checks.check_op(argv, rc, text_, profile_, _rng()))

    result["clean verify output passes"] = not rejects()
    doc = json.loads(text)
    doc["rows"][0]["size"] = str(int(doc["rows"][0]["size"]) + 1)
    result["size off by one"] = rejects(json.dumps(doc))
    doc = json.loads(text)
    doc["rows"][0]["checks"]["structure"]["status"] = "fail"
    result["flipped status"] = rejects(json.dumps(doc))
    i = _checked_residue(profile)
    x, y = profile.x.copy(), profile.y.copy()
    x[i], y[i] = y[i], x[i]
    result["swapped pair"] = rejects(profile_=dataclasses.replace(profile, x=x, y=y))
    m = profile.m.copy()
    m[i] += 1
    result["perturbed m_i"] = rejects(profile_=dataclasses.replace(profile, m=m))
    result["exit code 1"] = bool(checks.check_op(argv, 1, text, profile, _rng()))

    below = profile.size - P**5 * math.isqrt(P)
    result["size below the theorem interval"] = not checks.check_bounds(P, profile.size) and bool(
        checks.check_bounds(P, below)
    )
    result["size above the theorem interval"] = bool(checks.check_bounds(P, P**6 // 24))

    small = 11
    argv_parts = ["lambda", "-p", str(small), "--emit", "parts"]
    rc_parts, text_parts, profile_parts = _run(cli, argv_parts, workdir)
    result["clean lambda parts pass"] = not checks.check_op(argv_parts, rc_parts, text_parts, profile_parts, _rng())
    lines = text_parts.splitlines()
    parts = [int(tok) for tok in lines[-1].split(": ")[1].split(",")]
    parts[0] += 1
    parts[-1] -= 1
    bad = [part for part in parts if part > 0]
    result["non-core parts, same size"] = not checks.beta_set_is_core(bad, small) and bool(
        checks.check_op(argv_parts, rc_parts, "\n".join(lines[:-1] + ["parts: " + ",".join(map(str, bad))]), profile_parts, _rng())
    )

    argv_tot = ["totient-check", "--n-max", "100"]
    rc_tot, text_tot, _ = _run(cli, argv_tot, workdir)
    result["clean totient output passes"] = not checks.check_op(argv_tot, rc_tot, text_tot, None, _rng())
    head, _, tail = text_tot.rpartition(": ")
    num, _, rest = tail.partition("/")
    result["totient slack off by one"] = bool(
        checks.check_op(argv_tot, rc_tot, f"{head}: {int(num) + 1}/{rest}", None, _rng())
    )
    return result


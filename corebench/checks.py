"""Correctness checks on op outputs, computed apart from corewalk.

Nothing here imports corewalk.  Each check recomputes a fact by another route
than the program's and compares it with what the op printed or returned:

- size: the row-stacking sum  sum_i (p-i) (m_i w_{i-1} + i m_i (m_i+1)/2),
  w_i = w_{i-1} + i m_i, evaluated exactly modulo 2^64 and a few primes
  below 2^31 and recombined by the Chinese remainder theorem (the program
  uses a quadratic form in the runner counts);
- pairs: the minimal admissible pair (x_i, y_i) by brute force over y,
  and m_i = p - y_{i-1} - x_i, at seeded residues;
- bounds: the theorem interval and size <= McDowell's upper bound with
  integer arithmetic and math.isqrt (the program compares signed squares);
- p-core: the beta-set test "bead q present => bead q-p present" (the program
  tests hook lengths);
- totient: the slack at the reported n with Fraction and phi by factoring
  (the program sieves);
- statuses: every op exits 0 and every verify status is pass.

Each check returns a list of failure messages; an empty list means the op
passed.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from fractions import Fraction

import numpy as np

# odd primes below 2^31: a product of a residue and a number below 2^32 fits in int64
MODULI = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)
STATED_THEOREM_MIN_P = 10**6
LARGE_P_RESIDUES = 3
SMALL_P_RESIDUES = 8
TOTIENT_RECHECK_LIMIT = 5000
STACK_CHUNK = 1 << 16


@contextlib.contextmanager
def last_profile(cli):
    """Inside the block, ``cli.lambda_profile`` also keeps the profile it
    returned last, under "profile" in the yielded dict: the row counts and
    pairs the checks compare."""
    box: dict = {}
    build = cli.lambda_profile

    def keep(*args, **kwargs):
        box["profile"] = build(*args, **kwargs)
        return box["profile"]

    cli.lambda_profile = keep
    try:
        yield box
    finally:
        cli.lambda_profile = build


def _stacked_residue(p: int, m: np.ndarray, q: int | None) -> int:
    """The row-stacking sum modulo q, or modulo 2^64 when q is None.

    Evaluated in chunks of STACK_CHUNK rows, carrying w_{i-1} from one chunk
    to the next, so the temporaries stay small next to the program's arrays.
    Modulo 2^64 the uint64 arithmetic wraps by itself.  Modulo an odd q every
    product has one factor below q < 2^31 and one below 2^32, and m and i are
    already below q because p is.
    """
    total = w = 0  # w: w_{i-1} at the start of the chunk, reduced
    for lo in range(0, p - 1, STACK_CHUNK):
        mc = m[lo : lo + STACK_CHUNK]
        idx = np.arange(lo + 1, lo + 1 + mc.size, dtype=np.int64)
        tri = mc * (mc + 1) // 2  # exact: m <= p < 2^31
        if q is None:
            mc, idx, tri = (a.astype(np.uint64) for a in (mc, idx, tri))
        steps = idx * mc if q is None else idx * mc % q
        np.cumsum(steps, out=steps)  # modulo q it stays below STACK_CHUNK q < 2^47
        w_prev = np.empty_like(steps)
        w_prev[0] = 0
        w_prev[1:] = steps[:-1]
        if q is None:
            w_prev += np.uint64(w)
            total += int(((p - idx) * (mc * w_prev + idx * tri)).sum())
            w = (w + int(steps[-1])) % (1 << 64)
        else:
            w_prev = (w_prev + w) % q
            inner = mc * w_prev % q + idx * (tri % q) % q
            total += int(((p - idx) * inner % q).sum())
            w = (w + int(steps[-1])) % q
    return total % (1 << 64 if q is None else q)


def row_stacking_size(p: int, m) -> int:
    """Size of the partition whose display has m[i-1] rows with i gaps.

    Rows are stacked by increasing gap count; the k-th row with i gaps holds
    p - i beads, each a part equal to the running gap total w_{i-1} + k i.
    With 0 <= m_i <= p every term is below p (p^4 + p^3), so the size is
    below 2 p^6, and its residues modulo 2^64 and enough odd primes fix it.
    """
    m = np.asarray(m, dtype=np.int64)
    if m.shape != (p - 1,):
        raise ValueError(f"expected {p - 1} row counts, got shape {m.shape}")
    if m.size and (int(m.min()) < 0 or int(m.max()) > p):
        raise ValueError("row counts must lie in 0..p")
    if p >= MODULI[-1]:
        raise ValueError(f"p={p} is too large for the moduli")
    moduli: list[int | None] = [None]
    prod = 1 << 64
    for q in MODULI:
        if prod > 2 * p**6:
            break
        moduli.append(q)
        prod *= q
    if prod <= 2 * p**6:
        raise ValueError(f"p={p} is too large for {len(MODULI)} moduli")
    size = 0
    for q in moduli:
        modulus = 1 << 64 if q is None else q
        rest = prod // modulus
        size += _stacked_residue(p, m, q) * rest * pow(rest, -1, modulus)
    return size % prod


def brute_pair(p: int, i: int, chunk: int = 1 << 16) -> tuple[int, int]:
    """Minimal positive (x, y), by x + y, with i x + (i+1) y = 0 mod p,
    x <= inv(i) and y <= inv(-(i+1)).

    Tries every y in increasing chunks and stops only when no larger y can
    give a smaller sum (x >= 1, so a sum is at least y + 1); ties at the
    minimum are therefore all seen.
    """
    x_max = pow(i, -1, p)
    y_max = pow(-(i + 1), -1, p)
    step = -(i + 1) * x_max % p  # x = step * y mod p
    best: tuple[int, int, int] | None = None  # (sum, x, y)
    ties = 0
    for lo in range(1, y_max + 1, chunk):
        if best is not None and lo + 1 > best[0]:
            break
        ys = np.arange(lo, min(lo + chunk, y_max + 1), dtype=np.int64)
        xs = ys * step % p  # below 2^62 while p < 2^31
        ok = (xs >= 1) & (xs <= x_max)
        if not ok.any():
            continue
        sums = (xs + ys)[ok]
        k = int(sums.argmin())
        low = int(sums[k])
        hits = int(np.count_nonzero(sums == low))
        if best is None or low < best[0]:
            best, ties = (low, int(xs[ok][k]), int(ys[ok][k])), hits
        elif low == best[0]:
            ties += hits
    if best is None or ties != 1:
        raise ValueError(f"no unique minimal pair at i={i}, p={p}")
    return best[1], best[2]


def seeded_residues(p: int, rng: random.Random) -> list[int]:
    """Labels 2..p-2 at which pairs and row counts are brute-forced."""
    labels = range(2, p - 1)
    k = LARGE_P_RESIDUES if p > 10**4 else SMALL_P_RESIDUES
    return sorted(rng.sample(labels, min(k, len(labels))))


def check_row_counts(p: int, m, rng: random.Random, x=None, y=None) -> list[str]:
    """m[i] (index i = label, index 0 unused) against brute-forced pairs.

    When the pair arrays x, y of a profile are given, the pairs themselves
    are compared too.
    """
    out = []
    if int(m[1]) != p - 1 or int(m[p - 1]) != p - 2:
        out.append(f"climb/descent row counts {int(m[1])}, {int(m[p - 1])} at p={p}")
    for i in seeded_residues(p, rng):
        prev, here = brute_pair(p, i - 1), brute_pair(p, i)
        if x is not None and (int(x[i]), int(y[i])) != here:
            out.append(f"pair at i={i} is {(int(x[i]), int(y[i]))}, brute force gives {here}, p={p}")
        if int(m[i]) != p - prev[1] - here[0]:
            out.append(f"m_{i} = {int(m[i])}, brute force gives {p - prev[1] - here[0]}, p={p}")
    return out


def mcdowell_upper_times_24(p: int) -> int:
    return p**6 - 4 * p**5 + 5 * p**4 + 12 * p**3 - 42 * p**2 + 52 * p - 24


def theorem_verdict(p: int, size: int) -> tuple[bool, bool]:
    """(lower, upper) of p^6/24 - p^5 sqrt(p) < size < p^6/24 - p^5 sqrt(p)/200.

    With L = p^6 - 24 size: lower is L < sqrt(576 p^11), upper is
    25 L > sqrt(9 p^11).  Neither radicand is a square, so for an integer
    the strict comparison with the root is one with its floor.
    """
    big_l = p**6 - 24 * size
    lower = big_l <= math.isqrt(576 * p**11)
    upper = 25 * big_l > math.isqrt(9 * p**11)
    return lower, upper


def check_bounds(p: int, size: int) -> list[str]:
    out = []
    lower, upper = theorem_verdict(p, size)
    if not (lower and upper):
        out.append(f"theorem interval fails at p={p}: lower {lower}, upper {upper}")
    if 24 * size > mcdowell_upper_times_24(p):
        out.append(f"size exceeds McDowell's upper bound at p={p}")
    return out


def check_size(p: int, printed_size: int, m) -> list[str]:
    try:
        stacked = row_stacking_size(p, m)
    except ValueError as exc:
        return [f"row-stacking sum refused the row counts: {exc}"]
    if stacked != printed_size:
        return [f"printed size {printed_size} != row-stacking sum {stacked} at p={p}"]
    return []


def beta_set_is_core(parts: list[int], p: int) -> bool:
    n = len(parts)
    beads = {part + n - k for k, part in enumerate(parts, start=1)}
    return all(q < p or q - p in beads for q in beads)


def check_parts(p: int, parts: list[int], size: int) -> list[str]:
    out = []
    if any(a < b for a, b in zip(parts, parts[1:])) or (parts and parts[-1] < 1):
        out.append(f"parts are not a partition at p={p}")
    if sum(parts) != size:
        out.append(f"parts sum to {sum(parts)}, printed size is {size}, p={p}")
    if any(part % p == 0 for part in parts):
        out.append(f"a part is divisible by p={p}")
    if not beta_set_is_core(parts, p):
        out.append(f"beta-set test: partition is not a {p}-core")
    return out


def totient(k: int) -> int:
    """Euler's phi by trial-division factoring."""
    result, rest, d = k, k, 2
    while d * d <= rest:
        if rest % d == 0:
            result -= result // d
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        result -= result // rest
    return result


def exact_totient_slack(n: int) -> Fraction:
    """sum_{k<=n} phi(k)/k - (3n - 30)/5."""
    return sum((Fraction(totient(k), k) for k in range(1, n + 1)), Fraction(0)) - Fraction(3 * n - 30, 5)


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _parse_parts(value: str) -> list[int]:
    return [int(tok) for tok in value.split(",")] if value else []


def _profile_for(p: int, profile) -> list[str]:
    if profile is None or profile.p != p:
        return [f"no profile for p={p} was returned by the op"]
    return []


def check_verify(argv, text, profile, rng) -> list[str]:
    p = int(argv[argv.index("--min") + 1])
    doc = json.loads(text)
    rows = doc["rows"]
    if len(rows) != 1 or rows[0]["p"] != p or doc["failures"] != 0:
        return [f"verify output does not hold one passing row for p={p}"]
    row = rows[0]
    out = []
    for name, entry in row["checks"].items():
        status = entry["status"]
        if status != "pass" and not (status == "pass*" and p <= STATED_THEOREM_MIN_P):
            out.append(f"verify status {name}={status} at p={p}")
    size = int(row["size"])
    out += check_bounds(p, size)
    out += _profile_for(p, profile)
    if not out:
        out += check_size(p, size, profile.m[1:])
        out += check_row_counts(p, profile.m, rng, profile.x, profile.y)
    return out


def check_table(argv, text, profile, rng) -> list[str]:
    p = int(argv[argv.index("--min") + 1])
    lines = text.splitlines()
    if len(lines) != 2:
        return [f"table output has {len(lines)} lines, expected a header and one row"]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    if int(row["p"]) != p:
        return [f"table row is for p={row['p']}, not {p}"]
    size = int(row["size"])
    out = check_bounds(p, size)
    poly = mcdowell_upper_times_24(p)
    if poly % 24 or int(row["mcdowell_upper"]) != poly // 24:
        out.append(f"printed McDowell bound {row['mcdowell_upper']} is wrong at p={p}")
    lower, upper = theorem_verdict(p, size)
    if (row["theorem_lower_ok"], row["theorem_upper_ok"]) != (str(lower).lower(), str(upper).lower()):
        out.append(f"printed theorem flags disagree with the recomputed ones at p={p}")
    out += _profile_for(p, profile)
    if not out:
        out += check_size(p, size, profile.m[1:])
        out += check_row_counts(p, profile.m, rng, profile.x, profile.y)
    return out


def check_lambda(argv, text, profile, rng) -> list[str]:
    p = int(argv[argv.index("-p") + 1])
    fields = _fields(text)
    if int(fields["p"]) != p:
        return [f"lambda output is for p={fields['p']}, not {p}"]
    size = int(fields["size"])
    out = check_parts(p, _parse_parts(fields["parts"]), size)
    if 24 * size > mcdowell_upper_times_24(p):
        out.append(f"size exceeds McDowell's upper bound at p={p}")
    out += _profile_for(p, profile)
    if not out:
        out += check_size(p, size, profile.m[1:])
        out += check_row_counts(p, profile.m, rng, profile.x, profile.y)
    return out


def check_oracle(argv, text, profile, rng) -> list[str]:
    p = int(argv[argv.index("-p") + 1])
    mode = argv[argv.index("--mode") + 1]
    lines = text.splitlines()
    fields = _fields(text)
    if fields.get("mode") != mode or int(fields["p"]) != p:
        return [f"oracle output is not for mode {mode}, p={p}"]
    out = _profile_for(p, profile)
    if out:
        return out
    if mode == "partitions":
        size = int(lines[2].split("up to size ")[1].split()[0])
        out += check_parts(p, _parse_parts(fields["parts"]), size)
        out += check_size(p, size, profile.m[1:])
        return out
    m = [0] + [int(tok) for tok in fields["m"].split(",")]
    length = int(lines[2].split("length=")[1].split()[0])
    if sum(m) != length:
        out.append(f"printed walk length {length} != sum of printed m at p={p}")
    # walks prints its size; longest-dp does not, so its m is held to the profile's size
    size = int(lines[2].split("size=")[1].split()[0]) if mode == "walks" else profile.size
    out += check_size(p, size, m[1:])
    out += check_row_counts(p, m, rng)
    return out


def check_totient(argv, text, profile, rng) -> list[str]:
    n_max = int(argv[argv.index("--n-max") + 1])
    lines = text.splitlines()
    if lines[0] != f"checked n = 1..{n_max}: bound holds":
        return [f"totient sweep does not report the bound holding up to {n_max}"]
    head, _, value = lines[-1].partition(": ")
    n = int(head.rsplit("= ", 1)[1])
    if n > TOTIENT_RECHECK_LIMIT:
        return [f"totient slack reported at n={n}, beyond the exact recheck"]
    printed = Fraction(value.split(" ")[0])
    exact = exact_totient_slack(n)
    if printed != exact or exact <= 0:
        return [f"totient slack at n={n}: printed {printed}, exact {exact}"]
    return []


CHECKERS = {
    "verify": check_verify,
    "table": check_table,
    "lambda": check_lambda,
    "oracle": check_oracle,
    "totient-check": check_totient,
}


def check_op(argv: list[str], rc: int, text: str, profile, rng: random.Random) -> list[str]:
    """All checks of one op; profile is the last LambdaProfile the op built."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return CHECKERS[argv[0]](argv, text, profile, rng)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]

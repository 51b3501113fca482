"""corewalk benchmark: one workload, one run, one JSON line of metrics.

    python3 corebench/run.py --workload verify-1e6 --seed 1 --seconds 25 --trace 0

Run from the root of a corewalk checkout; it imports corewalk from the
checkout's ``src``.  Set-up is timed over several fresh interpreters; the ops
run in four more fresh children, one after another, each for a quarter of the
seconds, capped by RLIMIT_AS and with one BLAS/OpenMP thread.
The last line of stdout is the result: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  The host record and every op
go to a run directory under corebench/out/.  See corebench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
CHILDREN = 4  # each pays a cold first op; first_op_s is their median
MEMORY_CAP_BYTES = 3 << 30
SLACK_S = 120.0  # beyond --seconds: set-up, checks, self-test, each child's last op


def host_sample() -> dict:
    with open("/proc/stat") as fh:
        cpu = fh.readline().split()
    with open("/proc/loadavg") as fh:
        load = [float(v) for v in fh.read().split()[:3]]
    return {"steal_ticks": int(cpu[8]), "loadavg": load}


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def spawn(args: list[str], log) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its ready line; returns it and the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), *args],
        stdout=subprocess.PIPE,
        stderr=log,
        env=child_env(),
        cwd=ROOT,
        preexec_fn=cap_memory,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("child did not become ready; see child.log")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("child ran past the deadline and was killed") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}; see child.log")


def end_to_end(records: list[dict], setups: list[float], peak_rss_mb: float) -> dict:
    """First ops are each child's first; every other op is warm.  A run too
    short for any warm op takes the median over all ops."""
    walls = [r["wall_s"] for r in records]
    warm = [r["wall_s"] for r in records if not r["first"]] or walls
    done = sum(1 for r in records if not r["failures"])
    return {
        "ops_per_s": {"value": done / sum(walls), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(warm) * 1000, "unit": "ms"},
        "first_op_s": {"value": statistics.median(r["wall_s"] for r in records if r["first"]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


LAYER_UNITS = {"residue_walk.profile_bytes": "B", "residue_walk.walk_edges": "count"}


def per_layer(records: list[dict], layers: dict) -> dict:
    """Layer sums of the traced rounds, and the tracing overhead: the mean
    traced round against the mean untraced one, leaving out each child's cold
    round 0."""
    out = {name: {"value": value, "unit": LAYER_UNITS.get(name, "ms")} for name, value in layers.items()}
    round_s: dict[tuple[int, int], float] = {}
    for r in records:
        key = (r["child"], r["round"])
        round_s[key] = round_s.get(key, 0.0) + r["wall_s"]
    traced = [s for (_, k), s in round_s.items() if k and k % 2 == 0]
    plain = [s for (_, k), s in round_s.items() if k % 2 == 1]
    overhead = 100 * (statistics.fmean(traced) / statistics.fmean(plain) - 1) if traced and plain else 0.0
    out["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    out["trace.traced_ops"] = {"value": sum(1 for r in records if r["traced"]), "unit": "count"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="corewalk benchmark, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "corewalk" / "cli.py").is_file():
        print(f"error: no corewalk sources under {ROOT / 'src'}; run from a corewalk checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    try:
        return run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + args.seconds + SLACK_S
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    before = host_sample()
    setups = []
    records = []
    children = []
    first_round = 0
    with open(run_dir / "child.log", "w") as log:
        for _ in range(SETUP_PROBES):
            proc, setup = spawn(["--setup-only"], log)
            finish(proc, deadline)
            setups.append(setup)
        for j in range(CHILDREN):
            child_args = [
                *("--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)),
                *("--seconds", str(args.seconds / CHILDREN), "--first-round", str(first_round)),
                *("--out", str(run_dir), *(["--selftest"] if j == CHILDREN - 1 else [])),
            ]
            proc, setup = spawn(child_args, log)
            setups.append(setup)
            finish(proc, deadline)
            result_file = run_dir / f"result-{first_round}.json"
            child = json.loads(result_file.read_text())
            result_file.unlink()
            for n, r in enumerate(child.pop("records")):
                records.append({**r, "child": j, "first": n == 0})
            children.append(child)
            first_round += child["rounds"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    after = host_sample()
    selftest = children[-1]["selftest"]

    failed = sum(1 for r in records if r["failures"])
    correct = all(selftest.values()) and not any(r["wrong_output"] for r in records)
    if args.trace:
        layers = {name: sum(c["trace"][name] for c in children) for name in children[0]["trace"]}
        metrics = per_layer(records, layers)
    else:
        metrics = end_to_end(records, setups, peak_rss_mb)
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": children[0]["python"],
        "numpy": children[0]["numpy"],
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "steal_ticks_delta": after["steal_ticks"] - before["steal_ticks"],
    }
    summary = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    record = {"args": vars(args), "host": host, "setups_s": setups, "summary": summary, "records": records}
    (run_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print("host: " + json.dumps(host), file=sys.stderr)
    for r in records:
        if r["failures"]:
            print(f"failed op {' '.join(r['argv'])}: {'; '.join(r['failures'][:3])}", file=sys.stderr)
    for name, ok in selftest.items():
        if not ok:
            print(f"selftest: the checks did not reject '{name}'", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

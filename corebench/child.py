"""One benchmark run's child process: import corewalk, then run the ops.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints ``ready`` once numpy and corewalk are imported (the parent times
spawn-to-ready as set-up), then, unless ``--setup-only``, runs the workload's
first ops and then whole rounds, from round ``--first-round`` on, until
``--seconds`` of op time have passed; the first ops count in round 0.  Each
op is one ``corewalk.cli.main`` call with its output sent to a file; only
that call is timed.  The output is checked after the clock stops.  The
records go to ``result-<first round>.json`` in ``--out``, the spans of a
traced run to ``spans-<first round>.json``.

With ``--trace 1`` rounds alternate traced and untraced, starting traced so
that the cold first op is traced; the untraced rounds are the base for the
tracing overhead.  A traced child runs at least three rounds, so that warm
ops are traced too.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _import_corewalk(root: Path):
    import numpy  # noqa: F401

    import corewalk.cli

    src = (root / "src").resolve()
    if src not in Path(corewalk.__file__).resolve().parents:
        raise SystemExit(f"corewalk was imported from {corewalk.__file__}, not from {src}")
    return corewalk.cli


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--first-round", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    cli = _import_corewalk(args.root)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import platform
    import random

    import numpy

    from corewalk import bounds, oracle, residue_walk

    import checks
    import selftest
    import tracing
    import workloads

    rounds = workloads.rounds(args.workload, args.seed)
    first_ops = workloads.first_ops(args.workload)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer({"cli": cli, "residue_walk": residue_walk, "oracle": oracle, "bounds": bounds})
    out_file = args.out / "op.out"
    records = []
    spent = 0.0
    k = 0
    min_rounds = 3 if tracer else 1
    with checks.last_profile(cli) as captured:
        while k < min_rounds or spent < args.seconds:
            traced = tracer is not None and k % 2 == 0
            if traced:
                tracer.install()
            for argv in (first_ops if k == 0 else []) + rounds[(args.first_round + k) % len(rounds)]:
                if traced:
                    tracer.op = len(records)
                start = time.perf_counter()
                try:
                    rc = cli.main(argv + ["--output", str(out_file)])
                except Exception as exc:  # an op that dies is a failed op, not a dead run
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
                spent += wall
                text = out_file.read_text() if out_file.exists() else ""
                out_file.unlink(missing_ok=True)
                profile = captured.pop("profile", None)
                check_start = time.perf_counter()
                if rc is None:
                    failures, wrong = [error], False
                else:
                    rng = random.Random(f"{args.seed}:{args.first_round + k}:{len(records)}")
                    failures = checks.check_op(argv, rc, text, profile, rng)
                    wrong = rc == 0 and bool(failures)
                if traced and profile is not None:
                    tracer.count_profile(profile)
                del profile
                records.append(
                    {
                        "argv": argv,
                        "round": k,
                        "wall_s": wall,
                        "check_s": time.perf_counter() - check_start,
                        "rc": rc,
                        "traced": traced,
                        "failures": failures,
                        "wrong_output": wrong,
                    }
                )
            if traced:
                tracer.uninstall()
            k += 1

    result = {
        "records": records,
        "rounds": k,
        "selftest": selftest.run_selftest(cli, args.out) if args.selftest else {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trace": tracer.metrics() if tracer else None,
    }
    if tracer:
        (args.out / f"spans-{args.first_round}.json").write_text(json.dumps(tracer.spans) + "\n")
    (args.out / f"result-{args.first_round}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

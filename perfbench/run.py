"""ncsecsim benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload city --seed 1 --seconds 15 --trace 0

Workloads: city, predict, relay, security (see NOTES.md).  Run from the root
of a checkout; the program is imported from ``src/`` as it stands, nothing
is installed.

``--trace 0`` prints the end-to-end metrics.  Set-up is timed in several
fresh processes and reported as the median; the workload itself runs in one
more process for ``--seconds``.

``--trace 1`` prints the per-layer metrics.  It runs a fixed number of
operations once untraced and twice traced; the two traced runs must give
identical counts, and the traced minus untraced time per operation is the
tracing overhead.  The span table goes to ``.bench_out/trace-*.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("city", "predict", "relay", "security")
SETUP_REPEATS = 4  # set-up-only processes, besides the measuring one
BUDGET_S = 170.0  # every run ends within this, with its child processes

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_s": "s",
    "relay_pkts_per_s": "1/s",
    "hop_p50_us": "us",
    "hop_p99_us": "us",
    "safekey_trials_per_s": "1/s",
    "bypass_trials_per_s": "1/s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    return env


class Runner:
    def __init__(self, args: argparse.Namespace):
        self.base = [
            sys.executable, str(BENCH_DIR / "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
        ] + (["--quick"] if args.quick else [])
        self.deadline = time.monotonic() + BUDGET_S
        self.env = child_env()

    def __call__(self, *extra: str) -> dict:
        """Run one workload process and return the JSON object it printed."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("time budget exhausted")
        proc = subprocess.run(
            self.base + list(extra), cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Runner, seconds: int) -> tuple[dict, list[dict]]:
    setups = [run("--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
    main = run("--seconds", str(seconds), "--probes")
    setups.append(main["setup_s"])
    values = dict(main["metrics"], setup_s=statistics.median(setups))
    return values, [main]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small workload sizes, for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not (SRC / "ncsecsim" / "__init__.py").is_file():
        print(f"error: no ncsecsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import per_layer_catalogue
    from workloads import TRACE_OPS

    run = Runner(args)
    try:
        if args.trace:
            units = {name: unit for name, unit, _ in per_layer_catalogue()}
            ops = str(1 if args.quick else TRACE_OPS[args.workload])
            ref = run("--ops", ops)
            traced = [run("--ops", ops, "--trace") for _ in range(2)]
            children = [ref, *traced]
            first, second = (t["per_layer"] for t in traced)
            exact = {k for k in first if units[k] in ("count", "B")}
            mismatched = sorted(k for k in exact if first[k] != second[k])
            values = {k: v if k in exact else (v + second[k]) / 2 for k, v in first.items()}
            untraced = ref["metrics"]["run_s"]
            traced_s = statistics.mean(t["metrics"]["run_s"] for t in traced)
            values["trace.overhead_s"] = traced_s - untraced
            values["trace.overhead_ratio"] = traced_s / untraced - 1.0
            print(f"# span table: {traced[0]['trace_file']}")
        else:
            units = END_TO_END
            values, children = end_to_end(run, args.seconds)
            mismatched = []
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: no value for {missing} (no operation completed)", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for err in c["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    if mismatched:
        failed += 1
        print(f"failed: traced counts differ between two runs of seed {args.seed}: {mismatched}",
              file=sys.stderr)

    import numpy  # only for the version, after the timed processes

    print(f"# {args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"ops={[c['ops'] for c in children]}")
    print("# CPU seconds per operation {}, times reference/CPU {}".format(
        [round(c["raw_run_s"], 6) for c in children if "raw_run_s" in c],
        [round(c["scale"], 4) for c in children if "scale" in c]))
    for name in units:
        print(f"# {name:<44} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

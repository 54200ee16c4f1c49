"""Record one benchmark trajectory point, ``BENCH_<n>.json``, at the root of
the checkout this script lives in.

    python3 tools/bench_record.py

For each workload and seed it runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

one process at a time, then one ``--trace 1`` run of seed 1 per workload.
``n`` is one more than the highest point already recorded, at the root or
under ``perfbench/``.  The file has the schema of ``perfbench/BENCH_1.json``
(median, q1, q3, spread = (q3 - q1) / median and n per metric, raw CPU
seconds per operation, per-layer metrics of seed 1), plus the commit
measured, every run's metrics with its ``attempted`` and ``failed``
counts, and under ``machine`` the CPU count, the Python and numpy
versions and whether ``PYTHONDONTWRITEBYTECODE`` is set.  The script
refuses to run while ``src/`` has uncommitted changes,
since the point would then name a commit that is not what was measured,
and it writes no point once any run reports failed operations or
``correct: false``; the error names the workload and the seed.
A point takes about 15 minutes.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("city", "predict", "relay", "security")
SEEDS = list(range(1, 11))
SECONDS = 15
COMMAND = f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0"


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, float | None]:
    """One ``perfbench/run.py`` process: its result object, and the raw CPU
    seconds per operation of its first measuring process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    cpu = next((re.search(r"\[([\d.]+)", line) for line in lines
                if line.startswith("# CPU seconds per operation")), None)
    return json.loads(lines[-1]), float(cpu.group(1)) if cpu else None


def check(workload: str, seed: int, result: dict) -> None:
    """Refuse to record a run that reports failed operations or wrong
    output: a point must not hold the speed of a broken program."""
    if result["failed"] or not result["correct"]:
        raise SystemExit(
            f"error: {workload} seed {seed} reported failed {result['failed']} of "
            f"{result['attempted']}, correct {str(result['correct']).lower()}; no point written"
        )


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def next_point() -> int:
    found = [
        int(m.group(1))
        for path in (*ROOT.glob("BENCH_*.json"), *ROOT.glob("perfbench/BENCH_*.json"))
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    return max(found, default=0) + 1


def main() -> int:
    if git("status", "--porcelain", "--", "src/"):
        print("error: src/ has uncommitted changes; commit them first", file=sys.stderr)
        return 2
    commit = git("rev-parse", "HEAD")
    point = next_point()

    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    raw_cpu: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    for workload in WORKLOADS:
        for seed in SEEDS:
            result, cpu = run_bench(workload, seed, trace=0)
            check(workload, seed, result)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            runs[workload].append({
                "seed": seed,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            })
            raw_cpu[workload].append(cpu)
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)

    units = {name: m["unit"] for name, m in result["metrics"].items()}
    end_to_end = {
        w: {
            name: {**summary([r["metrics"][name] for r in runs[w]]), "unit": units[name]}
            for name in units
        }
        for w in WORKLOADS
    }
    per_layer = {}
    for workload in WORKLOADS:
        result, _ = run_bench(workload, 1, trace=1)
        check(workload, 1, result)
        per_layer[workload] = {
            "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        }

    report = {
        "trajectory_point": point,
        "program": f"src/ at {commit}",
        "commit": commit,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            # Without bytecode every set-up process compiles ``src/``,
            # which shows in ``setup_s``.
            "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        "command": COMMAND,
        "seeds": SEEDS,
        "end_to_end": end_to_end,
        "raw_cpu_s_per_op": {
            w: {
                "median": statistics.median(v),
                "min": min(v),
                "max": max(v),
                "n": len(v),
            }
            for w, v in raw_cpu.items()
        },
        "per_layer_seed1": per_layer,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{point}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

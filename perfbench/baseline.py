"""Run the benchmark over several seeds and record the summary.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

Run from the root of a git checkout. For each workload of BENCHMARK.json: one
untraced run per seed, and for each end-to-end metric its median, quartiles
(as statistics.quantiles(values, n=4) gives them) and spread, the distance
between the quartiles as a share of the median, printed next to a third of the
bound in BENCHMARK.json; then one traced run, on seed TRACE_SEED, for the
per-layer metrics. The summary carries the Python version, platform, git sha
and nproc.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 1


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return result


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {
        "git_sha": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            end_to_end[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bound, "values": values,
            }
            print(f"{workload:<12} {name:<12} median {median:12.5g} {end_to_end[name]['unit']:<3}"
                  f" spread {(q3 - q1) / median:6.3f}  bound/3 {bound / 3:6.3f}", flush=True)
        traced = bench(workload, TRACE_SEED, seconds, 1)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "trace_seed": TRACE_SEED,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

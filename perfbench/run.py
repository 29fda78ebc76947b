"""finalg benchmark: drives `finalg.cli.main` in-process, one closed-loop client.

    python3 perfbench/run.py --workload suite-sweep|cli-cold|rank-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
A run makes a fixed number of passes over the workload's op list:
round(S / nominal pass time), at least one. A pass always does the same work,
so the pass count depends on S only. Each pass is preceded by a set-up (fresh
import of finalg, input generation, file writes); setup_s is the median of
those set-ups. Every time is taken at the reference speed (see
`at_reference_speed`). The latency of op i is its median over the passes;
wall_s sums them. Every op's stdout and exit code are captured, and checked
after the last pass, outside the timed spans. With --trace 1 each pass is
followed by a traced pass on the next inputs, and the per-layer metrics of the
traced passes are printed. The last stdout line is one JSON object: correct,
attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
import typing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# An op's spans may leave uncovered at most this much of its latency.
GAP_TOLERANCE_S = 0.002
GAP_TOLERANCE = 0.05
NOMINAL_PASS_S = {"suite-sweep": 2.0, "cli-cold": 5.0, "rank-sweep": 3.0}
# Machine speed probe: the benchmark's own pure-Python closure on a fixed
# 4-element algebra, the same kind of work as the program's, and the time it
# takes at the reference speed.
CALIBRATION_SPEC = workloads.random_spec(random.Random(0), "calibration", 4, (2, 2))
CALIBRATION_REF_S = 250e-6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "cli.main.self_s",
    "fileformat.parse_algebra_file.calls", "fileformat.parse_algebra_file.self_s",
    "algebra.product_square.calls", "algebra.product_square.self_s",
    "algebra.generate_subalgebra.calls", "algebra.generate_subalgebra.self_s",
    "algebra.generate_subalgebra.out_elems",
    "closure.semicongruence_generated.calls", "closure.semicongruence_generated.self_s",
    "closure.semicongruence_generated.pairs_out",
    "closure.semicongruence_generated.distinct_ratio",
    "closure.congruence_generated.calls", "closure.congruence_generated.self_s",
    "closure.iterate.calls", "closure.iterate.self_s", "closure.iterate.steps",
    "closure.ops.calls", "closure.ops.self_s",
    "relations.compose.calls", "relations.compose.self_s",
    "relations.image.calls", "relations.image.self_s",
    "ranks.algebra_rank.calls", "ranks.algebra_rank.self_s", "ranks.subsets",
    "catalog.build_catalog.calls", "catalog.build_catalog.self_s",
    "suites.run_suite.self_s",
    *(f"suites.{name}.s" for name in workloads.SUITES),
    "oracles.calls", "oracles.self_s",
    "algebra.stabilized_term_images.self_s",
    "trace.overhead_ratio",
)


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".self_s", ".s")):
        return "s"
    return "count"


def setup(workload: str, seed: int, pass_index: int, workdir: Path) -> tuple[float, list]:
    """Import the program afresh, then generate and write one pass's inputs.
    The fresh import also starts every pass cold: whatever module-level state
    or cache the program keeps is new, as in a fresh process."""
    for name in [n for n in sys.modules if n == "finalg" or n.startswith("finalg.")]:
        del sys.modules[name]
    # typing caches parameterised aliases such as Union[Var, App], and through
    # them every earlier import of finalg with all it still holds.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("finalg.cli")
    ops = workloads.build(workload, seed, pass_index, workdir)
    return time.perf_counter() - start, ops


def calibration() -> float:
    start = time.perf_counter()
    checks.ref_semicongruence(CALIBRATION_SPEC, [(1, 0)])
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two calibrations, scaled to the reference
    speed. On a shared machine the same op runs up to 50% slower in spells of
    seconds to minutes, longer than a run; the calibration slows with it, so
    the scaled time stays put while the program's own cost does not change."""
    return seconds * 2 * CALIBRATION_REF_S / (before + after)


def run_pass(ops, tracer: Tracer | None = None, first_op: int = 0):
    """Run ops back to back, with a calibration between consecutive ops.
    Returns [(op, exit code, stdout, seconds)] and each op's latency at the
    reference speed."""
    cli = sys.modules["finalg.cli"]
    results, scaled = [], []
    before = calibration()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = "exception: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        after = calibration()
        results.append((op, rc, out.getvalue(), elapsed))
        scaled.append(at_reference_speed(elapsed, before, after))
        before = after
    return results, scaled


def check_results(results, expected: dict, recorded: dict) -> list[str]:
    """Reasons for every failed op; `results` holds (pass index, op index, result)."""
    failures = []
    for p, i, (op, rc, stdout, _) in results:
        digests = recorded.get(str(p))
        verdict = checks.check(op, rc, stdout, expected, digests[i] if digests else None)
        if verdict is not None:
            failures.append(f"pass {p} op {i} {' '.join(op.argv[:1])}: {verdict}")
    return failures


def quantile_ms(samples, q: int) -> float:
    """q-th percentile, interpolated between samples, in milliseconds."""
    if len(samples) < 2:
        return samples[0] * 1000
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def run(args, workdir: Path) -> int:
    expected = checks.load_expected()
    recorded = {}
    if args.workload == "cli-cold":
        recorded = expected["cli-cold-digests"].get(str(args.seed), {})
    passes = pass_count(args.workload, args.seconds)
    uncovered = [p for p in range(passes) if recorded and str(p) not in recorded]
    if uncovered:
        print(f"note: seed {args.seed} has recorded digests for passes "
              f"{', '.join(sorted(recorded, key=int))} only; passes "
              f"{', '.join(map(str, uncovered))} are checked without them", file=sys.stderr)
    setup_times = []

    # With --trace 1 every untraced pass is followed by a traced one, so both
    # sample the same spells of the machine and trace.overhead_ratio compares
    # like with like.
    tracer = Tracer() if args.trace else None
    results, walls, raw_walls, latencies, traced_walls = [], [], [], [], []
    traced_latencies: dict[int, float] = {}
    for p in range(passes):
        before = calibration()
        elapsed, ops = setup(args.workload, args.seed, p, workdir)
        setup_times.append(at_reference_speed(elapsed, before, calibration()))
        done, scaled = run_pass(ops)
        walls.append(sum(scaled))
        raw_walls.append(sum(r[3] for r in done))
        latencies.append(scaled)
        results += [(p, i, r) for i, r in enumerate(done)]
        if tracer is not None:
            _, ops = setup(args.workload, args.seed, passes + p, workdir)
            with tracer:
                done, scaled = run_pass(ops, tracer, first_op=len(results))
            tracer.end_pass()
            traced_walls.append(sum(scaled))
            traced_latencies.update((len(results) + i, r[3]) for i, r in enumerate(done))
            results += [(passes + p, i, r) for i, r in enumerate(done)]
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    # Op i of every pass is the same request, or for cli-cold the same slot of
    # the fixed mix; its median over the passes discards a sample that the
    # speed probes around it misjudged.
    op_medians = [statistics.median(times) for times in zip(*latencies)]

    failures = check_results(results, expected, recorded)
    attempted, failed = len(results), len(failures)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    per_pass = len(results) // (len(walls) + len(traced_walls))
    print(f"workload {args.workload} seed {args.seed}: {passes} pass(es) of {per_pass} ops"
          f"{' untraced + traced' if args.trace else ''}; attempted {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted:.4f}")

    correct = failed == 0
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(op_medians),
            "op_p50_ms": statistics.median(op_medians) * 1000,
            "op_p95_ms": quantile_ms(op_medians, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        beyond = sum(1 for x in op_medians if x * 1000 > metrics["op_p95_ms"])
        samples = f"{len(op_medians)} ops, each the median of {passes} pass(es)"
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "wall_s": f"sum over {samples}; measured pass times "
                      f"{', '.join(f'{w:.3f}' for w in raw_walls)} s, scaled by "
                      f"{statistics.median(walls) / statistics.median(raw_walls):.2f} "
                      "to the reference speed",
            "op_p50_ms": samples,
            "op_p95_ms": f"{samples}, {beyond} beyond",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        units = END_TO_END
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update((k, v) for k, v in tracer.layer_metrics(passes).items() if k in metrics)
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        gaps = tracer.op_gaps(traced_latencies)
        # The span tree must account for each op's measured latency, up to the
        # output redirection and the root wrapper around `cli.main`.
        untraced = [op for op, gap in gaps.items()
                    if not -1e-9 <= gap <= GAP_TOLERANCE_S + GAP_TOLERANCE * traced_latencies[op]]
        correct = correct and not untraced
        for op in untraced[:10]:
            print(f"FAILED traced op {op}: latency {traced_latencies[op]:.6f} s, "
                  f"spans cover all but {gaps[op]:.6f} s", file=sys.stderr)
        print(f"trace: {len(tracer.spans)} spans over {len(traced_walls)} traced pass(es); "
              f"latency not covered by spans: largest {max(gaps.values()):.3g} s, "
              f"{len(untraced)} op(s) beyond tolerance; metrics are per pass")
        notes = {}
        units = {name: layer_unit(name) for name in PER_LAYER}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "finalg" / "cli.py").is_file():
        print(f"error: no finalg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The inputs stay between runs, so that later runs rewrite the files of
    # earlier ones in place instead of creating them (see write_spec).
    return run(args, OUT / "inputs" / args.workload)


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout at the commit whose outputs are the
reference. Writes perfbench/expected/:
- suites.json: exit code and stdout of `verify --suite S` for every suite;
- shapes.json: canonical-labelling outputs of the cli-cold catalog-shape
  slots, and for each rank-sweep shape and mode the rank and the `--fixpoint`
  chain of every subset that attains it;
- cli-cold-digests.json: for seeds DIGEST_SEEDS and every untraced pass of a
  run of BENCHMARK.json's run_seconds, a digest of every cli-cold op's exit
  code and stdout.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import OUT, ROOT, SRC, pass_count, run_pass, setup

DIGEST_SEEDS = range(0, 11)


def _run(argv) -> tuple[object, str]:
    (_, rc, stdout, _), = run_pass([workloads.Op(tuple(argv), "record")])[0]
    return rc, stdout


def record_suites() -> dict:
    out = {}
    for name in workloads.SUITES:
        rc, stdout = _run(["verify", "--suite", name])
        out[name] = {"exit": rc, "stdout": stdout}
    return out


def record_rank(path: str, n: int, mode: str) -> dict:
    chains, steps = {}, {}
    for mask in checks.subsets_in_order(n):
        members = [x for x in range(n) if mask >> x & 1]
        rc, stdout = _run([mode, path, "--fixpoint", "--set", workloads.set_arg(members)])
        assert rc == 0, stdout
        chain = stdout.splitlines()[1]
        chains[mask] = chain
        steps[mask] = chain.count(" ⊂ ")
    rank = max(steps.values())
    record = {"rank": rank, "attain": {str(m): c for m, c in chains.items() if steps[m] == rank}}
    rc, stdout = _run(["rank", path, "--mode", mode])
    if rc != 0 or stdout != checks.expected_rank_output(record, n, tuple(range(n))):
        raise SystemExit(f"rank output of {path} --mode {mode} disagrees with its chains")
    return record


def record_shapes(workdir: Path) -> dict:
    cli = []
    for key, cmd, canon in workloads.CLI_SHAPE_SLOTS:
        path = workloads.write_spec(workdir, f"{key}.alg", workloads.shape(key))
        argv = (workloads.COMMANDS[cmd][0], path) + workloads.COMMANDS[cmd][1:]
        rc, stdout = _run(argv + ("--set", workloads.set_arg(canon)))
        assert rc == 0, stdout
        cli.append({"shape": key, "cmd": cmd, "set": list(canon), "stdout": stdout})
    rank = {}
    for key in workloads.RANK_SHAPES:
        spec = workloads.shape(key)
        path = workloads.write_spec(workdir, f"{key}.alg", spec)
        rank[key] = {mode: record_rank(path, spec.size, mode) for mode in ("ind", "ded")}
    return {"cli": cli, "rank": rank}


def record_digests(seeds, passes: int, workdir: Path) -> dict:
    out = {}
    for seed in seeds:
        out[str(seed)] = {}
        for p in range(passes):
            _, ops = setup("cli-cold", seed, p, workdir)
            done, _ = run_pass(ops)
            out[str(seed)][str(p)] = [checks.digest(rc, stdout) for _, rc, stdout, _ in done]
            print(f"digests: seed {seed} pass {p}", file=sys.stderr)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    passes = pass_count("cli-cold", spec["run_seconds"])
    sys.path.insert(0, str(SRC))
    import finalg.cli  # noqa: F401  (run_pass looks the module up)

    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        data = {
            "suites": record_suites(),
            "shapes": record_shapes(workdir),
            "cli-cold-digests": record_digests(DIGEST_SEEDS, passes, workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, value in data.items():
        with open(checks.EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(value, fh, indent=1, ensure_ascii=False, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

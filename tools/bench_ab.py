#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark between two git revs.

    python3 tools/bench_ab.py --base HEAD~1 --head HEAD --pairs 10

Run from the repository root. Each rev is extracted with `git archive`
into its own directory under --workdir (a new temporary directory by
default, outside the repository), and the benchmark command named in
BENCHMARK.json (`perfbench/run.py`) builds and runs there, so both sides
use their own benchmark code with identical settings: every workload in
BENCHMARK.json, run for its run_seconds. Pair i (from 1) uses seed i and
runs base then head for odd i, head then base for even i.

For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles, the median of the per-pair head/base ratios,
the pairs head won (ties count for neither), the base's relative spread
(interquartile range over median) and a verdict against the metric's
bound:

  worse       the median ratio is worse than the bound allows;
  unresolved  either side's spread is wider than the bound, so the ratio
              cannot be told from noise, unless every head run reads
              better than every base run;
  within      otherwise.

It also prints each side's share of failed operations. The benchmark
files are only read. --json writes every run's metrics for later study.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.getcwd()


def extract(rev, dest):
    """Writes the tree of `rev` into `dest` (a fresh directory)."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_bench(tree, command, workload, seed, seconds, cpus):
    """One benchmark run in `tree`; returns its result JSON (last stdout line)."""
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)]
    if cpus:
        cmd = ["taskset", "-c", cpus] + cmd
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} failed in {tree} (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, base, head):
    """Compares head against base for one end-to-end metric."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    ratios = [h / b for b, h in zip(base, head) if b != 0]
    ratio = statistics.median(ratios) if ratios else float("nan")
    won = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    base_spread = (bq3 - bq1) / bmed if bmed else 0.0
    head_spread = (hq3 - hq1) / hmed if hmed else 0.0
    worse = ratio < 1 - bound if higher else ratio > 1 + bound
    all_better = (min(head) > max(base)) if higher else (max(head) < min(base))
    if worse:
        call = "worse"
    elif max(base_spread, head_spread) > bound and not all_better:
        call = "unresolved"
    else:
        call = "within"
    return {"base": (bq1, bmed, bq3), "head": (hq1, hmed, hq3), "ratio": ratio,
            "won": won, "pairs": len(ratios), "base_spread": base_spread, "verdict": call}


def failed_share(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the reference rev (the parent)")
    parser.add_argument("--head", required=True, help="the rev under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cpus", help="run every benchmark under taskset -c CPUS")
    parser.add_argument("--workdir",
                        help="where the two trees go and stay (default: a temp dir, removed)")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    command = spec["command"]

    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-ab-")
    trees = {"base": os.path.join(workdir, "base"), "head": os.path.join(workdir, "head")}
    for side, rev in (("base", args.base), ("head", args.head)):
        if os.path.exists(trees[side]):
            shutil.rmtree(trees[side])
        extract(rev, trees[side])
        # The first run builds the tree; it is not measured.
        print(f"building {side} ({rev}) in {trees[side]}", file=sys.stderr)
        run_bench(trees[side], command, workloads[0], 0, 0.5, args.cpus)

    runs = {w: {"base": [], "head": []} for w in workloads}
    try:
        for w in workloads:
            for seed in range(1, args.pairs + 1):
                order = ("base", "head") if seed % 2 == 1 else ("head", "base")
                for side in order:
                    runs[w][side].append(
                        run_bench(trees[side], command, w, seed, seconds, args.cpus))
                print(f"{w} pair {seed}/{args.pairs} done", file=sys.stderr)
    finally:
        if args.json:
            with open(args.json, "w") as f:
                json.dump({"base": args.base, "head": args.head, "seconds": seconds,
                           "cpus": args.cpus, "runs": runs}, f, indent=1)
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"base {args.base} vs head {args.head}: {args.pairs} interleaved pairs of "
          f"{seconds:g}-s runs per workload" + (f", taskset -c {args.cpus}" if args.cpus else ""))
    header = (f"{'workload':<10} {'metric':<15} {'base q1/med/q3':>26} {'head q1/med/q3':>26} "
              f"{'ratio':>6} {'won':>5} {'base iqr':>8} {'bound':>5}  verdict")
    print(header)
    print("-" * len(header))
    worst = "within"
    for w in workloads:
        for m in spec["end_to_end"]:
            base = [r["metrics"][m["name"]]["value"] for r in runs[w]["base"]]
            head = [r["metrics"][m["name"]]["value"] for r in runs[w]["head"]]
            v = verdict(m, base, head)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:<10} {m['name']:<15} {fmt(v['base']):>26} {fmt(v['head']):>26} "
                  f"{v['ratio']:>6.3f} {v['won']:>2}/{v['pairs']:<2} {v['base_spread']:>8.3f} "
                  f"{m['bound']:>5}  {v['verdict']}")
            if v["verdict"] == "worse" or (v["verdict"] == "unresolved" and worst == "within"):
                worst = v["verdict"]
        bad = [r for side in ("base", "head") for r in runs[w][side] if not r.get("correct")]
        print(f"{w:<10} failed share: base {failed_share(runs[w]['base']):.4f}, head "
              f"{failed_share(runs[w]['head']):.4f}; incorrect runs: {len(bad)}")
    print(f"overall: {worst}")
    return 1 if worst == "worse" else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired benchmark runs: a reference revision against the working tree.

Run from the repository root:

    python3 bench/perf_pair.py --ref HEAD~1 --workload mc-replay mc-sym --pairs 10

(or `make perf-pair REF=HEAD~1 W="mc-replay mc-sym" PAIRS=10`). The
workload `all` stands for every workload BENCHMARK.json declares, in its
order (the Makefile's default). It checks
out REF in one temporary git worktree (under $TMPDIR, /tmp by default;
removed afterwards) and, for each workload in turn, runs perfbench/run.py
alternately in the two trees at BENCHMARK.json's run_seconds, swapping
which tree runs first in every other pair, so slow drifts of the host
load hit both sides alike. The metrics come from the result line of each
run.

It prints every pair and, per workload, one verdict block: for each
end-to-end metric BENCHMARK.json declares, each side's median and IQR (interquartile range, linear
interpolation between closest ranks, as perfbench/measure.ml computes
percentiles), the change/reference ratio of the medians and the number
of pairs the change won. The verdict, in order:
  "unresolved"  the reference's IQR, relative to its median, is wider
                than the metric's bound (a relative bound: 0.25 allows
                25% worse) and not every change run is better than
                every reference run;
  "no gain"     the medians differ by less than the reference's IQR;
  "gain"        the change is better and won at least 9 of 10 pairs;
  "better, not a gain"  better by more than the IQR, too few wins;
  otherwise how much worse the change is against the metric's bound,
  and "regression" beyond it.
A last line names every workload and metric judged "regression", or says
there is none. It exits non-zero when a run fails or reports
"correct": false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile


def percentile(values, p):
    a = sorted(values)
    r = min(1.0, max(0.0, p / 100.0)) * (len(a) - 1)
    lo = int(r)
    hi = min(len(a) - 1, lo + 1)
    return a[lo] + (r - lo) * (a[hi] - a[lo])


def summary(values):
    return percentile(values, 50), percentile(values, 75) - percentile(values, 25)


def benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(tree, workload, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perf-pair: run failed in %s (exit %d)" % (tree, proc.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit("perf-pair: run in %s failed its correctness gate: %s"
                 % (tree, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(name, lower, bound, ref, change):
    ref_med, ref_iqr = summary(ref)
    ch_med, ch_iqr = summary(change)
    wins = sum(1 for r, c in zip(ref, change) if (c < r if lower else c > r))
    better = ch_med < ref_med if lower else ch_med > ref_med
    separated = (max(change) < min(ref)) if lower else (min(change) > max(ref))
    worse_by = abs(ch_med - ref_med) / ref_med if ref_med else 0.0
    if ref_med and ref_iqr / ref_med > bound and not separated:
        verdict = "unresolved (reference IQR %.1f%% of its median, bound %g%%)" % (
            100 * ref_iqr / ref_med, 100 * bound)
    elif abs(ch_med - ref_med) < ref_iqr:
        verdict = "no gain"
    elif better and wins >= 0.9 * len(ref):
        verdict = "gain"
    elif better:
        verdict = "better, not a gain (won %d of %d, 9 of 10 needed)" % (
            wins, len(ref))
    elif worse_by > bound:
        verdict = "regression (worse by %.1f%%, bound %g%%)" % (
            100 * worse_by, 100 * bound)
    else:
        verdict = "worse by %.1f%%, within the %g%% bound" % (
            100 * worse_by, 100 * bound)
    ratio = "%.3f" % (ch_med / ref_med) if ref_med else "n/a"
    print("  %-12s ref median %.6g IQR %.6g | change median %.6g IQR %.6g"
          " | ratio %s, won %d of %d (%s is better): %s"
          % (name, ref_med, ref_iqr, ch_med, ch_iqr, ratio, wins, len(ref),
             "lower" if lower else "higher", verdict))
    return verdict


def pairs(ref_tree, workload, metrics, seconds, count):
    runs = {"ref": [], "change": []}
    for i in range(count):
        order = [("ref", ref_tree), ("change", ".")]
        if i % 2 == 1:
            order.reverse()
        for side, tree in order:
            runs[side].append(run_once(tree, workload, seconds))
        print("%s pair %2d (%s first): %s" % (workload, i + 1, order[0][0], "  ".join(
            "%s ref %.6g change %.6g" % (m["name"], runs["ref"][-1][m["name"]],
                                         runs["change"][-1][m["name"]])
            for m in metrics)), flush=True)
    return runs


def main():
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("perf-pair: run from the repository root")
    bench = benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", required=True, help="reference revision")
    ap.add_argument("--workload", required=True, nargs="+",
                    help="one or more workloads, measured in turn;"
                    " all = every workload in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    declared = [w["name"] for w in bench["workloads"]]
    workloads = []
    for w in args.workload:
        workloads.extend(declared if w == "all" else [w])
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    tmp = tempfile.mkdtemp(prefix="perf-pair-")
    ref_tree = os.path.join(tmp, "ref")
    subprocess.run(["git", "worktree", "add", "--detach", ref_tree, args.ref],
                   check=True, stdout=subprocess.DEVNULL)
    regressions = []
    try:
        for workload in workloads:
            runs = pairs(ref_tree, workload, metrics, seconds, args.pairs)
            print("%s vs working tree on %s, %d pairs of %gs runs"
                  % (args.ref, workload, args.pairs, seconds))
            for m in metrics:
                name = m["name"]
                verdict = report(name, m["better"] == "lower", m["bound"],
                                 [r[name] for r in runs["ref"]],
                                 [r[name] for r in runs["change"]])
                if verdict.startswith("regression"):
                    regressions.append("%s %s" % (workload, name))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", ref_tree])
        shutil.rmtree(tmp, ignore_errors=True)
    print("regressions: %s" % (", ".join(regressions) if regressions else "none"))


if __name__ == "__main__":
    main()

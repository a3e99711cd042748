#!/usr/bin/env python3
"""Compare two revisions on benchmark workloads in alternating pairs of runs.

    python3 scripts/bench_pairs.py REV_A REV_B --workload W[,W2...]|all --pairs N \\
        --seconds S [--seeds 1,2,4099]

Each revision is exported once with ``git archive`` into its own directory
and ``bench/run.py`` runs from that copy, so both sides build from
committed files only.  ``--workload`` names one workload, a comma list,
or ``all`` for every workload in REV_A's ``BENCHMARK.json``; the
workloads run one after the other, each with its own pairs.  Pair i runs
seed i+1 (or the i-th of ``--seeds``) on both sides; even pairs run
REV_A first, odd pairs REV_B first, so a slow stretch of the host does
not always fall on the same side.  The script prints each run as it
finishes, then per workload and end-to-end metric the median and
quartiles of each side and how many pairs each side won (the metric's
better direction comes from REV_A's ``BENCHMARK.json``), and one line
per metric saying whether the gain rule holds: REV_B wins at least nine
tenths of the pairs and its median is better than REV_A's by more than
REV_A's interquartile range.  A metric that carries a ``bound`` in
REV_A's ``BENCHMARK.json`` gets one more line, saying whether REV_B's
median is worse than REV_A's by more than that bound (a fraction of
REV_A's median), the rule that refuses a change.  Runs that report
``correct: false`` or failed trials are flagged, and once every
workload has run the script exits 1.  Run it from inside the
repository; it takes about 2 x N x S seconds per workload plus the
checks.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def summarize(pairs, better, bounds=None):
    """Per metric: each side's (q1, median, q3) and how many pairs each side won.

    ``pairs`` is a list of (metrics of A, metrics of B), each a dict of
    metric name to value; ``better`` maps a metric name to "higher" or
    "lower", and ``bounds`` (optional) maps a metric name to its bound.
    Returns {metric: {"a": (q1, med, q3), "b": (q1, med, q3),
    "a_wins": int, "b_wins": int, "ties": int, "pairs": int, "gain": bool}},
    where "gain" says whether B's gain over A meets the rule: B wins at
    least 9/10 of the pairs, and B's median is better than A's by more
    than A's interquartile range.  A metric with a bound also gets
    "bound", "worse" (how much B's median is worse than A's, as a
    fraction of A's median; negative when B is better) and "over_bound"
    (B's median is worse than A's by more than the bound).
    """
    bounds = bounds or {}
    out = {}
    for name, direction in better.items():
        a = np.array([pa[name] for pa, _ in pairs], dtype=float)
        b = np.array([pb[name] for _, pb in pairs], dtype=float)
        sign = 1.0 if direction == "higher" else -1.0
        qa = tuple(np.percentile(a, [25, 50, 75]))
        qb = tuple(np.percentile(b, [25, 50, 75]))
        b_wins = int(np.sum(sign * (b - a) > 0))
        out[name] = {
            "a": qa,
            "b": qb,
            "a_wins": int(np.sum(sign * (a - b) > 0)),
            "b_wins": b_wins,
            "ties": int(np.sum(a == b)),
            "pairs": len(pairs),
            "gain": bool(10 * b_wins >= 9 * len(pairs) and sign * (qb[1] - qa[1]) > qa[2] - qa[0]),
        }
        if name in bounds:
            worse = sign * (qa[1] - qb[1])
            out[name].update(
                bound=bounds[name],
                worse=worse / abs(qa[1]),
                over_bound=bool(worse > bounds[name] * abs(qa[1])),
            )
    return out


def format_summary(summary, rev_a, rev_b):
    lines = [f"{'metric':<14} {'side':<12} {'median':>12} {'q1':>12} {'q3':>12} {'wins':>5}"]
    for name, s in summary.items():
        for rev, key, wins in ((rev_a, "a", s["a_wins"]), (rev_b, "b", s["b_wins"])):
            q1, med, q3 = s[key]
            lines.append(f"{name:<14} {rev[:12]:<12} {med:12.6g} {q1:12.6g} {q3:12.6g} {wins:5d}")
        if s["ties"]:
            lines.append(f"{name:<14} ties: {s['ties']}")
    for name, s in summary.items():
        q1, med_a, q3 = s["a"]
        verdict = "holds" if s["gain"] else "does not hold"
        lines.append(
            f"{name}: gain rule {verdict} for {rev_b[:12]}: won {s['b_wins']}/{s['pairs']} pairs "
            f"(needs 9/10), median {s['b'][1] - med_a:+.6g} against IQR {q3 - q1:.6g}"
        )
    for name, s in summary.items():
        if "bound" in s:
            verdict = "worse than the bound" if s["over_bound"] else "within the bound"
            side = "worse" if s["worse"] > 0 else "better"
            lines.append(
                f"{name}: {rev_b[:12]} median {verdict}: {side} by {abs(s['worse']):.1%} "
                f"of {rev_a[:12]}'s median, bound {s['bound']:.0%}"
            )
    return "\n".join(lines)


def _export(rev, dest):
    """Write the tree of ``rev`` to ``dest`` with git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(root, workload, seed, seconds):
    """One benchmark run from checkout ``root``; returns its result object."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench/run.py in {root} printed nothing: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload", required=True, help="name, comma list, or all")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seeds", default=None, help="comma list, one seed per pair")
    args = p.parse_args(argv)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.pairs + 1)))
    if args.pairs < 1 or len(seeds) != args.pairs:
        p.error("--pairs must be >= 1 and match the number of --seeds")

    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        roots = {"a": work / "a", "b": work / "b"}
        _export(args.rev_a, roots["a"])
        _export(args.rev_b, roots["b"])
        spec = json.loads((roots["a"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
        workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                     else args.workload.split(","))
        revs = {"a": args.rev_a, "b": args.rev_b}
        failed = 0
        for workload in workloads:
            print(f"== {workload}", flush=True)
            pairs = []
            for i, seed in enumerate(seeds):
                got = {}
                for side in ("ab" if i % 2 == 0 else "ba"):
                    res = _run(roots[side], workload, seed, args.seconds)
                    got[side] = {k: v["value"] for k, v in res["metrics"].items()}
                    ok = res["correct"] and not res["failed"]
                    failed += not ok
                    flag = "" if ok else "  CHECK FAILED"
                    print(f"{workload} pair {i} seed {seed} {revs[side]}: "
                          + ", ".join(f"{k} {v:.6g}" for k, v in got[side].items()) + flag,
                          flush=True)
                pairs.append((got["a"], got["b"]))
            print(format_summary(summarize(pairs, better, bounds), args.rev_a, args.rev_b),
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed:
        print(f"{failed} of {2 * len(seeds) * len(workloads)} runs failed their checks",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

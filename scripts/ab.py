#!/usr/bin/env python3
"""Paired A/B comparison of kbench runs: a base revision against a change.

Builds kbench twice -- once from a clean export of the base revision
(`git archive`, so the repository gains no worktree entries) and once
from the change (the working tree by default, or another revision) --
each with its own target directory under the work directory. It then
alternates base and change runs over a seed list, one pair per seed,
flipping which side runs first on every other pair so that host drift
within a pair does not favour one side.

For every metric in kbench's JSON line it prints the median of each
side, the median of the per-pair change/base ratios, the base side's
interquartile range, and how many pairs the change won. "Won" follows
the metric's `better` direction in BENCHMARK.json, and ties count for
neither side. Each metric also gets a verdict: `gain` when the change
wins at least nine tenths of the pairs and its median is better than
the base median by more than the base IQR (the distance between the
base runs' quartiles), `worse` for the mirror case (the base wins nine
tenths and the change median is worse by more than the base IQR), and
`unresolved` otherwise. Every run's
`correct` and `failed` fields are checked; the script exits 1 if any
run is incorrect or failed operations.

Examples:

    # the working tree against HEAD, ring-churn, 8 pairs of 20 s
    scripts/ab.py --workload ring-churn --seeds 4000-4007 --seconds 20

    # two commits, with the per-layer metrics of --trace 1
    scripts/ab.py --base b60aa62 --change d6708bc --workload serve \\
        --seeds 4000-4009 --seconds 20 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def export(rev, dest):
    """Writes the tree of `rev` into `dest` and returns `dest`."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def build(src, target):
    """Builds kbench from the checkout at `src` and returns the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        [
            "cargo", "build", "--release", "--quiet", "--offline",
            "--manifest-path", os.path.join(src, "kbench", "Cargo.toml"),
        ],
        check=True,
        env=env,
    )
    return os.path.join(target, "release", "kbench")


def run(binary, args, seed):
    out = subprocess.run(
        [binary, *args, "--seed", str(seed)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def declared_metrics():
    """Metric name -> its BENCHMARK.json entry (`better`, `unit`, ...)."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(base, change, higher):
    """'gain', 'worse' or 'unresolved' for one metric's paired runs."""
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
    q1, q3 = quartiles(base)
    # Positive when the change's median is better.
    delta = statistics.median(change) - statistics.median(base)
    if not higher:
        delta = -delta
    need = 0.9 * len(base)
    if wins >= need and delta > q3 - q1:
        return "gain"
    if losses >= need and -delta > q3 - q1:
        return "worse"
    return "unresolved"


def summarize(pairs, declared):
    names = [n for n in pairs[0][0]["metrics"] if n in pairs[0][1]["metrics"]]
    rows = []
    for name in names:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        ratios = [c / b for b, c in zip(base, change) if b]
        meta = declared.get(name, {})
        higher = meta.get("better", "lower") == "higher"
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        q1, q3 = quartiles(base)
        rows.append({
            "metric": name,
            "better": "higher" if higher else "lower",
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "median_ratio": statistics.median(ratios) if ratios else None,
            "base_q1": q1,
            "base_q3": q3,
            "wins": wins,
            "pairs": len(pairs),
            "verdict": verdict(base, change, higher),
        })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--change", default=None,
                    help="change revision (default: the working tree)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="4000-4007", help="e.g. 4000-4007 or 1,5,9")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workdir", default=None,
                    help="where the exports and builds go (default: a new temp dir)")
    ap.add_argument("--json", default=None, help="also write every run here")
    opts = ap.parse_args()

    work = opts.workdir or tempfile.mkdtemp(prefix="kbench-ab-")
    os.makedirs(work, exist_ok=True)
    print(f"work dir: {work}", file=sys.stderr)
    base_bin = build(export(opts.base, os.path.join(work, "base")),
                     os.path.join(work, "base-target"))
    change_src = (export(opts.change, os.path.join(work, "change"))
                  if opts.change else REPO)
    change_bin = build(change_src, os.path.join(work, "change-target"))

    args = ["--workload", opts.workload, "--seconds", str(opts.seconds),
            "--trace", str(opts.trace)]
    pairs = []
    bad = []
    for i, seed in enumerate(parse_seeds(opts.seeds)):
        order = [("base", base_bin), ("change", change_bin)]
        if i % 2:
            order.reverse()
        got = {side: run(binary, args, seed) for side, binary in order}
        for side, r in got.items():
            if not r.get("correct") or r.get("failed", 0) != 0:
                bad.append((side, seed, r.get("correct"), r.get("failed")))
        pairs.append((got["base"], got["change"]))
        b, c = got["base"]["metrics"], got["change"]["metrics"]
        first = next(iter(b))
        print(f"seed {seed}: {first} base {b[first]['value']:.4g} "
              f"change {c[first]['value']:.4g}", file=sys.stderr)

    rows = summarize(pairs, declared_metrics())
    print(f"{opts.workload}: {opts.base} -> {opts.change or 'working tree'}, "
          f"{len(pairs)} pairs of {opts.seconds} s, trace {opts.trace}")
    print(f"{'metric':<22} {'better':<6} {'base':>12} {'change':>12} "
          f"{'ratio':>7} {'base IQR':>25} {'wins':>6}  verdict")
    for r in rows:
        ratio = f"{r['median_ratio']:.3f}" if r["median_ratio"] is not None else "-"
        iqr = f"[{r['base_q1']:.4g}, {r['base_q3']:.4g}]"
        print(f"{r['metric']:<22} {r['better']:<6} {r['base_median']:>12.4g} "
              f"{r['change_median']:>12.4g} {ratio:>7} {iqr:>25} "
              f"{r['wins']:>3}/{r['pairs']}  {r['verdict']}")
    print(f"correct and 0 failed in every run: {'yes' if not bad else 'NO'}")
    for side, seed, correct, failed in bad:
        print(f"  {side} seed {seed}: correct={correct} failed={failed}")
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump({"pairs": [{"base": b, "change": c} for b, c in pairs],
                       "summary": rows}, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

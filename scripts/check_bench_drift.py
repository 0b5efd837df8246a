#!/usr/bin/env python3
"""Bench drift gate for the netstack and storage reports.

The mode is auto-detected from the baseline report:

* a report with a top-level "soak" key is a netstack report
  (BENCH_net.json) and is gated on clean-link single-stream throughput;
* a report with a top-level "hot_swap" key is a storage report
  (BENCH_storage.json) and is gated on the live hot-swap sweep.

Netstack mode compares a freshly generated BENCH_net.json against the
committed baseline and fails (exit 1) when the clean-link single-stream
throughput of either generation regresses by more than the tolerance
(default 10%).  Wall-clock throughput is the only nondeterministic field
in that report, so the gate also cross-checks the deterministic shape of
the run: the clean rows must complete, move the same byte count, and
take the same number of rounds as the baseline — a rounds blow-up is a
protocol regression (e.g. a broken congestion window) even when raw MB/s
happens to pass on a fast runner.

The clean soak finishes in well under a millisecond of wall time, so a
single sample is noisy; pass several fresh reports (CI generates three)
and the gate compares the best sample per generation against the floor.
Deterministic fields are checked on every sample.

Storage mode gates the hot_swap section of BENCH_storage.json:

* every fresh per-thread row must report failed_ops == 0 — the swap
  contract is zero failed operations under load, not "few";
* the deterministic shape must match the baseline row for the same
  thread count: swaps performed, files copied across the handoff, and
  dentries remapped (the workload tree is seeded from the pinned engine
  seed, so these are exact);
* the engine seed stamped into the section must match the baseline —
  a silent reseed would make the comparison meaningless;
* blackout_us_max may not exceed baseline * multiplier (the tolerance
  argument, default 10x in this mode).  Blackout is a single-shot wall
  measurement on a shared runner, so the bound is deliberately loose:
  it only catches order-of-magnitude regressions such as the swap
  draining through a sleep loop.  Best sample per thread count wins.

Storage mode also gates the ring_throughput reactors x depth sweep when
the baseline carries it: every fresh row (per-call and ring) must report
failed_ops == 0, so no row times a run whose replies or end state were
wrong; the best ring row may not regress more than 10%
below the committed best, no row's p99 may double, and the best
multi-reactor row must structurally beat both the single-reactor
depth-1024 row and the per-call path in every fresh report.  Fresh
reports generated with `bench_report --ring-only` carry only this
section; the hot-swap checks are skipped for them.

Storage mode also gates the crash_consistency section exactly, since
the crash enumeration is deterministic (a fixed schedule on a fixed
device, exploded into every image each policy allows): every enumeration
row's barrier_intervals, images_checked and recovery_failures, the
disk_faults counters and the journal_abort outcome must equal the
baseline field for field.  Ring-only fresh reports lack the section and
skip this check.

Usage: check_bench_drift.py <baseline.json> <fresh.json>... [tolerance]
"""

import json
import sys


def clean_rows(report):
    rows = {}
    for row in report.get("soak", []):
        if row.get("link") == "clean":
            rows[row["generation"]] = row
    return rows


def check_net(baseline_path, baseline, fresh_runs, tolerance):
    baseline = clean_rows(baseline)
    fresh_runs = [(path, clean_rows(report)) for path, report in fresh_runs]

    failures = []
    for gen in ("legacy", "modular"):
        if gen not in baseline:
            failures.append(f"{gen}: no clean row in baseline {baseline_path}")
            continue
        base = baseline[gen]
        samples = []
        for path, fresh in fresh_runs:
            if gen not in fresh:
                failures.append(f"{gen}: no clean row in fresh {path}")
                continue
            now = fresh[gen]
            if not now.get("completed", False):
                failures.append(f"{gen}: fresh clean run in {path} did not complete")
            for field in ("bytes", "rounds"):
                if now.get(field) != base.get(field):
                    failures.append(
                        f"{gen}: {field} changed {base.get(field)} -> {now.get(field)} "
                        f"in {path} (deterministic field; protocol behaviour drifted)"
                    )
            samples.append(now["throughput_mb_s"])
        if not samples:
            continue
        base_tp, now_tp = base["throughput_mb_s"], max(samples)
        floor = base_tp * (1.0 - tolerance)
        verdict = "OK" if now_tp >= floor else "REGRESSED"
        print(
            f"{gen:8} clean: baseline {base_tp:8.1f} MB/s, "
            f"best of {len(samples)} fresh {now_tp:8.1f} MB/s, "
            f"floor {floor:8.1f} MB/s  {verdict}"
        )
        if now_tp < floor:
            failures.append(
                f"{gen}: clean single-stream throughput {now_tp:.1f} MB/s is more than "
                f"{tolerance:.0%} below the committed baseline {base_tp:.1f} MB/s"
            )
    return failures


def swap_rows(report):
    section = report.get("hot_swap", {})
    return section.get("engine_seed"), {
        row["threads"]: row for row in section.get("per_threads", [])
    }


# Exact across runs: the swap count is fixed by the harness and the
# copied/remapped counts follow from the engine-seeded workload tree.
# ops_completed, blocked_ops, and the blackout timings are wall-clock
# dependent and are deliberately NOT in this list.
SWAP_EXACT_FIELDS = ("swaps", "copied_files", "remapped_dentries")


def check_storage(baseline_path, baseline, fresh_runs, multiplier):
    base_seed, base_rows = swap_rows(baseline)
    if not base_rows:
        return [f"no hot_swap per_threads rows in baseline {baseline_path}"]

    failures = []
    for threads in sorted(base_rows):
        base = base_rows[threads]
        samples = []
        for path, fresh in fresh_runs:
            seed, rows = swap_rows(fresh)
            if seed != base_seed:
                failures.append(
                    f"hot_swap: engine_seed changed {base_seed} -> {seed} in {path}"
                )
                continue
            if threads not in rows:
                failures.append(f"hot_swap[{threads}t]: no fresh row in {path}")
                continue
            now = rows[threads]
            if now.get("failed_ops") != 0:
                failures.append(
                    f"hot_swap[{threads}t]: {now.get('failed_ops')} failed ops in "
                    f"{path} (swap contract is zero failed ops under load)"
                )
            for field in SWAP_EXACT_FIELDS:
                if now.get(field) != base.get(field):
                    failures.append(
                        f"hot_swap[{threads}t]: {field} changed "
                        f"{base.get(field)} -> {now.get(field)} in {path} "
                        f"(deterministic field; handoff behaviour drifted)"
                    )
            samples.append(now["blackout_us_max"])
        if not samples:
            continue
        base_bo, now_bo = base["blackout_us_max"], min(samples)
        ceiling = base_bo * multiplier
        verdict = "OK" if now_bo <= ceiling else "REGRESSED"
        print(
            f"hot_swap {threads}t: baseline blackout {base_bo:9.1f} us, "
            f"best of {len(samples)} fresh {now_bo:9.1f} us, "
            f"ceiling {ceiling:9.1f} us  {verdict}"
        )
        if now_bo > ceiling:
            failures.append(
                f"hot_swap[{threads}t]: blackout {now_bo:.1f} us exceeds "
                f"{multiplier:.0f}x the committed baseline {base_bo:.1f} us"
            )
    return failures


def ring_rows(report):
    """Splits the ring_throughput section into (per_call_row, {(reactors,
    depth): row})."""
    per_call, ring = None, {}
    for row in report.get("ring_throughput", []):
        if row.get("mode") == "per-call":
            per_call = row
        elif row.get("mode") == "ring":
            ring[(row["reactors"], row["depth"])] = row
    return per_call, ring


def check_ring(baseline_path, baseline, fresh_runs, tolerance):
    """Gates the reactors x depth ring sweep:

    * every fresh row, per-call and ring, must report failed_ops == 0:
      the rows time a checked mix, and a row with a failed reply or end
      state measured a broken run;
    * the best ring ops/s row may not regress more than `tolerance`
      below the committed baseline's best row (best fresh sample wins);
    * no (reactors, depth) row's p99 may blow up past 2x its baseline
      (best sample per row wins — p99 on a shared runner is noisy, an
      order-2 blowup is structural: a lost wakeup, a serialized path);
    * the scaling claim itself is enforced structurally on every fresh
      report: the best multi-reactor (reactors >= 2) row must beat both
      the single-reactor depth-1024 row and the per-call baseline row of
      the same report — a revert to effectively-serial execution fails
      here even on a runner fast enough to dodge the regression floor.
    """
    base_per_call, base_ring = ring_rows(baseline)
    if not base_ring:
        return [f"no ring_throughput ring rows in baseline {baseline_path}"]
    fresh_with = [(p, r) for p, r in fresh_runs if r.get("ring_throughput")]
    if not fresh_with:
        print("ring_throughput: no fresh report carries the section, skipped")
        return []

    failures = []
    best_samples = []
    p99_samples = {}
    for path, fresh in fresh_with:
        per_call, ring = ring_rows(fresh)
        if per_call is None or not ring:
            failures.append(f"ring_throughput: incomplete section in {path}")
            continue
        for row in [per_call, *ring.values()]:
            if row.get("failed_ops") != 0:
                failures.append(
                    f"ring_throughput[{row['mode']} {row.get('reactors', '-')}x"
                    f"{row.get('depth', '-')}]: {row.get('failed_ops')} failed ops in "
                    f"{path} (the mix's replies and end state must all check)"
                )
        for key, base_row in base_ring.items():
            if key not in ring:
                failures.append(
                    f"ring_throughput{list(key)}: row missing from {path}"
                )
                continue
            p99_samples.setdefault(key, []).append(ring[key]["p99_us"])
        best_samples.append(max(r["ops_per_sec"] for r in ring.values()))

        multi = {k: r for k, r in ring.items() if k[0] >= 2}
        single_1024 = ring.get((1, 1024))
        if not multi or single_1024 is None:
            failures.append(f"ring_throughput: sweep shape changed in {path}")
            continue
        best_multi = max(r["ops_per_sec"] for r in multi.values())
        if best_multi <= single_1024["ops_per_sec"]:
            failures.append(
                f"ring_throughput: best multi-reactor row {best_multi:.0f} ops/s "
                f"does not beat the single-reactor depth-1024 row "
                f"{single_1024['ops_per_sec']:.0f} ops/s in {path} "
                f"(multi-reactor scaling reverted)"
            )
        if best_multi <= per_call["ops_per_sec"]:
            failures.append(
                f"ring_throughput: best multi-reactor row {best_multi:.0f} ops/s "
                f"does not beat the per-call baseline "
                f"{per_call['ops_per_sec']:.0f} ops/s in {path}"
            )

    if best_samples:
        base_best = max(r["ops_per_sec"] for r in base_ring.values())
        now_best = max(best_samples)
        floor = base_best * (1.0 - tolerance)
        verdict = "OK" if now_best >= floor else "REGRESSED"
        print(
            f"ring_throughput best: baseline {base_best:9.0f} ops/s, "
            f"best of {len(best_samples)} fresh {now_best:9.0f} ops/s, "
            f"floor {floor:9.0f} ops/s  {verdict}"
        )
        if now_best < floor:
            failures.append(
                f"ring_throughput: best row {now_best:.0f} ops/s is more than "
                f"{tolerance:.0%} below the committed baseline {base_best:.0f} ops/s"
            )
    for key, samples in sorted(p99_samples.items()):
        base_p99 = base_ring[key]["p99_us"]
        now_p99 = min(samples)
        ceiling = base_p99 * 2.0
        if now_p99 > ceiling:
            failures.append(
                f"ring_throughput{list(key)}: p99 {now_p99:.0f} us exceeds 2x "
                f"the committed baseline {base_p99:.0f} us"
            )
    return failures


# Exact per (fs, policy) row of the crash enumeration.
CRASH_ROW_FIELDS = ("barrier_intervals", "images_checked", "recovery_failures")


def crash_rows(section):
    return {(row["fs"], row["policy"]): row for row in section.get("enumeration", [])}


def check_crash(baseline_path, baseline, fresh_runs):
    """Gates the crash_consistency section: equal to the baseline."""
    base = baseline.get("crash_consistency")
    if not base:
        return [f"no crash_consistency section in baseline {baseline_path}"]
    fresh_with = [(p, r["crash_consistency"]) for p, r in fresh_runs
                  if "crash_consistency" in r]
    if not fresh_with:
        print("crash_consistency: no fresh report carries the section, skipped")
        return []

    base_rows = crash_rows(base)
    failures = []
    for path, now in fresh_with:
        rows = crash_rows(now)
        if rows.keys() != base_rows.keys():
            failures.append(
                f"crash_consistency: enumeration rows {sorted(rows)} differ from "
                f"the baseline's {sorted(base_rows)} in {path}"
            )
        for key in sorted(base_rows.keys() & rows.keys()):
            for field in CRASH_ROW_FIELDS:
                was, got = base_rows[key].get(field), rows[key].get(field)
                if got != was:
                    failures.append(
                        f"crash_consistency[{key[0]} {key[1]}]: {field} changed "
                        f"{was} -> {got} in {path} (deterministic field)"
                    )
        for section in ("disk_faults", "journal_abort"):
            if now.get(section) != base.get(section):
                failures.append(
                    f"crash_consistency: {section} changed {base.get(section)} -> "
                    f"{now.get(section)} in {path} (deterministic section)"
                )
    print(f"crash_consistency: {len(fresh_with)} fresh report(s) checked "
          f"against {len(base_rows)} baseline rows")
    return failures


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    args = sys.argv[1:]
    try:
        tolerance = float(args[-1])
        args = args[:-1]
    except ValueError:
        tolerance = None
    if len(args) < 2:
        sys.exit(__doc__)
    baseline_path, fresh_paths = args[0], args[1:]

    with open(baseline_path) as f:
        baseline = json.load(f)
    fresh_runs = []
    for path in fresh_paths:
        with open(path) as f:
            fresh_runs.append((path, json.load(f)))

    if "hot_swap" in baseline:
        # A fresh report may be ring-only (bench_report --ring-only); the
        # hot-swap sweep is gated against the subset that carries it.
        swap_runs = [(p, r) for p, r in fresh_runs if "hot_swap" in r]
        if swap_runs:
            failures = check_storage(
                baseline_path, baseline, swap_runs, tolerance if tolerance else 10.0
            )
        else:
            print("hot_swap: no fresh report carries the section, skipped")
            failures = []
        failures += check_crash(baseline_path, baseline, fresh_runs)
        failures += check_ring(baseline_path, baseline, fresh_runs, 0.10)
    elif "soak" in baseline:
        failures = check_net(
            baseline_path, baseline, fresh_runs, tolerance if tolerance else 0.10
        )
    else:
        failures = [f"{baseline_path}: neither a netstack nor a storage report"]

    if failures:
        print("\nbench drift check FAILED:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\nbench drift check passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Reads result sets written by collect.sh (one `<workload>.<seed>.out`
file per run; the last line of each is the benchmark's JSON result).

  python3 perfbench/compare.py spread RESULTS_DIR
      Per workload and end-to-end metric: median, quartiles and the
      quartile spread as a share of the median, against the metric's
      bound in BENCHMARK.json. Also reports runs that failed a check.

  python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR
      Per workload and end-to-end metric: each side's median and
      quartiles, pair wins (runs paired by seed) and a verdict:
      improved, unchanged (within bound), worse, or unresolved (spread
      wider than the bound). Simulated metrics are compared exactly,
      and so are the output digests of each seed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REGISTRY = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
E2E = {m["name"]: m for m in REGISTRY["end_to_end"]}

# Model-derived metrics: deterministic per seed, so any difference is a
# real change of the simulated system, never noise.
SIMULATED = {
    "ladder_fps_gbu_full",
    "ladder_energy_eff_gbu_full",
    "serve_ontime_frac",
    "serve_latency_ms_p50",
    "serve_latency_ms_p99",
}


def load(directory):
    """{workload: {seed: (result, digest_line)}} for one result set."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        workload, seed, _ = name.rsplit(".", 2)
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            sys.exit(f"{name}: empty output")
        digest = next((l for l in lines if l.startswith("digest ")), "")
        runs.setdefault(workload, {})[seed] = (json.loads(lines[-1]), digest)
    if not runs:
        sys.exit(f"{directory}: no <workload>.<seed>.out files")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def health(runs):
    """Runs that failed an output check, as messages."""
    problems = []
    for workload, by_seed in runs.items():
        for seed, (result, _) in by_seed.items():
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return problems


def cmd_spread(directory):
    runs = load(directory)
    worst = 0.0
    for workload, by_seed in sorted(runs.items()):
        print(f"== {workload} ({len(by_seed)} runs)")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, meta in E2E.items():
            values = [r["metrics"][name]["value"] for r, _ in by_seed.values()]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            worst = max(worst, s / meta["bound"])
            flag = "  OVER BOUND" if s > meta["bound"] else ("  > bound/3" if s > meta["bound"] / 3 else "")
            print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {meta['bound']:>6}{flag}")
    for p in health(runs):
        print("PROBLEM", p)
    print(f"worst spread / bound: {worst:.3f}")


def verdict(name, parent, change, pairs):
    meta = E2E[name]
    sign = 1 if meta["better"] == "higher" else -1
    if name in SIMULATED:
        if all(p == c for p, c in pairs):
            return "identical"
        better = sign * (statistics.median(change) - statistics.median(parent)) > 0
        return "changed (better)" if better else "changed (worse)"
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    delta = sign * (cmed - pmed)
    if wins >= 0.9 * len(pairs) and delta > (pq3 - pq1):
        return f"improved ({wins}/{len(pairs)} pair wins)"
    if max(spread(parent), spread(change)) > meta["bound"]:
        if min(sign * v for v in change) > max(sign * v for v in parent):
            return "improved (every change run beats every parent run)"
        return "unresolved (spread wider than bound)"
    if -delta > meta["bound"] * pmed:
        return f"worse ({losses}/{len(pairs)} pair losses)"
    return "unchanged (within bound)"


def cmd_compare(parent_dir, change_dir):
    parent, change = load(parent_dir), load(change_dir)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        print(f"== {workload} ({len(seeds)} paired seeds)")
        print(f"  {'metric':<28} {'parent med [q1,q3]':>34} {'change med [q1,q3]':>34}  verdict")
        for name in E2E:
            p = [parent[workload][s][0]["metrics"][name]["value"] for s in seeds]
            c = [change[workload][s][0]["metrics"][name]["value"] for s in seeds]
            fmt = lambda v: "{1:.5g} [{0:.5g},{2:.5g}]".format(*quartiles(v))
            print(f"  {name:<28} {fmt(p):>34} {fmt(c):>34}  {verdict(name, p, c, list(zip(p, c)))}")
        same = sum(1 for s in seeds if parent[workload][s][1] == change[workload][s][1])
        print(f"  output digests identical for {same}/{len(seeds)} seeds")
        pf = sum(parent[workload][s][0]["failed"] for s in seeds)
        cf = sum(change[workload][s][0]["failed"] for s in seeds)
        print(f"  failed operations: parent {pf}, change {cf}")
    for p in health(parent) + health(change):
        print("PROBLEM", p)


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        cmd_spread(argv[2])
    elif len(argv) == 4 and argv[1] == "compare":
        cmd_compare(argv[2], argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)

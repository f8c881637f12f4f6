#!/usr/bin/env python3
"""Compares two sets of kgq-serve benchmark runs against the bounds.

    python3 kgqbench/compare.py BASE.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds the lines `run.py --record FILE` appends, one per run.
Runs are paired by (workload, seed) when both sides used the same seeds,
otherwise in recorded order. For every workload and end-to-end metric it
prints both sides' median and quartiles and one verdict:

  worse       the change's median is worse than the base's by more than
              the metric's bound;
  better      the change wins at least 9 of every 10 pairs, and the
              medians differ by more than the base's own quartile spread;
  unresolved  either side's quartile spread exceeds the bound, and not
              every change run beats every base run;
  same        none of the above.

Exits 1 when any row is worse, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """workload -> list of (seed, metrics dict) in recorded order."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            prov = rec.get("provenance", {})
            if prov.get("trace"):
                continue  # per-layer runs carry no bounds
            metrics = {k: v["value"]
                       for k, v in rec["result"]["metrics"].items()}
            runs.setdefault(prov.get("workload"), []).append(
                (prov.get("seed"), metrics))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    seeds_b = [s for s, _ in base]
    seeds_c = [s for s, _ in change]
    if sorted(seeds_b) == sorted(seeds_c) and len(set(seeds_b)) == len(seeds_b):
        by_seed = dict(change)
        return [(m, by_seed[s]) for s, m in base]
    return list(zip([m for _, m in base], [m for _, m in change]))


def verdict(metric, base_vals, change_vals, matched):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bq1, bmed, bq3 = quartiles(base_vals)
    cq1, cmed, cq3 = quartiles(change_vals)
    sign = 1.0 if lower else -1.0
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    base_spread = (bq3 - bq1) / bmed if bmed else 0.0
    change_spread = (cq3 - cq1) / cmed if cmed else 0.0

    def beats(c, b):
        return c < b if lower else c > b

    wins = sum(1 for b, c in matched if beats(c, b))
    all_better = all(beats(c, b) for c in change_vals for b in base_vals)
    if worse_by > bound:
        v = "worse"
    elif wins >= 0.9 * len(matched) and -worse_by > base_spread and matched:
        v = "better"
    elif (base_spread > bound or change_spread > bound) and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return v, (bq1, bmed, bq3), (cq1, cmed, cq3), wins, worse_by


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                    "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    base, change = load(args.base), load(args.change)
    any_worse = False
    print(f"{'workload':12s} {'metric':20s} {'base q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'worse_by':>9s} {'wins':>6s} verdict")
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base or name not in change:
            print(f"{name:12s} (missing on one side)")
            continue
        matched_runs = pairs(base[name], change[name])
        for metric in bench["end_to_end"]:
            m = metric["name"]
            bv = [r[m] for _, r in base[name] if m in r]
            cv = [r[m] for _, r in change[name] if m in r]
            if not bv or not cv:
                continue
            matched = [(b[m], c[m]) for b, c in matched_runs
                       if m in b and m in c]
            v, bq, cq, wins, worse_by = verdict(metric, bv, cv, matched)
            any_worse |= v == "worse"
            fmt = "{:10.4g}/{:10.4g}/{:10.4g}"
            print(f"{name:12s} {m:20s} {fmt.format(*bq):>32s} "
                  f"{fmt.format(*cq):>32s} {worse_by:+9.3f} "
                  f"{wins:>2d}/{len(matched):<3d} {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

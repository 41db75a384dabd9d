"""Compare two benchmark result files (JSONL written by run.py --results).

Usage, from the repository root:

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For each workload and end-to-end metric of BENCHMARK.json it prints both
medians and quartiles over the untraced runs, how many seed-matched pairs
the change wins, and a verdict:

- improved: the change wins at least 9 in 10 pairs, the medians differ
  by more than the distance between the base's quartiles, and the change
  fails no larger share of its operations than the base;
- no worse: the change's median is within the metric's bound of the
  base's, and both spreads (quartile distance over median) are within it;
- worse: the median is worse by more than the bound;
- unresolved: a spread is wider than the bound, unless every run of the
  change reads better than every run of the base.

Runs are paired by seed; seeds run on one side only are listed and left
out of the pairs.  It also prints each side's failed ratio and every counter
that differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    """Runs paired by seed."""
    by_seed = {r["seed"]: r for r in base}
    return [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]


def unmatched_seeds(base, change):
    a, b = {r["seed"] for r in base}, {r["seed"] for r in change}
    return sorted(a - b), sorted(b - a)


def failed_ratio(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return (failed / attempted if attempted else 0.0), failed, attempted


def verdict(metric, a, b, matched, fails_more):
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(x, y):
        return x < y if lower else x > y

    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    wins = sum(better(y, x) for x, y in matched)
    worse_by = ((bm - am) if lower else (am - bm)) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    gain = matched and wins >= 0.9 * len(matched) and better(bm, am) and abs(bm - am) > a3 - a1
    if gain and not fails_more:
        text = "improved"
    elif all(better(y, x) for x in a for y in b):
        text = "no worse"
    elif spread > bound:
        text = "unresolved"
    elif worse_by > bound:
        text = "worse"
    else:
        text = "no worse"
    return (a1, am, a3), (b1, bm, b3), wins, text


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def counter_diffs(base, change, count_names):
    """Seed-matched pairs and the exact differences of their engine counters
    and traced call counts."""
    out = []
    matched = []
    for trace in (0, 1):
        a_runs = [r for r in base if r["trace"] == trace]
        b_runs = [r for r in change if r["trace"] == trace]
        matched += pairs(a_runs, b_runs)
    for a, b in matched:
        left = {k: v for k, v in a["metrics"].items() if k in count_names}
        right = {k: v for k, v in b["metrics"].items() if k in count_names}
        left.update(a["counters"])
        right.update(b["counters"])
        for key in sorted(set(left) | set(right)):
            x, y = left.get(key, 0), right.get(key, 0)
            if x != y:
                out.append(f"seed {b['seed']} trace {b['trace']}: {key} {x} -> {y} ({y - x:+})")
    return len(matched), out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(argv[0]), load(argv[1])
    count_names = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    workloads = list(dict.fromkeys(r["workload"] for r in base + change))
    for wl in workloads:
        a_runs = [r for r in base if r["workload"] == wl]
        b_runs = [r for r in change if r["workload"] == wl]
        print(f"== {wl}: {len(a_runs)} base runs, {len(b_runs)} change runs")
        ratios = {}
        for side, runs in (("base", a_runs), ("change", b_runs)):
            ratio, failed, attempted = ratios[side] = failed_ratio(runs)
            print(f"   failed_ratio {side}: {ratio:.6g} ({failed} of {attempted})")
        fails_more = ratios["change"][0] > ratios["base"][0]
        a_plain = [r for r in a_runs if not r["trace"]]
        b_plain = [r for r in b_runs if not r["trace"]]
        if a_plain and b_plain:
            only_base, only_change = unmatched_seeds(a_plain, b_plain)
            if only_base or only_change:
                print(f"   unpaired seeds: base only {only_base}, change only {only_change}")
            matched_runs = pairs(a_plain, b_plain)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                a = [r["metrics"][name] for r in a_plain]
                b = [r["metrics"][name] for r in b_plain]
                matched = [(x["metrics"][name], y["metrics"][name]) for x, y in matched_runs]
                qa, qb, wins, text = verdict(metric, a, b, matched, fails_more)
                print(
                    f"   {name:14s} {metric['unit']:4s} base {fmt(qa)}  change {fmt(qb)}"
                    f"  wins {wins}/{len(matched)}  bound {metric['bound']}: {text}"
                )
        compared, diffs = counter_diffs(a_runs, b_runs, count_names)
        if not compared:
            print("   counters: no seed-matched runs to compare")
        else:
            print(f"   counters of {compared} pairs: {'identical' if not diffs else f'{len(diffs)} differences'}")
        for line in diffs:
            print(f"     {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

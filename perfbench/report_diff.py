#!/usr/bin/env python3
"""Compare two result sets of the whole-run benchmark.

    python3 perfbench/report_diff.py BASE NEW      # compare two sets
    python3 perfbench/report_diff.py SET           # summarize one set

A result set is a directory of the results files perfbench writes
(.bench_build/perfbench/out/results/<workload>-seed<N>-trace<T>.json; copy
that directory aside between the two builds), or a text file with one JSON
result line per run, each prefixed by the workload name and a tab.

For every workload x end-to-end metric it prints median, first and third
quartile and the spread ((q3 - q1) / median) of each set, and flags:
  SPREAD   a set's spread exceeds the metric's bound in BENCHMARK.json;
  WORSE    the new median is worse than the base median by more than the
           bound (in the metric's "better" direction).
Then it lists the per-layer metrics whose medians moved most.  Exit code 1
when anything is flagged.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
TOP_LAYERS = 10  # per-layer metrics listed


def load_set(path):
    """{(workload, trace): {metric: [values]}} from a directory or a file."""
    runs = []
    if os.path.isdir(path):
        for name in sorted(glob.glob(os.path.join(path, "*.json"))):
            with open(name) as f:
                doc = json.load(f)
            runs.append((doc["workload"], doc["trace"], doc["result"]))
    else:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                workload, raw = line.rstrip("\n").split("\t", 1)
                result = json.loads(raw)
                runs.append((workload, None, result))
    out = {}
    for workload, trace, result in runs:
        if not result.get("correct", False):
            print(f"note: {workload}: a run reported correct=false", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            out.setdefault(workload, {}).setdefault(metric, []).append(entry["value"])
    return out


def summary(values):
    """(median, q1, q3, spread) — quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
    return med, q1, q3, spread


def worse_by(base, new, better):
    """Relative change of `new` vs `base`, positive when it got worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="BASE [NEW]")
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one or two result sets")

    with open(SPEC) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    sets = [load_set(p) for p in args.sets]
    flagged = False

    header = f"{'workload':20} {'metric':24} {'bound':>6}"
    for label in ("base", "new")[:len(sets)]:
        header += f" | {label + ' median':>14} {'q1':>12} {'q3':>12} {'spread':>7}"
    if len(sets) == 2:
        header += f" | {'worse by':>8}"
    print(header)
    for workload in sorted(set().union(*sets)):
        for name, m in e2e.items():
            columns = [s.get(workload, {}).get(name) for s in sets]
            if not any(columns):
                continue
            line = f"{workload:20} {name:24} {m['bound']:6.2f}"
            meds = []
            notes = []
            for label, values in zip(("base", "new"), columns):
                if not values:
                    line += f" | {'-':>14} {'':>12} {'':>12} {'':>7}"
                    meds.append(None)
                    continue
                med, q1, q3, spread = summary(values)
                meds.append(med)
                line += f" | {med:14.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}"
                if spread > m["bound"]:
                    notes.append(f"SPREAD({label})")
            if len(sets) == 2 and None not in meds:
                w = worse_by(meds[0], meds[1], m["better"])
                line += f" | {w:+8.3f}"
                if w > m["bound"]:
                    notes.append("WORSE")
            flagged = flagged or bool(notes)
            print(line + ("  " + " ".join(notes) if notes else ""))

    if len(sets) == 2:
        moves = []
        for workload in sorted(set(sets[0]) & set(sets[1])):
            for name, m in layer.items():
                a = sets[0][workload].get(name)
                b = sets[1][workload].get(name)
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                if ma == mb:
                    continue
                rel = (mb - ma) / abs(ma) if ma else float("inf")
                moves.append((abs(rel), workload, name, ma, mb, rel, m["better"]))
        moves.sort(reverse=True)
        print(f"\nper-layer metrics that moved most (top {TOP_LAYERS}):")
        for _, workload, name, ma, mb, rel, better in moves[:TOP_LAYERS]:
            print(f"  {workload:20} {name:36} {ma:12.6g} -> {mb:12.6g}"
                  f"  ({rel:+.1%}, better {better})")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()

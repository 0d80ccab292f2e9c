#!/usr/bin/env python3
"""Repeatability evidence for the benchmark: runs two sets of N runs per
workload of the same tree, alternating workloads and changing the seed on
every run, and prints REPEATABILITY.md on standard output.

    python3 bench/repeat.py [runs-per-set] > bench/REPEATABILITY.md

Per workload x end-to-end metric it reports each set's median and
quartiles, the spread (interquartile distance as a share of the median,
which the driver requires to stay within the bound), and how much worse
the second set's median is than the first's (which must also stay within
the bound). A second table summarises the same runs' rounds by their
median instead of their best, to show what the estimator buys.
Every run's two output lines go to bench/out/repeat.jsonl.
"""
import json
import os
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
workloads = [w["name"] for w in spec["workloads"]]
raw_path = os.path.join(root, "bench", "out", "repeat.jsonl")


def run(workload, seed, raw):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    info, res = (json.loads(line) for line in out.strip().splitlines()[-2:])
    assert res["correct"] and res["failed"] == 0, (workload, seed, res)
    raw.write(json.dumps({"info": info, "result": res}) + "\n")
    return {k: v["value"] for k, v in res["metrics"].items()}, info["rounds"]


def spread(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    return (q3 - q1) / statistics.median(v)


values = {}  # (set, workload, metric) -> [run values]
by_median = {}  # the same, each run's rounds summarised by their median
os.makedirs(os.path.dirname(raw_path), exist_ok=True)
with open(raw_path, "w") as raw:
    for s in (0, 1):
        for i in range(runs):
            for w in workloads:
                metrics, rounds = run(w, 1 + s * runs + i, raw)
                for name, v in metrics.items():
                    values.setdefault((s, w, name), []).append(v)
                    if name in rounds[0]:
                        by_median.setdefault((s, w, name), []).append(
                            statistics.median(r[name] for r in rounds))
                print(f"set {s} run {i} {w} done", file=sys.stderr)

print("# Repeatability of the end-to-end metrics\n")
print(f"Two sets of {runs} runs per workload of one tree (`python3 bench/repeat.py {runs}`),")
print("workloads alternating, a new `--seed` on every run, "
      f"`--seconds {spec['run_seconds']}`. Every value is as measured: nothing is")
print("rescaled. *spread* is the distance between the first and third quartile")
print("(`statistics.quantiles(v, n=4)`) as a share of the median; *gap* is how much")
print("worse set 2's median is than set 1's (negative = better). Both must stay")
print("within *bound* (the spread of `setup_s` is exempt); the target is a spread")
print("below a third of the bound.\n")
print("| workload | metric | bound | set 1 median [q1, q3] | spread 1 | set 2 median [q1, q3] | spread 2 | gap | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
worst = 0.0
for w in workloads:
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cells, meds, spreads = [], [], []
        for s in (0, 1):
            v = values[(s, w, name)]
            q1, _, q3 = statistics.quantiles(v, n=4)
            meds.append(statistics.median(v))
            spreads.append(spread(v))
            cells.append(f"{meds[-1]:.4g} [{q1:.4g}, {q3:.4g}]")
        gap = (meds[1] - meds[0]) / meds[0]
        if m["better"] == "higher":
            gap = -gap
        exempt = name == "setup_s"
        ok = (exempt or max(spreads) <= bound) and gap <= bound
        third = exempt or max(spreads) <= bound / 3
        verdict = "ok" if ok and third else ("within bound" if ok else "MISS")
        if not exempt:
            worst = max(worst, max(spreads) / bound)
        print(f"| {w} | {name} | {bound:.0%} | {cells[0]} | {spreads[0]:.1%} | "
              f"{cells[1]} | {spreads[1]:.1%} | {gap:+.1%} | {verdict} |")
print(f"\nLargest spread as a share of its bound: {worst:.2f}.")

print("\n## The same runs, rounds summarised by their median\n")
print("A run reports, per metric, the best round's value. This table takes the")
print("same runs' rounds (the line before the result line has them) and summarises")
print("them by their median instead, which is what the issue first prescribed.")
print("Spreads are set 1 / set 2.\n")
print("| workload | metric | spread, best round (reported) | spread, median round |")
print("|---|---|---|---|")
pairs = []
for w in workloads:
    for m in spec["end_to_end"]:
        name = m["name"]
        if (0, w, name) not in by_median or name == "alloc_kb_per_load":
            continue
        a = [spread(values[(s, w, name)]) for s in (0, 1)]
        b = [spread(by_median[(s, w, name)]) for s in (0, 1)]
        pairs.append((sum(b) / 2, sum(a) / 2))
        print(f"| {w} | {name} | {a[0]:.1%} / {a[1]:.1%} | {b[0]:.1%} / {b[1]:.1%} |")
print(f"\nMean spread over these cells: {statistics.mean(r[1] for r in pairs):.1%} reported, "
      f"{statistics.mean(r[0] for r in pairs):.1%} with the median round; "
      f"largest {max(r[1] for r in pairs):.1%} against {max(r[0] for r in pairs):.1%}.")

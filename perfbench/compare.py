#!/usr/bin/env python3
"""Compare two sets of perfbench result files, or summarise one set.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

A result file is the standard output of one `perfbench/run.py` run,
saved as-is (any name ending in .out or .json). Its last line is the
JSON result; the line starting with {"perfbench": ...} describes the
machine and the run (workload, seed, sample counts).

For each (metric, workload) the tool prints each set's median and
quartiles. With one set it also prints the spread (interquartile
distance as a share of the median) against the metric's bound. With
two sets it pairs runs by seed, prints the share of pairs the change
wins (ties count for neither) and a verdict:

  improved    the change wins at least 9/10 of the pairs and the
              medians differ by more than the base's own quartile
              distance;
  worse       the change's median is worse than the base's by more
              than the metric's bound (per-layer metrics and the
              printed but ungated end-to-end ones, which have no
              bound: the base wins 9/10 of the pairs and the medians
              differ by more than the base's quartile distance);
  unresolved  the spread of either set is wider than the bound, and
              not every change run is better than every base run
              (not for setup_s, which is judged on its median);
  no change   otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# End-to-end metrics every run prints but BENCHMARK.json does not gate
# (their run-to-run spread on some workload is wider than any allowed
# bound; see README.md). They are compared like per-layer metrics.
PRINTED = {
    "latency_p50_ms": ("ms", "lower"),
    "overload_rps": ("req/s", "higher"),
    "solve_ms": ("ms", "lower"),
    "resolve_ms": ("ms", "lower"),
    "calls_per_s": ("calls/s", "higher"),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for name, (unit, direction) in PRINTED.items():
        if name not in metrics:
            metrics[name] = dict(name=name, unit=unit, better=direction,
                                 kind="printed", bound=None)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer", bound=None)
    return metrics


def load_set(path):
    """Return runs as dicts: workload, seed, trace, descriptor, metrics."""
    runs = []
    for name in sorted(os.listdir(path)):
        if not (name.endswith(".out") or name.endswith(".json")):
            continue
        with open(os.path.join(path, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        desc = None
        for line in lines:
            if line.startswith('{"perfbench"'):
                desc = json.loads(line)["perfbench"]
        if not lines or desc is None:
            print(f"skipping {name}: not a perfbench result", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in desc.get("e2e", {}).items():
            metrics.setdefault(k, v)
        runs.append({
            "file": name, "workload": desc["workload"], "seed": desc["seed"],
            "trace": desc["trace"], "desc": desc, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": metrics,
        })
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def better(a, b, direction):
    """True when b is better than a."""
    return b < a if direction == "lower" else b > a


def verdict(base, change, pairs, info):
    direction, bound = info["better"], info["bound"]
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    losses = sum(1 for a, b in pairs if better(b, a, direction))
    n = len(pairs)
    iqr = bq3 - bq1
    if n and wins >= 0.9 * n and better(bmed, cmed, direction) and abs(cmed - bmed) > iqr:
        return "improved", wins, n
    if bound is None:
        if n and losses >= 0.9 * n and abs(cmed - bmed) > iqr:
            return "worse", wins, n
        return "no change", wins, n
    all_better = all(better(a, b, direction) for a in base for b in change)
    # set-up time is judged on its median alone
    unsteady = spread(base) > bound or spread(change) > bound
    if unsteady and info["name"] != "setup_s" and not all_better:
        return "unresolved", wins, n
    worse_by = (cmed - bmed) if direction == "lower" else (bmed - cmed)
    if bmed and worse_by / abs(bmed) > bound:
        return "worse", wins, n
    return "no change", wins, n


def describe(label, runs):
    descs = [r["desc"] for r in runs]
    if not descs:
        return
    keys = sorted({(d["nproc"], d["ocaml"], d["profile"], d["seconds"]) for d in descs})
    for nproc, ocaml, profile, seconds in keys:
        print(f"{label}: nproc={nproc} ocaml={ocaml} profile={profile} seconds={seconds}")
    by_wl = {}
    for r in runs:
        by_wl.setdefault((r["workload"], r["trace"]), []).append(r)
    for (wl, trace), rs in sorted(by_wl.items()):
        seeds = sorted(r["seed"] for r in rs)
        bad = [r["file"] for r in rs if not r["correct"] or r["failed"]]
        print(f"  {wl} trace={trace}: {len(rs)} runs, seeds {seeds}"
              + (f", NOT CORRECT or with failures: {bad}" if bad else ""))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base = load_set(argv[1])
    change = load_set(argv[2]) if len(argv) == 3 else None
    describe("base", base)
    if change is not None:
        describe("change", change)
    groups = {}
    for r in base:
        for k in r["metrics"]:
            groups.setdefault((r["workload"], k), None)
    rows = []
    for (wl, metric) in sorted(groups, key=lambda g: (g[0], list(spec).index(g[1]) if g[1] in spec else 999)):
        info = spec.get(metric)
        if info is None:
            continue
        b_runs = {r["seed"]: r["metrics"][metric] for r in base
                  if r["workload"] == wl and metric in r["metrics"]}
        b = list(b_runs.values())
        q1, med, q3 = quartiles(b)
        samples = statistics.median(
            r["desc"]["samples"].get(metric, 0) for r in base
            if r["workload"] == wl and metric in r["metrics"])
        row = f"{wl:15} {metric:30} {info['unit']:8} n={samples:<6g} base {med:12.6g} [{q1:.6g}, {q3:.6g}]"
        if change is None:
            s = spread(b)
            bound = info["bound"]
            flag = ""
            if metric == "setup_s":
                flag = "  (set-up: only its median is compared)"
            elif bound is not None:
                flag = "  OK" if s <= bound / 3 else ("  within bound" if s <= bound else "  OVER BOUND")
            elif info["kind"] == "printed":
                flag = "  (not gated)"
            row += f" spread {s:.4f}" + (f" bound {bound}" if bound is not None else "") + flag
        else:
            c_runs = {r["seed"]: r["metrics"][metric] for r in change
                      if r["workload"] == wl and metric in r["metrics"]}
            c = list(c_runs.values())
            if not c:
                continue
            cq1, cmed, cq3 = quartiles(c)
            pairs = [(b_runs[s], c_runs[s]) for s in b_runs if s in c_runs]
            v, wins, n = verdict(b, c, pairs, info)
            row += f"  change {cmed:12.6g} [{cq1:.6g}, {cq3:.6g}]  wins {wins}/{n}  {v}"
        rows.append(row)
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Fold benchmark run records into one committed BENCH_*.json.

Each `bench/run.py` run leaves a record in `.bench_out/result-*.json` of
the checkout it ran in. This script reads the records of two checkouts,
the parent commit and the change, and writes one JSON file with

- `environment`: the machine and library fields every record shares, and
  the sha256 of every data file a record names (the script refuses
  records from different environments or data, and any record of a run
  that failed its checks),
- `runs`: every run's side, workload, seed, trace flag, correctness,
  load, and scaled and raw end-to-end values,
- `medians`: per workload and side, the median of each scaled end-to-end
  metric over the untraced runs,
- `quartiles`: per workload and side, [q1, median, q3] of each of those
  metrics (inclusive method: numpy's default linear interpolation),
- `pairs`: per workload and end-to-end metric of `BENCHMARK.json` (read
  only), the untraced parent and change runs paired by seed: the change's
  `wins`, `losses` and `ties` in the metric's `better` direction, its
  median over the parent's (`ratio`), `gain` (the change's median less the
  parent's, positive when better), the parent's `iqr` (q3 - q1), `claim`
  (at least 9 of 10 pairs won and a gain above the parent's iqr) and
  `worse_than_bound` (the change's median worse than the parent's by more
  than the metric's relative `bound`),
- `traced`: per traced run ("<workload>-s<seed>") and side, the run's
  whole `metrics`: layer times, tape-record, composed-row and kept-ratio
  counts, overall and for each variant the workload runs. Their
  "per_ex" values divide by `bench/spans.py`'s denominators, which in the
  train workloads count `harness.forward_logits` calls and backward
  passes, not examples trained.

Each directory should hold only the records of the two commits being
compared: a run overwrites the record of the same workload, seed and trace
flag, but records of other seeds from older runs stay and would be folded.

Usage:
    python3 scripts/bench_record.py --parent PARENT/.bench_out \\
        --change .bench_out --out BENCH_<n>.json
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")

# environment fields that differ from run to run; the rest must agree
PER_RUN_ENV = ("loadavg_start", "loadavg_end", "cpu_wall_ratio",
               "speed_kernel_s")


class RecordError(Exception):
    pass


def read_records(directory) -> list:
    paths = sorted(glob.glob(os.path.join(directory, "result-*.json")))
    if not paths:
        raise RecordError(f"no result-*.json records in {directory}")
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    return records


def quartiles(values) -> list:
    """[q1, median, q3] of `values`."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def pair(parent: dict, change: dict, better: str, bound: float) -> dict:
    """The `pairs` entry of one metric; `parent` and `change` map each
    untraced run's seed to its value."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(parent) & set(change))
    gains = [sign * (change[s] - parent[s]) for s in seeds]
    wins = sum(g > 0 for g in gains)
    p, c = quartiles(list(parent.values())), quartiles(list(change.values()))
    gain, iqr = sign * (c[1] - p[1]), p[2] - p[0]
    return {"pairs": len(seeds), "wins": wins,
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains), "ratio": c[1] / p[1],
            "gain": gain, "iqr": iqr,
            "claim": bool(seeds) and wins >= 0.9 * len(seeds) and gain > iqr,
            "worse_than_bound": -gain > bound * abs(p[1])}


def fold(sides: dict, end_to_end=()) -> dict:
    """`sides` maps a side name ("parent", "change") to its records;
    `end_to_end` is `BENCHMARK.json`'s list of end-to-end metrics, which
    the pairs are given for."""
    environment, data, runs = None, {}, []
    medians, spreads, traced, untraced = {}, {}, {}, {}
    for side, records in sides.items():
        # workload -> metric -> seed -> untraced value
        values = untraced[side] = {}
        for rec in records:
            wl = rec["workload"]
            if not rec["correct"] or rec["failed"]:
                raise RecordError(
                    f"{side} {wl} seed {rec['seed']}: the run failed its "
                    f"checks (correct {rec['correct']}, failed "
                    f"{rec['failed']})")
            env = {k: v for k, v in rec["environment"].items()
                   if k not in PER_RUN_ENV}
            # each workload reads its own data files
            for name, sha in env.pop("data_sha256", {}).items():
                if data.setdefault(name, sha) != sha:
                    raise RecordError(f"{side} {wl} seed {rec['seed']}: "
                                      f"{name} differs from other records")
            if environment is None:
                environment = env
            elif env != environment:
                raise RecordError(
                    f"{side} {wl} seed {rec['seed']}: "
                    f"environment differs from the other records")
            runs.append({
                "side": side, "workload": wl, "seed": rec["seed"],
                "trace": rec["trace"], "correct": rec["correct"],
                "failed": rec["failed"], "attempted": rec["attempted"],
                "environment": {k: rec["environment"][k]
                                for k in PER_RUN_ENV if k in rec["environment"]},
                "end_to_end": rec["end_to_end"],
                "end_to_end_raw": rec["end_to_end_raw"]})
            if rec["trace"]:
                traced.setdefault(f"{wl}-s{rec['seed']}", {})[side] = \
                    rec["metrics"]
            else:
                for k, v in rec["end_to_end"].items():
                    values.setdefault(wl, {}).setdefault(k, {})[
                        rec["seed"]] = v
        for wl, metrics in values.items():
            spreads.setdefault(wl, {})[side] = {
                k: quartiles(list(v.values())) for k, v in metrics.items()}
            medians.setdefault(wl, {})[side] = {
                k: q[1] for k, q in spreads[wl][side].items()}
    pairs = {}
    for wl in medians:
        for m in end_to_end:
            seeds = [untraced.get(side, {}).get(wl, {}).get(m["name"])
                     for side in ("parent", "change")]
            if all(seeds):
                pairs.setdefault(wl, {})[m["name"]] = pair(
                    *seeds, m["better"], m["bound"])
    return {"environment": {**environment, "data_sha256": data}, "runs": runs,
            "medians": medians, "quartiles": spreads, "pairs": pairs,
            "traced": traced}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="the parent checkout's .bench_out directory")
    ap.add_argument("--change", required=True,
                    help="the change's .bench_out directory")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    try:
        out = fold({"parent": read_records(args.parent),
                    "change": read_records(args.change)}, end_to_end)
    except RecordError as e:
        sys.exit(str(e))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

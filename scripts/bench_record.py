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
- `traced`: per traced run ("<workload>-s<seed>") and side, the
  tape-record, composed-row and kept-ratio counts, overall and for each
  variant the workload runs.

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

# environment fields that differ from run to run; the rest must agree
PER_RUN_ENV = ("loadavg_start", "loadavg_end", "cpu_wall_ratio",
               "speed_kernel_s")
TRACED_PREFIXES = ("tensor.tape_records_per_ex", "cells.composed_rows_per_ex",
                   "topk.kept_ratio")


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


def fold(sides: dict) -> dict:
    """`sides` maps a side name ("parent", "change") to its records."""
    environment, data, runs = None, {}, []
    medians, traced = {}, {}
    for side, records in sides.items():
        values = {}  # workload -> metric -> untraced values
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
                traced.setdefault(f"{wl}-s{rec['seed']}", {})[side] = {
                    k: v for k, v in rec["metrics"].items()
                    if k.startswith(TRACED_PREFIXES)
                    and (v or k in TRACED_PREFIXES)}
            else:
                for k, v in rec["end_to_end"].items():
                    values.setdefault(wl, {}).setdefault(k, []).append(v)
        for wl, metrics in values.items():
            medians.setdefault(wl, {})[side] = {
                k: statistics.median(v) for k, v in metrics.items()}
    return {"environment": {**environment, "data_sha256": data}, "runs": runs,
            "medians": medians, "traced": traced}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="the parent checkout's .bench_out directory")
    ap.add_argument("--change", required=True,
                    help="the change's .bench_out directory")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    try:
        out = fold({"parent": read_records(args.parent),
                    "change": read_records(args.change)})
    except RecordError as e:
        sys.exit(str(e))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

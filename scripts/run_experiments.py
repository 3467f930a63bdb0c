#!/usr/bin/env python3
"""Length-generalization benchmark sweep.

Trains the encoder family (gold-tree, recurrent, easy-first Gumbel, beam-tree
at several beam sizes with plain and OneSoft truncation) on a ListOps
length-generalization split across multiple seeds, evaluates in-distribution
(dev) and out-of-distribution (test) accuracy, and writes a results JSON that
tests/test_acceptance.py consumes.

Two profiles:
  reduced  -- sized for a single CPU core; one run took 4,057-4,428 s for
              bt k3 and 755-1,210 s for gold/recurrent/gumbel
              (results/runs-reduced/*/timing.log); k2/k5 not measured
  full     -- 20k train samples, length<=50/depth<=4/args<=3, d_h=128,
              test lengths 80-120; sized for an 8-core desktop (~2 hours
              with --workers 8)
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from beamtree.harness import make_config, train, load_model, evaluate_examples
from beamtree.listops import GenConfig, build_splits, read_tsv

PROFILES = {
    "reduced": dict(
        train_count=10000, dev_count=500, test_count=500,
        max_length=30, max_depth=3, max_args=3, nest_prob=0.45,
        d=64, batch_size=16, lr=2e-3, dropout=0.05,
        cheap_epochs=18, beam_epochs=18, patience=6,
        test_limit=500,
    ),
    "full": dict(
        train_count=20000, dev_count=2000, test_count=2000,
        max_length=50, max_depth=4, max_args=3, nest_prob=0.45,
        d=128, batch_size=32, lr=2e-3, dropout=0.05,
        cheap_epochs=15, beam_epochs=10, patience=5,
        test_limit=2000,
    ),
}

# name -> (config overrides, is_beam_encoder)
VARIANTS = {
    "gold_tree": ({"encoder": "gold"}, False),
    "recurrent": ({"encoder": "recurrent"}, False),
    "gumbel_tree": ({"encoder": "gumbel"}, False),
    "bt_k3_onesoft": ({"encoder": "bt", "beam_size": "3", "topk": "onesoft"}, True),
    "bt_k3_plain": ({"encoder": "bt", "beam_size": "3", "topk": "plain"}, True),
    "bt_k2_onesoft": ({"encoder": "bt", "beam_size": "2", "topk": "onesoft"}, True),
    "bt_k2_plain": ({"encoder": "bt", "beam_size": "2", "topk": "plain"}, True),
    "bt_k5_plain": ({"encoder": "bt", "beam_size": "5", "topk": "plain"}, True),
}


def ensure_data(data_dir, p, seed):
    if os.path.exists(os.path.join(data_dir, "train.tsv")):
        return
    train_cfg = GenConfig(max_length=p["max_length"], max_depth=p["max_depth"],
                          min_args=2, max_args=p["max_args"],
                          nest_prob=p["nest_prob"])
    build_splits("length_gen", data_dir, seed=seed,
                 train_count=p["train_count"], dev_count=p["dev_count"],
                 test_count=p["test_count"], train_cfg=train_cfg)


def run_one(name, seed, p, args, data_dir, out_root, test_examples):
    overrides, is_beam = VARIANTS[name]
    cfg = make_config({
        "d_e": str(p["d"]), "d_h": str(p["d"]),
        "batch_size": str(p["batch_size"]),
        "max_epochs": str(p["beam_epochs"] if is_beam else p["cheap_epochs"]),
        "patience": str(p["patience"]),
        "lr": str(p["lr"]), "dropout": str(p["dropout"]),
        "seed": str(seed), "data_dir": data_dir,
        "workers": str(args.workers),
        **overrides,
    })
    out_dir = os.path.join(out_root, f"{name}-s{seed}")
    done_marker = os.path.join(out_dir, "result.json")
    if os.path.exists(done_marker):
        with open(done_marker, encoding="utf-8") as f:
            return json.load(f)
    t0 = time.monotonic()
    ckpt, metrics = train(cfg, out_dir,
                          log=lambda msg: print(f"  [{name}-s{seed}] {msg}",
                                                flush=True))
    dev_acc = max(m["dev_accuracy"] for m in metrics)
    model = load_model(cfg, ckpt)
    test_acc, _ = evaluate_examples(model, test_examples)
    result = {"name": name, "seed": seed,
              "dev_accuracy": round(dev_acc, 6),
              "test_accuracy": round(test_acc, 6),
              "epochs_run": len(metrics),
              "wall_seconds": round(time.monotonic() - t0, 1)}
    with open(done_marker, "w", encoding="utf-8") as f:
        json.dump(result, f)
    print(f"  [{name}-s{seed}] dev={dev_acc:.3f} test={test_acc:.3f} "
          f"({result['wall_seconds']:.0f}s)", flush=True)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", choices=sorted(PROFILES), default="reduced")
    ap.add_argument("--out", default="results/experiments.json")
    ap.add_argument("--data-dir", default=None)
    ap.add_argument("--run-dir", default=None)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--data-seed", type=int, default=100)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of variant names to run")
    args = ap.parse_args()

    p = PROFILES[args.profile]
    base = os.path.dirname(os.path.abspath(args.out)) or "."
    data_dir = args.data_dir or os.path.join(base, f"data-{args.profile}")
    run_dir = args.run_dir or os.path.join(base, f"runs-{args.profile}")
    os.makedirs(base, exist_ok=True)

    ensure_data(data_dir, p, args.data_seed)
    test_examples = read_tsv(os.path.join(data_dir, "test.tsv"))[:p["test_limit"]]

    names = args.only or list(VARIANTS)
    runs = []
    for name in names:
        for seed in args.seeds:
            runs.append(run_one(name, seed, p, args, data_dir, run_dir,
                                test_examples))
            _write(args.out, args.profile, p, runs)
    print(f"wrote {args.out}")


def _write(out_path, profile, p, runs):
    medians = {}
    for name in {r["name"] for r in runs}:
        devs = [r["dev_accuracy"] for r in runs if r["name"] == name]
        tests = [r["test_accuracy"] for r in runs if r["name"] == name]
        medians[name] = {"dev": round(statistics.median(devs), 6),
                         "test": round(statistics.median(tests), 6),
                         "n_seeds": len(devs)}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"profile": profile, "settings": p, "runs": runs,
                   "medians": medians}, f, indent=2)


if __name__ == "__main__":
    main()

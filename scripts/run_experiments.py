#!/usr/bin/env python3
"""Length-generalization benchmark sweep.

Trains the encoder family (gold-tree, recurrent, easy-first Gumbel, beam-tree
at several beam sizes with plain and OneSoft truncation) on a ListOps
length-generalization split across multiple seeds, evaluates in-distribution
(dev) and out-of-distribution (test) accuracy, and writes a results JSON that
tests/test_acceptance.py consumes.

Two profiles:
  reduced  -- sized for a single CPU core; one run took 4,057-4,428 s for
              bt k3 alone on a core, 6,270-6,342 s for two bt k3 runs side
              by side on a 2-core box, and 755-1,210 s for
              gold/recurrent/gumbel (results/runs-reduced/*/timing.log),
              all before the beam encoders cached their candidates.
              No full k2/k5 run is timed yet; with the cache, side by side
              on the same box, one BLAS thread per process, an epoch took
              158 s for bt k2 plain and 292 s for bt k5 plain (250-273 s
              and 762 s before), so the 9 missing k2/k5 runs need about
              10 core-hours (bt k2 onesoft counted at 1.5x bt k2 plain).
              Data: results/data-mid (the reduced recipe, data seed 100)
  full     -- 20k train samples, length<=50/depth<=4/args<=3, d_h=128,
              test lengths 80-120; sized for an 8-core desktop (~2 hours
              with --workers 8)

Each (variant, seed) run lives in <run-dir>/<variant>-s<seed>/. A run with a
result.json is reused only if its config.txt matches the config this
invocation builds in every field but `workers`; `data_dir` is compared by the
sha256 of its train/dev/test.tsv (a relative path is resolved against the
repository root). Every cached run is checked before anything trains, and
any mismatch is refused, naming the field. A run killed before writing
result.json restarts from epoch 0 and, being deterministic, repeats the
killed run's metrics.jsonl line for line if the code is unchanged. The
candidate cache of the beam encoders left forward values bit-identical but
gradients different at float32 rounding, so a run killed before it and
restarted after it does not. After every run the results JSON is rebuilt
from all cached runs of every variant, so `--only` and `--seeds` never drop
other runs from it; both files are replaced atomically, so concurrent
invocations on disjoint runs are safe.

The process uses one BLAS thread unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS is already set.
"""

import argparse
import fcntl
import functools
import hashlib
import json
import os
import re
import statistics
import sys
import tempfile
import time
from dataclasses import fields

# One BLAS thread per sweep process unless the caller set a count: two
# processes side by side on a 2-core box with the default count had not
# finished a bt k2 epoch in 480 s, against 250 s with one thread each. Set
# before numpy loads, since OpenBLAS reads these only at load time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from beamtree.harness import RunConfig, evaluate_examples, load_config, \
    load_model, make_config, train
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


# default data directory of each profile, next to the results JSON
DATA_DIRS = {"reduced": "data-mid", "full": "data-full"}

SPLITS = ("train", "dev", "test")


class SweepError(Exception):
    pass


def _read_kv(path):
    with open(path, encoding="utf-8") as f:
        return dict(line.rstrip("\n").split("=", 1) for line in f if "=" in line)


def ensure_data(data_dir, p, seed):
    """Generate the profile's split into `data_dir`, or check that the split
    already there was generated by the same recipe."""
    if not os.path.exists(os.path.join(data_dir, "train.tsv")):
        train_cfg = GenConfig(max_length=p["max_length"],
                              max_depth=p["max_depth"], min_args=2,
                              max_args=p["max_args"], nest_prob=p["nest_prob"])
        build_splits("length_gen", data_dir, seed=seed,
                     train_count=p["train_count"], dev_count=p["dev_count"],
                     test_count=p["test_count"], train_cfg=train_cfg)
        return
    meta_path = os.path.join(data_dir, "train.meta")
    meta = _read_kv(meta_path) if os.path.exists(meta_path) else {}
    expected = {"count": p["train_count"], "seed": seed,
                **{k: p[k] for k in ("max_length", "max_depth", "max_args",
                                     "nest_prob")}}
    bad = [f"{k}={meta.get(k)} (want {v})" for k, v in expected.items()
           if meta.get(k) != str(v)]
    if bad:
        raise SweepError(f"{meta_path} disagrees with the profile: "
                         + ", ".join(bad))


def data_sha256(data_dir):
    digests = {}
    for split in SPLITS:
        with open(os.path.join(data_dir, f"{split}.tsv"), "rb") as f:
            digests[split] = hashlib.sha256(f.read()).hexdigest()
    return digests


def repo_path(path):
    """`path` relative to the repository root when it lies inside it."""
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    return os.path.abspath(path) if rel.split(os.sep)[0] == os.pardir else rel


def run_config(name, seed, p, data_dir, workers):
    overrides, is_beam = VARIANTS[name]
    return make_config({
        "d_e": str(p["d"]), "d_h": str(p["d"]),
        "batch_size": str(p["batch_size"]),
        "max_epochs": str(p["beam_epochs"] if is_beam else p["cheap_epochs"]),
        "patience": str(p["patience"]),
        "lr": str(p["lr"]), "dropout": str(p["dropout"]),
        "seed": str(seed), "data_dir": repo_path(data_dir),
        "workers": str(workers),
        **overrides,
    })


def check_cached(run_dir, cfg, sha):
    """Refuse a cached run whose config or data differ from `cfg`/`sha`."""
    path = os.path.join(run_dir, "config.txt")
    if not os.path.exists(path):
        raise SweepError(f"{run_dir}: result.json without config.txt")
    cached = load_config(path)
    for fld in fields(RunConfig):
        if fld.name in ("workers", "data_dir"):
            continue
        old, new = getattr(cached, fld.name), getattr(cfg, fld.name)
        if old != new:
            raise SweepError(f"{run_dir}: cached run has {fld.name}={old}, "
                             f"this sweep {fld.name}={new}")
    cached_dir = os.path.join(REPO_ROOT, cached.data_dir)
    if not (os.path.isdir(cached_dir) and data_sha256(cached_dir) == sha):
        raise SweepError(f"{run_dir}: cached run's data_dir={cached.data_dir} "
                         f"does not hold the data of {cfg.data_dir}")


def _write_json(path, obj, **kwargs):
    """Write through a temp file in the same directory and os.replace, so a
    reader never sees a torn file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(obj, f, **kwargs)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run_one(name, seed, cfg, out_root, data_dir, test_limit):
    out_dir = os.path.join(out_root, f"{name}-s{seed}")
    done_marker = os.path.join(out_dir, "result.json")
    if os.path.exists(done_marker):
        return
    t0 = time.monotonic()
    train_ex, dev_ex, test_ex = (read_tsv(os.path.join(data_dir, f"{s}.tsv"))
                                 for s in SPLITS)
    ckpt, metrics = train(cfg, out_dir, train_ex, dev_ex,
                          log=lambda msg: print(f"  [{name}-s{seed}] {msg}",
                                                flush=True))
    dev_acc = max(m["dev_accuracy"] for m in metrics)
    model = load_model(cfg, ckpt)
    test_acc, _ = evaluate_examples(model, test_ex[:test_limit])
    result = {"name": name, "seed": seed,
              "dev_accuracy": round(dev_acc, 6),
              "test_accuracy": round(test_acc, 6),
              "epochs_run": len(metrics),
              "wall_seconds": round(time.monotonic() - t0, 1)}
    _write_json(done_marker, result)
    print(f"  [{name}-s{seed}] dev={dev_acc:.3f} test={test_acc:.3f} "
          f"({result['wall_seconds']:.0f}s)", flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", choices=sorted(PROFILES), default="reduced")
    ap.add_argument("--out", default="results/experiments.json")
    ap.add_argument("--data-dir", default=None)
    ap.add_argument("--run-dir", default=None)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--data-seed", type=int, default=100)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--only", nargs="*", default=None, choices=list(VARIANTS),
                    help="subset of variant names to run")
    args = ap.parse_args()

    p = PROFILES[args.profile]
    base = os.path.dirname(os.path.abspath(args.out))
    data_dir = args.data_dir or os.path.join(base, DATA_DIRS[args.profile])
    run_dir = args.run_dir or os.path.join(base, f"runs-{args.profile}")
    for d in (base, run_dir):
        os.makedirs(d, exist_ok=True)

    try:
        ensure_data(data_dir, p, args.data_seed)
        sha = data_sha256(data_dir)
        config = functools.partial(run_config, p=p, data_dir=data_dir,
                                   workers=args.workers)
        # checks every cached run before anything trains
        _write(args.out, args.profile, p, run_dir, config, sha)
        for name in args.only or list(VARIANTS):
            for seed in args.seeds:
                run_one(name, seed, config(name, seed), run_dir, data_dir,
                        p["test_limit"])
                _write(args.out, args.profile, p, run_dir, config, sha)
    except SweepError as e:
        sys.exit(f"run_experiments: {e}")
    print(f"wrote {args.out}")


def _write(out_path, profile, p, run_dir, config, sha):
    """Rebuild `out_path` from every finished run of every variant under
    `run_dir`, holding a lock on `run_dir` so concurrent invocations write
    in turn and the last one sees every run."""
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        entries = os.listdir(run_dir)
        runs, medians = [], {}
        for name in VARIANTS:
            mine = []
            for seed in sorted(int(m[1]) for m in (
                    re.fullmatch(rf"{name}-s(\d+)", e) for e in entries) if m):
                out_dir = os.path.join(run_dir, f"{name}-s{seed}")
                if not os.path.exists(os.path.join(out_dir, "result.json")):
                    continue
                check_cached(out_dir, config(name, seed), sha)
                with open(os.path.join(out_dir, "result.json"),
                          encoding="utf-8") as f:
                    mine.append(json.load(f))
            if mine:
                medians[name] = {
                    "dev": round(statistics.median(
                        r["dev_accuracy"] for r in mine), 6),
                    "test": round(statistics.median(
                        r["test_accuracy"] for r in mine), 6),
                    "n_seeds": len(mine)}
            runs += mine
        _write_json(out_path, {"profile": profile, "settings": p,
                               "data_sha256": sha, "runs": runs,
                               "medians": medians}, indent=2)
    finally:
        os.close(fd)


if __name__ == "__main__":
    main()

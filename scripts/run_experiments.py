#!/usr/bin/env python3
"""Length-generalization benchmark sweep.

Trains the encoder family (gold-tree, recurrent, easy-first Gumbel, beam-tree
at several beam sizes with plain and OneSoft truncation) on a ListOps
length-generalization split across multiple seeds, evaluates in-distribution
(dev) and out-of-distribution (test) accuracy, and writes a results JSON that
tests/test_acceptance.py consumes.

Two profiles, each a profile of `listops.PROFILES` (its data) with the
settings its runs train by:
  reduced  -- sized for a single CPU core; each run's timing.log has the
              time it took. Data: results/data-mid
  full     -- 20k train samples, length<=50/depth<=4/args<=3, d_h=128,
              test lengths 80-120; sized for an 8-core desktop with
              --workers 8 (not timed). Data: results/data-full
`beamtree gen-data --profile <name>` writes the same data as the sweep.

Every variant of a profile trains with the same settings, one epoch cap
included (reduced 18, full 15); a variant sets only its encoder. Full's cap
is unmeasured: no full-profile run has been trained.

--workers N (default 1) trains N (variant, seed) runs at once. Every run
trains in its own forked process, which inherits the one-BLAS-thread pin
below and gives its memory back when it ends. Runs start in the same order
for any N and each is deterministic, so N changes nothing a run writes but
its timing.log and the `workers` and `wall_seconds` of result.json;
`wall_seconds` was measured beside at most N-1 other runs of this sweep.
On a 2-core Xeon two 1-epoch bt k3 onesoft runs (800 train rows of
data-mid) took 7.3-8.5 s side by side against 13.5 s one after the other.
The runs are a queue, so a core that
finishes early takes the next: on the 9 k2/k5 runs cut to 2 epochs on 400
train rows, --workers 2 took a median 39.9 s against 42.7 s for the best
hand split by --only run as two invocations at once. A run that raises
stops the sweep with a non-zero exit naming it; runs still training are
killed.

An existing data dir is used only when the .meta file of each of its
train, dev and test splits matches that split's recipe from
`listops.profile_recipes`. Each (variant, seed) run is queued once, with its
config made before any run starts, and lives in
<run-dir>/<variant>-s<seed>/. A run with a result.json is reused only if
its config.txt matches the config this invocation builds in every field,
with `data_dir` compared by the sha256 of its train/dev/test.tsv (a
relative path is resolved against the repository root). Every cached run
is checked before anything trains, and any mismatch is refused, naming the
field. A run killed before writing result.json restarts from epoch 0
and, being deterministic, repeats the
killed run's metrics.jsonl line for line if the code is unchanged (a
change that moves values at float32 rounding breaks that; CHANGES.md
names each). Each result.json records `code_sha256`, the sha256 of the
package's modules that trained it, and rebuilding the results JSON prints
one line naming every cached run whose hash is missing or differs from the
code this process imported; such runs are still used. The hash is taken
once, when the sweep starts, so a `src/` edit during a sweep changes
neither what its runs record nor what they are compared with. After every
run the results JSON is rebuilt from all cached runs of every variant, so
`--only` and `--seeds` never drop other runs from it; both files are
replaced atomically, so concurrent invocations on disjoint runs are safe.

The process uses one BLAS thread unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS is already set.
"""

import argparse
import fcntl
import functools
import glob
import hashlib
import json
import multiprocessing as mp
import multiprocessing.connection
import os
import re
import statistics
import sys
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

from beamtree.checkpoint import atomic_open
from beamtree.harness import HarnessError, RunConfig, evaluate_examples, \
    load_config, load_model, make_config, parse_kv, train
from beamtree import listops
from beamtree.listops import build_splits, profile_recipes, read_tsv, \
    recipe_meta

# each profile's data (`listops.PROFILES`), then how its runs train
PROFILES = {
    "reduced": dict(listops.PROFILES["reduced"], d=64, batch_size=16,
                    lr=2e-3, dropout=0.05, epochs=18, patience=6),
    "full": dict(listops.PROFILES["full"], d=128, batch_size=32, lr=2e-3,
                 dropout=0.05, epochs=15, patience=5),
}

# name -> config overrides; every other setting is the profile's
VARIANTS = {
    "gold_tree": {"encoder": "gold"},
    "recurrent": {"encoder": "recurrent"},
    "gumbel_tree": {"encoder": "gumbel"},
    "bt_k3_onesoft": {"encoder": "bt", "beam_size": "3", "topk": "onesoft"},
    "bt_k3_plain": {"encoder": "bt", "beam_size": "3", "topk": "plain"},
    "bt_k2_onesoft": {"encoder": "bt", "beam_size": "2", "topk": "onesoft"},
    "bt_k2_plain": {"encoder": "bt", "beam_size": "2", "topk": "plain"},
    "bt_k5_plain": {"encoder": "bt", "beam_size": "5", "topk": "plain"},
}


# default data directory of each profile, next to the results JSON
DATA_DIRS = {"reduced": "data-mid", "full": "data-full"}

SPLITS = ("train", "dev", "test")


class SweepError(Exception):
    pass


def ensure_data(data_dir, p):
    """Generate the profile's split into `data_dir`, or check that each split
    already there was generated by its recipe."""
    recipes = profile_recipes(p)
    if not os.path.exists(os.path.join(data_dir, "train.tsv")):
        build_splits(data_dir, recipes)
        return
    for split, cfg in recipes.items():
        meta_path = os.path.join(data_dir, f"{split}.meta")
        try:  # a missing .meta is refused like a bad one
            with open(meta_path, encoding="utf-8") as f:
                meta = parse_kv(f)
        except (OSError, HarnessError) as e:
            raise SweepError(f"{meta_path}: {e}") from None
        bad = [f"{k}={meta.get(k, '(missing)')} (want {v})"
               for k, v in recipe_meta(cfg).items() if meta.get(k) != v]
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


def run_config(name, seed, p, data_dir):
    # make_config converts each value to its field's type
    return make_config({
        "d_e": p["d"], "d_h": p["d"], "batch_size": p["batch_size"],
        "max_epochs": p["epochs"], "patience": p["patience"], "lr": p["lr"],
        "dropout": p["dropout"], "seed": seed, "data_dir": repo_path(data_dir),
        **VARIANTS[name],
    })


def check_cached(run_dir, cfg, sha):
    """Refuse a cached run whose config or data differ from `cfg`/`sha`."""
    path = os.path.join(run_dir, "config.txt")
    if not os.path.exists(path):
        raise SweepError(f"{run_dir}: result.json without config.txt")
    try:
        cached = load_config(path)
    except HarnessError as e:
        raise SweepError(f"{run_dir}: {e}") from None
    for fld in fields(RunConfig):
        if fld.name == "data_dir":
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
    """Write through `atomic_open`, so a reader never sees a torn file."""
    with atomic_open(path, "w") as f:
        json.dump(obj, f, **kwargs)


def code_sha256():
    """sha256 over the bytes of the package's modules, src/beamtree/*.py in
    sorted order: the code a run was trained and tested by."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "src", "beamtree",
                                              "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def run_one(name, seed, cfg, out_root, data_dir, workers, code):
    """Train and test one run. `workers` is the sweep's --workers, recorded
    so a reader knows `wall_seconds` was measured beside at most workers-1
    other runs of this sweep (and any other process on the machine), and
    `code` is the `code_sha256` of the modules the sweep imported."""
    out_dir = os.path.join(out_root, f"{name}-s{seed}")
    t0 = time.monotonic()
    train_ex, dev_ex, test_ex = (read_tsv(os.path.join(data_dir, f"{s}.tsv"))
                                 for s in SPLITS)
    ckpt, metrics = train(cfg, out_dir, train_ex, dev_ex,
                          log=lambda msg: print(f"  [{name}-s{seed}] {msg}",
                                                flush=True))
    dev_acc = max(m["dev_accuracy"] for m in metrics)
    model = load_model(cfg, ckpt)
    test_acc, _ = evaluate_examples(model, test_ex)
    result = {"name": name, "seed": seed,
              "dev_accuracy": round(dev_acc, 6),
              "test_accuracy": round(test_acc, 6),
              "epochs_run": len(metrics), "workers": workers,
              "wall_seconds": round(time.monotonic() - t0, 1),
              "code_sha256": code}
    _write_json(os.path.join(out_dir, "result.json"), result)
    print(f"  [{name}-s{seed}] dev={dev_acc:.3f} test={test_acc:.3f} "
          f"({result['wall_seconds']:.0f}s)", flush=True)


def train_runs(todo, job, workers):
    """Call `job(name, seed)` for each (name, seed) key of `todo` in a
    forked process, `workers` at a time, started in order, yielding after
    each finishes. A run that fails stops the sweep, naming it; runs still
    training are killed."""
    # one Process per run rather than a multiprocessing.Pool: a Pool waits
    # forever for a task whose worker was killed, and pickles its tasks.
    # A forked run needs nothing pickled, inherits the BLAS thread pin and
    # gives its memory back when it ends.
    ctx = mp.get_context("fork")
    pending, running = list(todo), {}
    try:
        while pending or running:
            while pending and len(running) < workers:
                run = pending.pop(0)
                sys.stdout.flush()
                proc = ctx.Process(target=job, args=run)
                proc.start()
                running[proc.sentinel] = (proc, run)
            for sentinel in mp.connection.wait(list(running)):
                proc, (name, seed) = running.pop(sentinel)
                proc.join()
                if proc.exitcode != 0:
                    raise SweepError(f"{name}-s{seed} failed: exit code "
                                     f"{proc.exitcode}")
                yield name, seed
    finally:
        for proc, _run in running.values():
            proc.kill()
            proc.join()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", choices=sorted(PROFILES), default="reduced")
    ap.add_argument("--out", default="results/experiments.json")
    ap.add_argument("--data-dir", default=None)
    ap.add_argument("--run-dir", default=None)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--workers", type=int, default=1,
                    help="runs to train at once, each in a forked process")
    ap.add_argument("--only", nargs="+", default=None, choices=list(VARIANTS),
                    help="subset of variant names to run")
    args = ap.parse_args()
    # the modules imported at start, which every run forked from this
    # process trains with, whatever `src/` holds when the run ends
    code = code_sha256()
    if args.workers < 1:
        ap.error("--workers must be at least 1")

    p = PROFILES[args.profile]
    base = os.path.dirname(os.path.abspath(args.out))
    data_dir = args.data_dir or os.path.join(base, DATA_DIRS[args.profile])
    run_dir = args.run_dir or os.path.join(base, f"runs-{args.profile}")
    for d in (base, run_dir):
        os.makedirs(d, exist_ok=True)

    try:
        ensure_data(data_dir, p)
        sha = data_sha256(data_dir)
        config = functools.partial(run_config, p=p, data_dir=data_dir)
        # (name, seed) -> config of each run to train, in run order: made
        # here, so a bad seed is refused before any run starts, and a run
        # named twice is queued once
        todo = {(name, seed): config(name, seed)
                for name in args.only or list(VARIANTS) for seed in args.seeds
                if not os.path.exists(os.path.join(
                    run_dir, f"{name}-s{seed}", "result.json"))}
        # checks every cached run before anything trains
        _write(args.out, args.profile, p, run_dir, config, sha, code)

        def job(name, seed):
            run_one(name, seed, todo[name, seed], run_dir, data_dir,
                    args.workers, code)

        for _ in train_runs(todo, job, args.workers):
            _write(args.out, args.profile, p, run_dir, config, sha, code)
    except (SweepError, HarnessError, OSError) as e:
        # a refused setting or cached run, or a missing or unreadable file
        sys.exit(f"run_experiments: {e}")
    print(f"wrote {args.out}")


def _write(out_path, profile, p, run_dir, config, sha, code):
    """Rebuild `out_path` from every finished run of every variant under
    `run_dir`, holding a lock on `run_dir` so concurrent invocations write
    in turn and the last one sees every run, and name the runs whose
    `code_sha256` is not `code`."""
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
        stale = [f"{r['name']}-s{r['seed']}" for r in runs
                 if r.get("code_sha256") != code]
        if stale:
            print(f"{len(stale)} cached runs were not trained by the current "
                  f"code (code_sha256 missing or different): "
                  + ", ".join(stale), flush=True)
        _write_json(out_path, {"profile": profile, "settings": p,
                               "data_sha256": sha, "runs": runs,
                               "medians": medians}, indent=2)
    finally:
        os.close(fd)


if __name__ == "__main__":
    main()

"""The benchmark's workloads: which rows each one reads, how it sets up the
package, the operations it times, and the correctness checks on their
results."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
import zlib
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "results" / "data-mid"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# sha256 of each data file the workloads read; a mismatch stops the run
DATA_SHA256 = {
    "train.tsv": "76044d1f21adbe59d5e4ca5d9ebc63c2e5ef7c57536509f1778e0213600eee4d",
    "dev.tsv": "b985e39303a8981e59cf4b81450dc13ec97a1a5c9fee90bf2dc4daf4210cea73",
    "test.tsv": "703487ac36856f769c0e2210dc75c287dd7e137f47506983695beaaa62012bca",
}

# reduced-profile hyperparameters of scripts/run_experiments.py, one epoch
BASE_CONFIG = {"d_e": "64", "d_h": "64", "batch_size": "16", "lr": "2e-3",
               "dropout": "0.05", "max_epochs": "1", "patience": "6"}

VARIANTS = {
    "gold_tree": {"encoder": "gold"},
    "recurrent": {"encoder": "recurrent"},
    "gumbel_tree": {"encoder": "gumbel"},
    "bt_k2_onesoft": {"encoder": "bt", "beam_size": "2", "topk": "onesoft"},
    "bt_k2_plain": {"encoder": "bt", "beam_size": "2", "topk": "plain"},
    "bt_k3_onesoft": {"encoder": "bt", "beam_size": "3", "topk": "onesoft"},
    "bt_k3_plain": {"encoder": "bt", "beam_size": "3", "topk": "plain"},
    "bt_k5_plain": {"encoder": "bt", "beam_size": "5", "topk": "plain"},
    # evaluation always truncates with hard top-k
    "bt_k3": {"encoder": "bt", "beam_size": "3"},
    "bt_k5": {"encoder": "bt", "beam_size": "5"},
}

REFERENCE_SEED = 0
LOGIT_TOL = 1e-5  # absolute and relative tolerance on eval logits
LOSS_RTOL = 2e-5  # relative tolerance on the losses train() returns


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": one harness.train call per variant;
    # "eval": one harness.evaluate_examples call per variant and example
    variants: tuple
    rows: tuple  # (data file, rows taken from it), in argument order


# One dev row per 16 training rows, near the sweep's 500 dev rows per 10,000
# training rows (scripts/run_experiments.py), so dev eval keeps about its
# share of train() time.
TRAIN_ROWS = (("train.tsv", 16), ("dev.tsv", 1))

WORKLOADS = {w.name: w for w in (
    Workload("train-latent", "train",
             ("gumbel_tree", "bt_k2_onesoft", "bt_k2_plain", "bt_k3_onesoft",
              "bt_k3_plain", "bt_k5_plain"), TRAIN_ROWS),
    Workload("train-fixed", "train", ("gold_tree", "recurrent"), TRAIN_ROWS),
    Workload("eval-long", "eval", ("bt_k3", "bt_k5"), (("test.tsv", 6),)),
)}


class DataMismatch(Exception):
    pass


def check_data(workload: Workload) -> dict:
    """sha256 of every data file the workload reads; raises DataMismatch
    when one is missing or differs from the recorded digest."""
    digests = {}
    for name, _count in workload.rows:
        path = DATA / name
        if not path.is_file():
            raise DataMismatch(f"missing data file {path}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != DATA_SHA256[name]:
            raise DataMismatch(f"{path}: sha256 {digest}, expected "
                               f"{DATA_SHA256[name]}")
        digests[name] = digest
    return digests


def pick_rows(examples: list, count: int, seed: int, split: str) -> list:
    """`count` rows at fixed length quantiles of the split, so every seed gets
    the same lengths; the seed picks which row of each length."""
    rng = np.random.default_rng([seed, zlib.crc32(split.encode())])
    lengths = sorted(ex.length for ex in examples)
    by_length = defaultdict(list)
    for i, ex in enumerate(examples):
        by_length[ex.length].append(i)
    chosen = []
    for q in range(count):
        rows = by_length[lengths[(2 * q + 1) * len(lengths) // (2 * count)]]
        chosen.append(examples[rows.pop(int(rng.integers(len(rows))))])
    return chosen


@dataclass
class Op:
    """One timed operation: a train() call or one eval example."""
    key: str  # names the op in the reference
    variant: str
    examples: int  # examples trained or evaluated by one call
    call: Callable  # () -> result summary, a tuple of floats


@dataclass
class Package:
    modules: dict  # traced module and class objects, keyed as in spans.TRACED
    splits: dict  # data file -> examples


def import_package(src: Path) -> dict:
    """Import beamtree afresh from `src`, so repeated set-ups each pay for the
    import; returns the modules the tracer patches."""
    for name in [m for m in sys.modules
                 if m == "beamtree" or m.startswith("beamtree.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"beamtree.{m}")
            for m in ("harness", "encoders", "listops", "tensor")}
    mods["Tape"] = mods["tensor"].Tape
    return mods


def read_splits(workload: Workload, listops) -> dict:
    return {name: listops.read_tsv(DATA / name) for name, _ in workload.rows}


def make_ops(workload: Workload, package: Package, seed: int,
             work_dir: Path) -> list:
    """Configs, models and inputs for one seed, as a list of operations."""
    harness = package.modules["harness"]
    inputs = [pick_rows(package.splits[name], count, seed, name)
              for name, count in workload.rows]
    ops = []
    for variant in workload.variants:
        cfg = harness.make_config({**BASE_CONFIG, **VARIANTS[variant],
                                   "seed": str(seed)})
        if workload.kind == "train":
            out_dir = str(work_dir / variant)

            def call(cfg=cfg, out_dir=out_dir):
                _ckpt, metrics = harness.train(cfg, out_dir, *inputs,
                                               log=lambda _msg: None)
                last = metrics[-1]
                return (last["train_loss"], last["dev_accuracy"],
                        last["dev_loss"])

            ops.append(Op(variant, variant, len(inputs[0]), call))
        else:
            model = harness.Model(cfg)
            for i, ex in enumerate(inputs[0]):
                def call(model=model, ex=ex):
                    return harness.evaluate_examples(model, [ex])

                ops.append(Op(f"{variant}/{i}", variant, 1, call))
    return ops


def summary_loss(workload: Workload, results: list) -> float:
    """Mean final train loss over the variants, or mean eval loss."""
    if workload.kind == "train":
        return float(np.mean([r[0] for r in results]))
    return float(np.mean([r[1] for r in results]))


class Checker:
    """Counts operations and failures. A failure is an exception, a
    non-finite result, a result that differs from the first result of the
    same operation, or a reference mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._first = {}

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def run(self, op: Op, slot):
        """Run `op`, check its result against the first one seen for `slot`;
        returns the result or None when the op raised."""
        self.attempted += 1
        try:
            result = op.call()
        except Exception as exc:  # a failed operation; keep measuring
            self.fail(f"{op.key}: {type(exc).__name__}: {exc}")
            return None
        if not all(math.isfinite(x) for x in result):
            self.fail(f"{op.key}: non-finite result {result}")
        elif self._first.setdefault(slot, result) != result:
            self.fail(f"{op.key}: result {result} differs from the first run "
                      f"{self._first[slot]}")
        return result


def load_reference(workload: Workload) -> dict:
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)[workload.name]


def reference_pass(workload: Workload, ops: list, checker: Checker,
                   harness) -> dict:
    """Run every op once on the reference seed's inputs and collect what the
    reference records: returned losses, and logits for eval ops."""
    observed = {}
    logits = []
    forward = harness.forward_logits

    def capture(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out.data.tolist())
        return out

    if workload.kind == "eval":
        harness.forward_logits = capture
    try:
        for op in ops:
            logits.clear()
            result = checker.run(op, ("reference", op.key))
            entry = {"result": list(result) if result else None}
            if workload.kind == "eval":
                entry["logits"] = logits[0] if logits else None
            observed[op.key] = entry
    finally:
        harness.forward_logits = forward
    return observed


def compare_reference(observed: dict, reference: dict, checker: Checker):
    for key, ref in reference.items():
        got = observed.get(key)
        if got is None:
            checker.fail(f"{key}: not run")
            continue
        if got["result"] is None:  # the op raised; already counted
            continue
        if "logits" in ref:
            a = np.asarray(got["logits"], dtype=np.float64)
            b = np.asarray(ref["logits"], dtype=np.float64)
            if a.shape != b.shape or np.argmax(a) != np.argmax(b) or \
                    not np.allclose(a, b, rtol=LOGIT_TOL, atol=LOGIT_TOL):
                checker.fail(f"{key}: logits {a.tolist()} differ from the "
                             f"reference {b.tolist()}")
            continue
        train_loss, dev_acc, dev_loss = got["result"]
        r_train, r_acc, r_dev = ref["result"]
        if dev_acc != r_acc or \
                not math.isclose(train_loss, r_train, rel_tol=LOSS_RTOL) or \
                not math.isclose(dev_loss, r_dev, rel_tol=LOSS_RTOL):
            checker.fail(f"{key}: result {got['result']} differs from the "
                         f"reference {ref['result']}")

"""Training and evaluation driver: model bundle, classifier head,
cross-entropy training loop with early stopping, metrics, checkpoints."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .cells import GrcParams, LeafParams, ScorerParams, leaf_transform_seq
from .checkpoint import load_checkpoint, restore, save_checkpoint
from .encoders import BsrpParams, encode_bsrp, encode_bt_cell, \
    encode_easy_first_gumbel, encode_fixed_tree, encode_recurrent
from .listops import CLASSES, VOCAB, Example, read_tsv, tokenize
from .tensor import AdamState, Tape, Tensor, adam_step, clip_grad_norm
from .trees import gold_tree_listops

ENCODER_KINDS = ("recurrent", "gumbel", "bt", "bsrp", "gold")
GRAD_CLIP = 5.0  # global norm every training step's gradient is clipped to


class HarnessError(Exception):
    pass


# keys that older run configs carry, with the one value that still loads:
# runs no longer fork gradient workers, the gated cell is the only cell,
# ListOps fixes the vocabulary and the labels, every run trained with the
# same straight-through temperature, Adam betas and epsilon, and clip norm,
# and training always draws Gumbel noise for top-k
RETIRED_KEYS = {"workers": "1", "cell": "grc", "temperature": "1.0",
                "vocab": str(len(VOCAB)), "classes": str(CLASSES),
                "beta1": "0.9", "beta2": "0.999", "adam_eps": "1e-08",
                "grad_clip": str(GRAD_CLIP), "stochastic_topk": "True"}


@dataclass
class RunConfig:
    encoder: str = "bt"
    beam_size: int = 5
    topk: str = "plain"  # plain | onesoft; OneSoft relaxes top-k in training
    d_e: int = 128
    d_h: int = 128
    dropout: float = 0.1
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 5
    seed: int = 0
    data_dir: str = ""
    precision: str = "single"  # single | double; double is for grad checks

    def validate(self):
        if self.encoder not in ENCODER_KINDS:
            raise HarnessError(f"unknown encoder {self.encoder!r}")
        small = [k for k in ("patience", "batch_size", "max_epochs", "d_e",
                             "d_h", "beam_size") if getattr(self, k) < 1]
        if small:
            raise HarnessError(f"{', '.join(small)} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise HarnessError("dropout must be in [0, 1)")
        if not self.lr > 0.0:
            raise HarnessError("lr must be positive")
        if self.precision not in ("single", "double"):
            raise HarnessError("precision must be single or double")
        if self.topk not in ("plain", "onesoft"):
            raise HarnessError(f"unknown top-k operator {self.topk!r}")
        if self.topk == "onesoft" and self.beam_size < 2:
            raise HarnessError("onesoft needs beam size >= 2")
        if self.topk != "plain" and self.encoder != "bt":
            raise HarnessError(f"topk={self.topk} needs encoder=bt: the "
                               f"{self.encoder} encoder has no OneSoft top-k")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


def load_config(path) -> RunConfig:
    """Flat key=value text file; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise HarnessError(f"bad config line {line!r}")
            k, v = (part.strip() for part in line.split("=", 1))
            values[k] = v
    for k, v in RETIRED_KEYS.items():
        if values.get(k) == v:
            del values[k]
    return make_config(values)


def make_config(overrides: dict) -> RunConfig:
    cfg = RunConfig()
    valid = {f.name: f.type for f in fields(RunConfig)}
    for k, v in overrides.items():
        if k in RETIRED_KEYS:
            hint = ("; run several runs at once with "
                    "scripts/run_experiments.py --workers"
                    if k == "workers" else "")
            raise HarnessError(f"retired config key {k!r}: only "
                               f"{k}={RETIRED_KEYS[k]} loads, from a saved "
                               f"run config{hint}")
        if k not in valid:
            raise HarnessError(f"unknown config key {k!r}")
        current = getattr(cfg, k)
        if isinstance(current, (int, float)):
            try:
                v = type(current)(v)
            except (TypeError, ValueError):
                raise HarnessError(f"{k} must be {type(current).__name__}, "
                                   f"got {v!r}") from None
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


def save_config(cfg: RunConfig, path):
    with open(path, "w", encoding="utf-8") as f:
        for fld in fields(RunConfig):
            f.write(f"{fld.name}={getattr(cfg, fld.name)}\n")


@dataclass
class HeadParams:
    gamma: Tensor
    beta: Tensor
    W1: Tensor
    b1: Tensor
    W2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, d_h: int, classes: int, rng, dtype):
        return cls(
            gamma=Tensor(np.ones(d_h, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(d_h, dtype=dtype), requires_grad=True),
            W1=Tensor(T.glorot_uniform((d_h, d_h), rng, dtype), requires_grad=True),
            b1=Tensor(np.zeros(d_h, dtype=dtype), requires_grad=True),
            W2=Tensor(T.glorot_uniform((d_h, classes), rng, dtype), requires_grad=True),
            b2=Tensor(np.zeros(classes, dtype=dtype), requires_grad=True),
        )

    def named(self, prefix: str = "head") -> dict:
        return {f"{prefix}.{k}": getattr(self, k)
                for k in ("gamma", "beta", "W1", "b1", "W2", "b2")}


def classify(encoding: Tensor, head: HeadParams, dropout_rate: float = 0.0,
             rng=None) -> Tensor:
    """Two-layer head: LN -> linear -> GELU -> dropout -> linear -> logits.
    Dropout applies only when given an rng, in training."""
    x = T.layer_norm(encoding, head.gamma, head.beta)
    x = T.gelu(T.add(T.matmul(x, head.W1), head.b1))
    if rng is not None and dropout_rate > 0.0:
        x = T.dropout(x, dropout_rate, rng)
    return T.add(T.matmul(x, head.W2), head.b2)


class Model:
    """Leaf transform + gated cell + scorer + classifier head, with a
    stable parameter naming for checkpoints."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng([cfg.seed, 0xBEEF])
        dtype = cfg.dtype
        self.leaf = LeafParams.init(len(VOCAB), cfg.d_e, cfg.d_h, rng, dtype)
        self.cell = GrcParams.init(cfg.d_h, rng, dtype)
        self.scorer = ScorerParams.init(cfg.d_h, rng, dtype)
        self.bsrp = BsrpParams.init(cfg.d_h, rng, dtype) \
            if cfg.encoder == "bsrp" else None
        self.h0 = Tensor(np.zeros(cfg.d_h, dtype=dtype), requires_grad=True) \
            if cfg.encoder == "recurrent" else None
        self.head = HeadParams.init(cfg.d_h, CLASSES, rng, dtype)

    def named(self) -> dict:
        named = {}
        named.update(self.leaf.named())
        named.update(self.cell.named())
        named.update(self.scorer.named())
        if self.bsrp is not None:
            named.update(self.bsrp.named())
        if self.h0 is not None:
            named["h0"] = self.h0
        named.update(self.head.named())
        return named

    def params(self) -> list:
        return list(self.named().values())

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()


def example_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch, index])


def _encode(model: Model, ex: Example, training: bool, rng) -> Tensor:
    """The example's encoding. Noise is drawn, for dropout and top-k, only
    from `rng`: training passes one, evaluation None. OneSoft relaxes top-k
    only in training, and evaluation truncates with hard top-k."""
    cfg = model.cfg
    ids = tokenize(ex.source)
    leaves = leaf_transform_seq(ids, model.leaf, cfg.dropout, rng)
    kind = cfg.encoder
    if kind == "recurrent":
        return encode_recurrent(leaves, model.cell, model.h0)
    if kind == "gumbel":
        enc, _tree = encode_easy_first_gumbel(leaves, model.cell, model.scorer,
                                              rng)
        return enc
    if kind == "bt":
        enc, _beams = encode_bt_cell(
            leaves, model.cell, model.scorer, cfg.beam_size,
            onesoft=training and cfg.topk == "onesoft", rng=rng)
        return enc
    if kind == "bsrp":
        enc, _beams = encode_bsrp(leaves, model.cell, model.bsrp,
                                  cfg.beam_size, rng)
        return enc
    tree = gold_tree_listops(ex.source.split())  # "gold"
    return encode_fixed_tree(leaves, tree, model.cell)


def forward_logits(model: Model, ex: Example, training: bool, rng) -> Tensor:
    enc = _encode(model, ex, training, rng)
    return classify(enc, model.head, model.cfg.dropout, rng)


def example_loss(model: Model, ex: Example, training: bool, rng) -> Tensor:
    logits = forward_logits(model, ex, training, rng)
    return T.neg(T.pick(T.log_softmax(logits), ex.label))


def batch_grad_sums(model: Model, batch, epoch: int):
    """Summed loss gradients and summed loss over `batch`, a list of
    (index, example) pairs; returns (grads, loss_sum)."""
    params = model.params()
    total = [np.zeros_like(p.data) for p in params]
    loss_sum = 0.0
    for index, ex in batch:
        model.zero_grad()
        with Tape() as tape:
            loss = example_loss(model, ex, True,
                                example_rng(model.cfg.seed, epoch, index))
            tape.backward(loss)
        loss_sum += loss.item()
        for acc, p in zip(total, params):
            acc += p.grad
    return total, loss_sum


def _length_bucketed_batches(examples, batch_size: int, rng) -> list:
    order = sorted(range(len(examples)), key=lambda i: (examples[i].length, i))
    batches = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(batches)
    return [[(i, examples[i]) for i in b] for b in batches]


def evaluate_examples(model: Model, examples) -> tuple:
    """(accuracy, mean loss) over `examples` in eval mode (no tape)."""
    if not examples:
        raise HarnessError("no examples to evaluate")
    correct = 0
    loss_sum = 0.0
    for ex in examples:
        logits = forward_logits(model, ex, False, None)
        if int(np.argmax(logits.data)) == ex.label:
            correct += 1
        loss_sum -= float(T.log_softmax(logits).data[ex.label])
    return correct / len(examples), loss_sum / len(examples)


def train(cfg: RunConfig, out_dir, train_examples=None, dev_examples=None,
          log=print) -> tuple:
    """Adam on cross-entropy with dev-accuracy early stopping.

    Writes metrics.jsonl (deterministic fields only), timing.log (wall clock),
    config.txt, and best.ckpt under `out_dir`. Returns
    (checkpoint_path, metrics list)."""
    cfg.validate()
    if train_examples is None:
        train_examples = read_tsv(os.path.join(cfg.data_dir, "train.tsv"))
    if dev_examples is None:
        dev_examples = read_tsv(os.path.join(cfg.data_dir, "dev.tsv"))
    for split, examples in (("train", train_examples), ("dev", dev_examples)):
        if not examples:
            raise HarnessError(f"the {split} split is empty")
    os.makedirs(out_dir, exist_ok=True)

    model = Model(cfg)
    params = model.params()
    state = AdamState(lr=cfg.lr)
    save_config(cfg, os.path.join(out_dir, "config.txt"))
    ckpt_path = os.path.join(out_dir, "best.ckpt")
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    timing_path = os.path.join(out_dir, "timing.log")

    best = (-1.0, float("inf"))  # (dev accuracy, dev loss); acc ties -> lower loss
    best_epoch = -1
    metrics = []
    step = 0
    t0 = time.monotonic()
    with open(metrics_path, "w", encoding="utf-8") as mf, \
            open(timing_path, "w", encoding="utf-8") as tf:
        for epoch in range(cfg.max_epochs):
            batch_rng = np.random.default_rng([cfg.seed, 0xB41C, epoch])
            batches = _length_bucketed_batches(train_examples, cfg.batch_size,
                                               batch_rng)
            loss_total = 0.0
            for batch in batches:
                grads, loss_sum = batch_grad_sums(model, batch, epoch)
                scale = 1.0 / len(batch)
                for g in grads:
                    g *= scale
                mean_loss = loss_sum * scale
                if not np.isfinite(mean_loss):
                    raise HarnessError(
                        f"non-finite loss at epoch {epoch} step {step}")
                clip_grad_norm(grads, GRAD_CLIP)
                adam_step(params, grads, state)
                loss_total += mean_loss * len(batch)
                step += 1
            train_loss = loss_total / len(train_examples)
            dev_acc, dev_loss = evaluate_examples(model, dev_examples)
            elapsed = time.monotonic() - t0
            record = {"epoch": epoch, "step": step,
                      "train_loss": round(train_loss, 6),
                      "dev_accuracy": round(dev_acc, 6),
                      "dev_loss": round(dev_loss, 6)}
            metrics.append(record)
            mf.write(json.dumps(record) + "\n")
            mf.flush()
            tf.write(f"epoch={epoch} wall_seconds={elapsed:.1f}\n")
            tf.flush()
            log(f"epoch {epoch}: train_loss={train_loss:.4f} "
                f"dev_acc={dev_acc:.4f} ({elapsed:.0f}s)")
            if (dev_acc, -dev_loss) > (best[0], -best[1]):
                best = (dev_acc, dev_loss)
                best_epoch = epoch
                save_checkpoint(ckpt_path,
                                {k: v.data for k, v in model.named().items()})
            elif epoch - best_epoch >= cfg.patience:
                log(f"early stop at epoch {epoch} (best epoch {best_epoch})")
                break
    return ckpt_path, metrics


def load_model(cfg: RunConfig, ckpt_path) -> Model:
    model = Model(cfg)
    restore(model.named(), load_checkpoint(ckpt_path))
    return model


def evaluate_checkpoint(cfg: RunConfig, ckpt_path, split_tsv) -> float:
    model = load_model(cfg, ckpt_path)
    acc, _loss = evaluate_examples(model, read_tsv(split_tsv))
    return acc

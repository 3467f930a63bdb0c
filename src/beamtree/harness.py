"""Training and evaluation driver: model bundle, classifier head,
cross-entropy training loop with early stopping, metrics, checkpoints."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .cells import GrcParams, LeafParams, Params, ScorerParams, \
    leaf_transform_seq
from .checkpoint import load_checkpoint, restore, save_checkpoint
from .encoders import encode_bt_cell, encode_easy_first_gumbel, \
    encode_fixed_tree, encode_recurrent
from .listops import CLASSES, VOCAB, Example, gold_tree_listops, read_tsv, \
    tokenize
from .tensor import AdamState, Tape, Tensor, adam_step, clip_grad_norm

ENCODER_KINDS = ("recurrent", "gumbel", "bt", "gold")
GRAD_CLIP = 5.0  # global norm every training step's gradient is clipped to


class HarnessError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A run's settings, checked once when they are made."""

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

    def __post_init__(self):
        if self.encoder not in ENCODER_KINDS:
            raise HarnessError(f"unknown encoder {self.encoder!r}")
        small = [k for k in ("patience", "batch_size", "max_epochs", "d_e",
                             "d_h", "beam_size") if getattr(self, k) < 1]
        if small:
            raise HarnessError(f"{', '.join(small)} must be >= 1")
        if self.seed < 0:
            raise HarnessError("seed must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise HarnessError("dropout must be in [0, 1)")
        if not 0.0 < self.lr < float("inf"):
            raise HarnessError("lr must be positive and finite")
        if self.topk not in ("plain", "onesoft"):
            raise HarnessError(f"unknown top-k operator {self.topk!r}")
        if self.topk == "onesoft" and self.beam_size < 2:
            raise HarnessError("onesoft needs beam size >= 2")
        if self.topk != "plain" and self.encoder != "bt":
            raise HarnessError(f"topk={self.topk} needs encoder=bt: the "
                               f"{self.encoder} encoder has no OneSoft top-k")


def parse_kv(lines) -> dict:
    """Flat key=value lines as a dict. Each line is stripped, blank lines
    are skipped, and a key may be given only once; values are taken as
    written."""
    values = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError(f"bad config line {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in values:
            raise HarnessError(f"config key {k!r} given twice")
        values[k] = v
    return values


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as f:
        return make_config(parse_kv(f))


def make_config(values: dict) -> RunConfig:
    """The RunConfig of `values`, the defaults where a field is not given,
    each value converted to its field's type."""
    defaults, names = RunConfig(), {f.name for f in fields(RunConfig)}
    converted = {}
    for k, v in values.items():
        if k not in names:
            raise HarnessError(f"unknown config key {k!r}")
        kind = type(getattr(defaults, k))
        if kind in (int, float):
            try:
                v = kind(v)
            except (TypeError, ValueError):
                raise HarnessError(f"{k} must be {kind.__name__}, "
                                   f"got {v!r}") from None
        converted[k] = v
    return RunConfig(**converted)


def save_config(cfg: RunConfig, path):
    with open(path, "w", encoding="utf-8") as f:
        for fld in fields(RunConfig):
            f.write(f"{fld.name}={getattr(cfg, fld.name)}\n")


@dataclass
class HeadParams(Params):
    prefix = "head"
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


def classify(encodings: Tensor, head: HeadParams, dropout_rate: float = 0.0,
             rngs=None) -> Tensor:
    """Two-layer head over (examples, d_h) encodings: LN -> linear -> GELU
    -> dropout -> linear -> (examples, classes) logits. Dropout
    (`T.dropout`) applies only when given rngs, one per example, in
    training."""
    x = T.layer_norm(encodings, head.gamma, head.beta)
    x = T.gelu(T.add_rowvec(T.matmul(x, head.W1), head.b1))
    x = T.dropout(x, dropout_rate, rngs, [1] * x.data.shape[0])
    return T.add_rowvec(T.matmul(x, head.W2), head.b2)


class Model:
    """Leaf transform + gated cell + scorer + classifier head, with a
    stable parameter naming for checkpoints. Runs and checkpoints are
    float32; the gradient checks build float64 models."""

    def __init__(self, cfg: RunConfig, dtype=np.float32):
        self.cfg = cfg
        rng = np.random.default_rng([cfg.seed, 0xBEEF])
        self.leaf = LeafParams.init(len(VOCAB), cfg.d_e, cfg.d_h, rng, dtype)
        self.cell = GrcParams.init(cfg.d_h, rng, dtype)
        self.scorer = ScorerParams.init(cfg.d_h, rng, dtype)
        self.h0 = Tensor(np.zeros(cfg.d_h, dtype=dtype), requires_grad=True) \
            if cfg.encoder == "recurrent" else None
        self.head = HeadParams.init(cfg.d_h, CLASSES, rng, dtype)

    def named(self) -> dict:
        h0 = {} if self.h0 is None else {"h0": self.h0}
        return {**self.leaf.named(), **self.cell.named(),
                **self.scorer.named(), **h0, **self.head.named()}

    def params(self) -> list:
        return list(self.named().values())

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()


def example_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch, index])


def _encode(model: Model, examples, training: bool, rngs) -> tuple:
    """(encodings, beams) of a batch: the (examples, d_h) encodings, and
    `beams`, the final `BeamSet` of each example in order (its actions are
    the example's parses, its scores their accumulated log-probabilities)
    as the gumbel and bt encoders return them, or None for gold and
    recurrent, which search no trees. Noise is drawn, for dropout and
    top-k, only from `rngs`, one per example: training passes them,
    evaluation None. Each example draws from its own rng in the order it
    alone would: leaf dropout, the encoder's Gumbel noise, head dropout.
    OneSoft relaxes top-k only in training, and evaluation truncates with
    hard top-k."""
    cfg = model.cfg
    sequences = [tokenize(ex.source) for ex in examples]
    lengths = [len(ids) for ids in sequences]
    leaves = leaf_transform_seq(sequences, model.leaf, cfg.dropout, rngs)
    kind = cfg.encoder
    if kind == "recurrent":
        return encode_recurrent(leaves, lengths, model.cell, model.h0), None
    if kind == "gumbel":
        return encode_easy_first_gumbel(leaves, lengths, model.cell,
                                        model.scorer, rngs)
    if kind == "bt":
        return encode_bt_cell(
            leaves, lengths, model.cell, model.scorer, cfg.beam_size,
            onesoft=training and cfg.topk == "onesoft", rngs=rngs)
    trees = [gold_tree_listops(ex.source.split()) for ex in examples]
    return encode_fixed_tree(leaves, trees, model.cell), None  # "gold"


def batch_logits(model: Model, examples, training: bool, rngs) -> tuple:
    """(logits, beams) of a batch, one rng per example or None: the
    (examples, classes) logits, and the beams of `_encode`, one BeamSet per
    example or None."""
    enc, beams = _encode(model, examples, training, rngs)
    return classify(enc, model.head, model.cfg.dropout, rngs), beams


def batch_losses(model: Model, examples, training: bool, rngs) -> Tensor:
    """(examples,) cross-entropy of each example of a batch."""
    logits, _beams = batch_logits(model, examples, training, rngs)
    logp = T.log_softmax(logits)
    return T.neg(T.rows_gather(T.reshape(logp, (-1,)),
                               [e * CLASSES + ex.label
                                for e, ex in enumerate(examples)]))


def forward_logits(model: Model, ex: Example, training: bool, rng) -> Tensor:
    """The (classes,) logits of one example: a batch of one."""
    rngs = None if rng is None else [rng]
    logits, _beams = batch_logits(model, [ex], training, rngs)
    return T.reshape(logits, (-1,))


def batch_grad_sums(model: Model, batch, epoch: int):
    """Summed loss gradients and summed loss over `batch`, a list of
    (index, example) pairs, from one forward and one backward of the whole
    batch on one tape; returns (grads, loss_sum). The grads are the
    parameters' own gradient arrays, valid until the next backward."""
    model.zero_grad()
    rngs = [example_rng(model.cfg.seed, epoch, index) for index, _ in batch]
    with Tape() as tape:
        losses = batch_losses(model, [ex for _, ex in batch], True, rngs)
        tape.backward(T.tsum(losses))
    return [p.grad for p in model.params()], sum(losses.data.tolist())


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
    # the forward's finite check reports an overflow; numpy's warning of it
    # would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for ex in examples:
            logits = forward_logits(model, ex, False, None)
            if int(np.argmax(logits.data)) == ex.label:
                correct += 1
            loss_sum -= float(T.log_softmax(logits).data[ex.label])
    return correct / len(examples), loss_sum / len(examples)


def train(cfg: RunConfig, out_dir, train_examples=None, dev_examples=None,
          log=print) -> tuple:
    """Adam on cross-entropy with dev-accuracy early stopping.

    Writes metrics.jsonl (deterministic fields only: per epoch the losses,
    dev accuracy, and the mean and largest gradient norm before clipping
    with the fraction of steps clipped), timing.log (wall clock:
    per epoch the run's elapsed seconds, the seconds spent in training steps
    and in dev evaluation, and training examples per second of the steps),
    config.txt, and best.ckpt under `out_dir`. A step whose forward or
    gradient is not finite stops the run with HarnessError naming its epoch
    and step (and the first such parameter), before the weights change; so
    does a dev evaluation whose forward is not finite, naming its epoch.
    Returns (checkpoint_path, metrics list)."""
    if train_examples is None:
        train_examples = read_tsv(os.path.join(cfg.data_dir, "train.tsv"))
    if dev_examples is None:
        dev_examples = read_tsv(os.path.join(cfg.data_dir, "dev.tsv"))
    for split, examples in (("train", train_examples), ("dev", dev_examples)):
        if not examples:
            raise HarnessError(f"the {split} split is empty")
    os.makedirs(out_dir, exist_ok=True)

    model = Model(cfg)
    params, names = model.params(), list(model.named())
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
    # the finite checks below report an overflow, so numpy does not warn
    with open(metrics_path, "w", encoding="utf-8") as mf, \
            open(timing_path, "w", encoding="utf-8") as tf, \
            np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            batch_rng = np.random.default_rng([cfg.seed, 0xB41C, epoch])
            batches = _length_bucketed_batches(train_examples, cfg.batch_size,
                                               batch_rng)
            loss_total = 0.0
            norms = []  # each step's gradient norm before clipping
            t_train = time.monotonic()
            for batch in batches:
                try:
                    grads, loss_sum = batch_grad_sums(model, batch, epoch)
                except T.NonFiniteError:
                    raise HarnessError(f"non-finite forward value at epoch "
                                       f"{epoch} step {step}") from None
                scale = 1.0 / len(batch)
                for g in grads:
                    g *= scale
                mean_loss = loss_sum * scale
                # before clipping, which would scale an inf to NaN, and Adam,
                # which would write it into the weights
                for name, g in zip(names, grads):
                    if not np.isfinite(g).all():
                        raise HarnessError(f"non-finite gradient of {name} "
                                           f"at epoch {epoch} step {step}")
                norms.append(clip_grad_norm(grads, GRAD_CLIP))
                adam_step(params, grads, state)
                loss_total += mean_loss * len(batch)
                step += 1
            train_loss = loss_total / len(train_examples)
            t_dev = time.monotonic()
            try:
                dev_acc, dev_loss = evaluate_examples(model, dev_examples)
            except T.NonFiniteError:
                raise HarnessError(f"non-finite forward value in dev "
                                   f"evaluation at epoch {epoch}") from None
            t_end = time.monotonic()
            elapsed, train_s = t_end - t0, t_dev - t_train
            record = {"epoch": epoch, "step": step,
                      "train_loss": round(train_loss, 6),
                      "dev_accuracy": round(dev_acc, 6),
                      "dev_loss": round(dev_loss, 6),
                      "grad_norm_mean": round(sum(norms) / len(norms), 6),
                      "grad_norm_max": round(max(norms), 6),
                      "clipped_frac": round(
                          sum(n > GRAD_CLIP for n in norms) / len(norms), 6)}
            metrics.append(record)
            mf.write(json.dumps(record) + "\n")
            mf.flush()
            tf.write(f"epoch={epoch} wall_seconds={elapsed:.1f} "
                     f"train_seconds={train_s:.2f} "
                     f"dev_seconds={t_end - t_dev:.2f} train_ex_per_s="
                     f"{len(train_examples) / max(train_s, 1e-9):.1f}\n")
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

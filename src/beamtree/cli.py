"""Command-line interface: gen-data, train, eval, parse, gradcheck."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import gradcheck as gc
from . import listops
from .cells import GrcParams, LeafParams, ScorerParams, grc_compose, \
    leaf_transform_seq, score
from .checkpoint import CheckpointError
from .encoders import EncoderError
from .harness import HarnessError, Model, RunConfig, batch_logits, \
    batch_losses, evaluate_checkpoint, load_config, load_model, make_config, \
    train
from .listops import GenConfig, ListOpsError, build_splits
from .tensor import Tensor
from . import tensor as T
from .trees import collapse_duplicates, extract_parses


def _parse_overrides(pairs) -> dict:
    out = {}
    for item in pairs:
        if not item.startswith("--") or "=" not in item:
            raise SystemExit(f"override must look like --key=value, got {item!r}")
        k, v = item[2:].split("=", 1)
        if k in out:
            raise HarnessError(f"config key {k!r} given twice")
        out[k] = v
    return out


def cmd_gen_data(args):
    train_cfg = GenConfig(max_length=args.train_max_len,
                          max_depth=args.train_max_depth,
                          min_args=args.min_args, max_args=args.train_max_args,
                          nest_prob=args.nest_prob)
    splits = build_splits(args.kind, args.out, seed=args.seed,
                          train_count=args.train_count,
                          dev_count=args.dev_count,
                          test_count=args.test_count, train_cfg=train_cfg)
    for name, path in splits.items():
        print(f"{name}: {path}")


def cmd_train(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = _parse_overrides(args.overrides)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if overrides:
        from dataclasses import asdict
        merged = {k: str(v) for k, v in asdict(cfg).items()}
        merged.update(overrides)
        cfg = make_config(merged)
    ckpt, metrics = train(cfg, args.out)
    print(f"checkpoint: {ckpt}")
    if metrics:
        print(f"best dev accuracy: {max(m['dev_accuracy'] for m in metrics):.4f}")


def cmd_eval(args):
    cfg = load_config(args.config)
    acc = evaluate_checkpoint(cfg, args.checkpoint, args.split)
    print(f"accuracy: {acc:.4f}")


def cmd_parse(args):
    cfg = load_config(args.config)
    if cfg.encoder != "bt":
        raise SystemExit(f"parse reads beam-tree parses; the config's "
                         f"encoder is {cfg.encoder!r}, not 'bt'")
    try:  # checked like a row of a split
        ex = listops.read_example(args.input, listops.eval_listops(args.input))
    except ListOpsError as e:
        raise ListOpsError(f"--input: {e}") from None
    model = load_model(cfg, args.checkpoint)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the forward
        _logits, beams = batch_logits(model, [ex], False, None)
    for parse in collapse_duplicates(extract_parses(beams[0],
                                                    args.input.split())):
        print(f"{parse.probability:.4f}\t{parse.tree}")


def cmd_gradcheck(args):
    """Double-precision finite-difference checks of the gated cell with the
    scorer, the leaf transform, the end-to-end beam-tree forward, and the
    batched training loss of three examples of different lengths."""
    rng = np.random.default_rng(args.seed)
    d_h, d_e, vocab = 6, 5, len(listops.VOCAB)
    tol = 1e-4
    failures = []

    def report(name, errors):
        worst = max(errors.values())
        ok = worst <= tol
        status = "ok" if ok else "FAIL"
        print(f"{name}: max rel err {worst:.3e} [{status}]")
        if not ok:
            failures.append(name)

    grc = GrcParams.init(d_h, rng, np.float64)
    # both children of one pair, side by side
    children = Tensor(rng.standard_normal((1, 2 * d_h)), requires_grad=True)
    scorer = ScorerParams.init(d_h, rng, np.float64)
    report("grc+scorer", gc.check_grads(
        lambda: score(grc_compose(children, grc), scorer),
        {**grc.named(), **scorer.named(), "children": children}))

    leaf = LeafParams.init(vocab, d_e, d_h, rng, np.float64)
    # plain sum of a layer-normed row is constant; probe with random weights
    w = Tensor(rng.standard_normal((1, d_h)))
    report("leaf_transform", gc.check_grads(
        lambda: T.tsum(T.mul(leaf_transform_seq([[3]], leaf), w)), leaf.named()))

    batch = [listops.read_example(source, label) for source, label in
             (("[MAX 2 [MIN 8 3 ] 1 ]", 3), ("[SM 4 [MED 9 0 ] ]", 4),
              ("7", 7))]

    def model(encoder, topk="plain"):
        return Model(make_config({"encoder": encoder, "beam_size": "3",
                                  "topk": topk, "d_e": str(d_e),
                                  "d_h": str(d_h), "precision": "double",
                                  "dropout": "0.0", "seed": str(args.seed)}))

    for name, m, exs in (
            ("end_to_end_bt_onesoft", model("bt", "onesoft"), batch[:1]),
            ("end_to_end_batch_bt_onesoft", model("bt", "onesoft"), batch),
            ("end_to_end_batch_gumbel", model("gumbel"), batch)):
        report(name, gc.check_grads(
            lambda: T.tsum(batch_losses(m, exs, True, None)), m.named()))

    if failures:
        print(f"gradcheck failed: {', '.join(failures)}")
        sys.exit(1)
    print("gradcheck passed")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="beamtree")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate ListOps splits")
    g.add_argument("--kind", choices=listops.SPLIT_KINDS, default="length_gen")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train-count", type=int, default=20000)
    g.add_argument("--dev-count", type=int, default=2000)
    g.add_argument("--test-count", type=int, default=2000)
    g.add_argument("--train-max-len", type=int, default=50)
    g.add_argument("--train-max-depth", type=int, default=4)
    g.add_argument("--train-max-args", type=int, default=3)
    g.add_argument("--min-args", type=int, default=2)
    g.add_argument("--nest-prob", type=float, default=0.4)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", required=True, help="path to a TSV split file")
    e.set_defaults(func=cmd_eval)

    pa = sub.add_parser("parse", help="print collapsed beam parses for a sequence")
    pa.add_argument("--config", required=True)
    pa.add_argument("--checkpoint", required=True)
    pa.add_argument("--input", required=True)
    pa.set_defaults(func=cmd_parse)

    gcp = sub.add_parser("gradcheck", help="run double-precision gradient checks")
    gcp.add_argument("--seed", type=int, default=0)
    gcp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "train":
        # leftover --key=value pairs are config overrides
        args.overrides = extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        args.func(args)
    except (FileNotFoundError, CheckpointError, EncoderError, ListOpsError,
            HarnessError, T.TensorError) as e:
        # a missing or bad file, config, split or input, or a forward that
        # overflows
        raise SystemExit(f"beamtree {args.command}: {e}") from None


if __name__ == "__main__":
    main()

"""Command-line interface: gen-data, train, eval, parse, gradcheck."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import gradcheck as gc
from . import listops
from .cells import GrcParams, LeafParams, ScorerParams, grc_compose, \
    leaf_transform_seq, score
from .checkpoint import CheckpointError
from .encoders import EncoderError
from .harness import HarnessError, Model, RunConfig, batch_logits, \
    batch_losses, evaluate_examples, load_config, load_model, make_config, \
    parse_kv, train
from .listops import ListOpsError, build_splits, read_tsv
from .tensor import Tensor
from . import tensor as T
from .trees import TreeError, parse_distribution


def cmd_gen_data(args):
    recipes = listops.profile_recipes(listops.PROFILES[args.profile],
                                      args.kind)
    for name, path in build_splits(args.out, recipes).items():
        print(f"{name}: {path}")


def cmd_train(args):
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            values = parse_kv(f)
    for item in args.overrides:
        if not item.startswith("--") or "=" not in item:
            raise SystemExit(f"override must look like --key=value, got {item!r}")
    # the overrides are read like the lines of a config file
    values.update(parse_kv(item[2:] for item in args.overrides))
    ckpt, metrics = train(make_config(values), args.out)
    print(f"checkpoint: {ckpt}")
    if metrics:
        print(f"best dev accuracy: {max(m['dev_accuracy'] for m in metrics):.4f}")


def cmd_eval(args):
    cfg = load_config(args.config)
    acc, _loss = evaluate_examples(load_model(cfg, args.checkpoint),
                                   read_tsv(args.split))
    print(f"accuracy: {acc:.4f}")


def cmd_parse(args):
    cfg = load_config(args.config)
    if cfg.encoder not in ("bt", "gumbel"):
        raise SystemExit(f"parse reads the trees a search finds; the "
                         f"config's encoder {cfg.encoder!r} searches none")
    try:  # checked like a row of a split
        ex = listops.read_example(args.input, listops.eval_listops(args.input))
    except ListOpsError as e:
        raise ListOpsError(f"--input: {e}") from None
    model = load_model(cfg, args.checkpoint)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the forward
        _logits, beams = batch_logits(model, [ex], False, None)
    for tree, probability in parse_distribution(beams[0],
                                                args.input.split()):
        print(f"{probability:.4f}\t{tree}")


def cmd_gradcheck(args):
    """Double-precision finite-difference checks of the gated cell with the
    scorer, the leaf transform, the end-to-end beam-tree forward, and the
    batched training loss of three examples of different lengths."""
    d_h, d_e, vocab = 6, 5, len(listops.VOCAB)
    # made before the first draw, so its check refuses a bad seed
    base = RunConfig(encoder="bt", beam_size=3, d_e=d_e, d_h=d_h,
                     dropout=0.0, seed=args.seed)
    rng = np.random.default_rng(args.seed)
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

    onesoft = replace(base, topk="onesoft")
    for name, cfg, exs in (
            ("end_to_end_bt_onesoft", onesoft, batch[:1]),
            ("end_to_end_batch_bt_onesoft", onesoft, batch),
            ("end_to_end_batch_gumbel", replace(base, encoder="gumbel"),
             batch)):
        m = Model(cfg, np.float64)
        report(name, gc.check_grads(
            lambda: T.tsum(batch_losses(m, exs, True, None)), m.named()))

    if failures:
        print(f"gradcheck failed: {', '.join(failures)}")
        sys.exit(1)
    print("gradcheck passed")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="beamtree")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a profile's ListOps splits")
    g.add_argument("--profile", choices=sorted(listops.PROFILES),
                   default="reduced")
    g.add_argument("--kind", choices=listops.SPLIT_KINDS, default="length_gen")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)
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
    except (OSError, CheckpointError, EncoderError, ListOpsError,
            HarnessError, T.TensorError, TreeError) as e:
        # a missing, unreadable or bad file, config, split, input or tree,
        # or a forward that overflows
        raise SystemExit(f"beamtree {args.command}: {e}") from None


if __name__ == "__main__":
    main()

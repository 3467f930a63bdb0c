"""Acceptance gate: one test per required behavior, each printing a single
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The two training-based criteria (length-generalization orderings and the
beam-size effect) read cached sweep results from results/experiments.json;
produce that file with scripts/run_experiments.py first.
"""

import json
import math
import os
import time

import numpy as np

from one_example import encode_bt_cell, encode_fixed_tree, example_loss
from oracles import concat, enumerate_merge_derivations, \
    stack_machine_eval

from beamtree import tensor as T
from beamtree.cells import GrcParams, LeafParams, ScorerParams, \
    grc_compose, leaf_transform_seq, score
from beamtree.checkpoint import load_checkpoint, save_checkpoint
from beamtree.gradcheck import check_grads
from beamtree.harness import HeadParams, Model, classify, forward_logits, \
    make_config, train
from beamtree.listops import GenConfig, eval_listops, generate
from beamtree.tensor import Tape, Tensor
from beamtree.topk import collapse_tail, merge_beams, truncate
from beamtree.trees import parse_distribution

RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "results",
                            "experiments.json")


def _report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_gradients_all_components():
    t0 = time.monotonic()
    tol = 1e-4
    worst = {}
    rng = np.random.default_rng(0)

    d_h = 8
    grc = GrcParams.init(d_h, rng, np.float64)
    lr = Tensor(rng.standard_normal((1, 2 * d_h)), requires_grad=True)
    w = Tensor(rng.standard_normal((1, d_h)))
    worst["grc"] = max(check_grads(
        lambda: T.tsum(T.mul(grc_compose(lr, grc), w)),
        {**grc.named(), "lr": lr}).values())

    scorer = ScorerParams.init(d_h, rng, np.float64)
    worst["scorer"] = max(check_grads(
        lambda: score(grc_compose(lr, grc), scorer),
        scorer.named()).values())

    leaf = LeafParams.init(15, 6, d_h, rng, np.float64)
    wmat = Tensor(rng.standard_normal((3, d_h)))
    worst["leaf"] = max(check_grads(
        lambda: T.tsum(T.mul(leaf_transform_seq([[1, 7], [14]], leaf), wmat)),
        leaf.named()).values())

    head = HeadParams.init(d_h, 10, rng, np.float64)
    x = Tensor(rng.standard_normal((2, d_h)), requires_grad=True)
    worst["head"] = max(check_grads(
        lambda: T.rows_gather(
            T.reshape(T.log_softmax(classify(x, head)), (-1,)), [13]),
        {**head.named(), "x": x}).values())

    # end-to-end: OneSoft beam recursion over 6 leaves in double precision
    leaves = Tensor(rng.standard_normal((6, d_h)), requires_grad=True)
    worst["end_to_end"] = max(check_grads(
        lambda: T.tsum(T.mul(encode_bt_cell(leaves, grc, scorer, 3,
                                            onesoft=True)[0],
                             Tensor(w.data[0]))),
        {**grc.named(), **scorer.named(), "leaves": leaves}).values())

    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v > tol}
    _report("gradient-correctness", not bad and elapsed < 120,
            f"max rel err {max(worst.values()):.2e}, {elapsed:.0f}s")


def test_criterion_beam_search_matches_exhaustive_enumeration():
    worst = 0.0
    for n in (3, 4, 5, 6):
        rng = np.random.default_rng(n)
        grc = GrcParams.init(4, rng, np.float64)
        scorer = ScorerParams.init(4, rng, np.float64)
        leaves = Tensor(rng.standard_normal((n, 4)))
        k = math.factorial(n - 1)
        _, beams = encode_bt_cell(leaves, grc, scorer, k)
        oracle = {a: s for a, s, _ in enumerate_merge_derivations(
            [leaves.data[i].copy() for i in range(n)], grc, scorer)}
        assert len(beams) == len(oracle) == k
        for score, actions in zip(beams.scores.data, beams.actions):
            worst = max(worst, abs(score - oracle[actions]))

    _report("beam-search-oracle-equivalence", worst <= 1e-9,
            f"worst score gap {worst:.2e}")


def test_criterion_soft_truncation_identities():
    rng = np.random.default_rng(0)

    def pool(scores, grad=False):
        """Stacked nodes, two rows per beam, and the (m,) scores."""
        nodes = np.concatenate([rng.standard_normal((2, 3)) for _ in scores])
        return Tensor(nodes), Tensor(np.array(scores, dtype=np.float64),
                                     requires_grad=grad)

    def keep(groups, nodes, scores):
        """The beams the groups keep, a longer last group collapsed."""
        singles = [g[0] for g in groups if len(g) == 1]
        kept = (T.rows_gather(nodes, [2 * j + r for j in singles
                                      for r in range(2)]),
                T.rows_gather(scores, singles))
        tail = groups[-1]
        if len(tail) == 1:
            return kept
        rows, score = collapse_tail(
            T.rows_gather(nodes, [2 * j + r for r in range(2) for j in tail]),
            T.rows_gather(scores, tail), [len(tail)], [2])
        return concat([kept[0], rows]), concat([kept[1], score])

    # k=m returns the input set exactly, in pool order
    identity_ok = True
    for _ in range(10):
        scores = rng.standard_normal(4)
        nodes, pooled = pool(scores)
        groups = truncate(scores, 4, onesoft=True)
        out_nodes, out_scores = keep(groups, nodes, pooled)
        identity_ok &= groups.tolist() == [[i] for i in range(4)]
        identity_ok &= np.array_equal(out_scores.data, scores)
        identity_ok &= np.array_equal(out_nodes.data, nodes.data)

    # evaluation replaces the soft operator with hard top-k: a OneSoft model
    # evaluates bit for bit like a plain one with the same weights, while
    # their training losses differ even with no noise drawn
    base = {"encoder": "bt", "beam_size": "2", "d_e": "8", "d_h": "8",
            "dropout": "0.0"}
    plain = Model(make_config(base))
    soft = Model(make_config({**base, "topk": "onesoft"}))
    eval_ok = all(np.array_equal(a.data, b.data) for a, b in
                  zip(plain.params(), soft.params()))
    trains_apart = False
    examples = generate(GenConfig(max_length=16, max_depth=2, max_args=4,
                                  count=10, seed=0))
    for ex in examples:
        eval_ok &= np.array_equal(forward_logits(plain, ex, False, None).data,
                                  forward_logits(soft, ex, False, None).data)
        trains_apart |= example_loss(plain, ex, True, None).item() != \
            example_loss(soft, ex, True, None).item()
    eval_ok &= trains_apart

    # pruned-beam score gradient: zero under hard top-k, nonzero under soft
    grad_ok = True
    for trial in range(10):
        for onesoft in (False, True):
            nodes, scores = pool(np.sort(rng.standard_normal(4))[::-1],
                                 grad=True)
            with Tape() as tape:
                groups = truncate(scores.data, 2, onesoft)
                out_nodes, out_scores = keep(groups, nodes, scores)
                enc = merge_beams(
                    T.reshape(out_nodes, (len(groups), 6)), out_scores,
                    [len(groups)])
                tape.backward(T.tsum(enc))
            pruned_has_grad = bool(np.any(scores.grad[2:] != 0.0))
            grad_ok &= (pruned_has_grad == onesoft)

    _report("soft-truncation-identities",
            identity_ok and eval_ok and grad_ok,
            f"identity={identity_ok} eval_switch={eval_ok} "
            f"gradients={grad_ok}")


def _load_results(criterion):
    if not os.path.exists(RESULTS_PATH):
        _report(criterion, False,
                "results/experiments.json missing; run "
                "scripts/run_experiments.py first")
    with open(RESULTS_PATH, encoding="utf-8") as f:
        return json.load(f)


def test_criterion_length_generalization_orderings():
    res = _load_results("length-generalization-orderings")
    med = res["medians"]
    needed = ("gold_tree", "recurrent", "gumbel_tree", "bt_k3_onesoft",
              "bt_k3_plain")
    missing = [n for n in needed if n not in med or med[n]["n_seeds"] < 3]
    if missing:
        _report("length-generalization-orderings", False,
                f"missing/incomplete variants: {missing}")
    gold_in = med["gold_tree"]["dev"]
    rec_drop = med["recurrent"]["dev"] - med["recurrent"]["test"]
    bt_os_margin = med["bt_k3_onesoft"]["test"] - med["gumbel_tree"]["test"]
    bt_pl_margin = med["bt_k3_plain"]["test"] - med["gumbel_tree"]["test"]
    checks = {
        "gold_tree in-dist >= 0.95": gold_in >= 0.95,
        "bt_k3_onesoft beats gumbel_tree by >= 10 pts": bt_os_margin >= 0.10,
        "bt_k3_plain beats gumbel_tree by >= 5 pts": bt_pl_margin >= 0.05,
        "recurrent degrades by >= 10 pts": rec_drop >= 0.10,
    }
    bad = [k for k, v in checks.items() if not v]
    _report("length-generalization-orderings", not bad,
            f"profile={res['profile']} gold_in={gold_in:.3f} "
            f"bt_os-gumbel={bt_os_margin:+.3f} bt_pl-gumbel={bt_pl_margin:+.3f} "
            f"rec_drop={rec_drop:+.3f}"
            + (f"; failing: {bad}" if bad else ""))


def test_criterion_beam_size_effect():
    res = _load_results("beam-size-effect")
    med = res["medians"]
    needed = ("bt_k2_onesoft", "bt_k2_plain", "bt_k5_plain")
    missing = [n for n in needed if n not in med or med[n]["n_seeds"] < 3]
    if missing:
        _report("beam-size-effect", False,
                f"missing/incomplete variants: {missing}")
    gap_to_k5 = med["bt_k5_plain"]["test"] - med["bt_k2_onesoft"]["test"]
    soft_vs_hard = med["bt_k2_onesoft"]["test"] - med["bt_k2_plain"]["test"]
    checks = {
        "onesoft k=2 within 10 pts of plain k=5": gap_to_k5 <= 0.10,
        "onesoft k=2 >= plain k=2": soft_vs_hard >= 0.0,
    }
    bad = [k for k, v in checks.items() if not v]
    _report("beam-size-effect", not bad,
            f"k5_plain-k2_onesoft={gap_to_k5:+.3f} "
            f"k2_onesoft-k2_plain={soft_vs_hard:+.3f}"
            + (f"; failing: {bad}" if bad else ""))


def test_criterion_interpreter_agreement():
    cfg = GenConfig(max_length=80, max_depth=6, max_args=5,
                    count=10_000, seed=777)
    examples = generate(cfg)
    mismatches = sum(ex.label != stack_machine_eval(ex.source)
                     for ex in examples)

    rng = np.random.default_rng(778)
    meta_bad = 0
    for _ in range(10_000):
        args = rng.integers(0, 10, size=int(rng.integers(1, 9))).tolist()
        body = " ".join(map(str, args))
        mx = eval_listops(f"[MAX {body} ]")
        mn = eval_listops(f"[MIN {body} ]")
        if not (mn <= min(args) <= max(args) <= mx and mx == max(args)
                and mn == min(args)):
            meta_bad += 1
        perm = [args[i] for i in rng.permutation(len(args))]
        if eval_listops(f"[SM {body} ]") != \
                eval_listops(f"[SM {' '.join(map(str, perm))} ]"):
            meta_bad += 1

    _report("listops-interpreter-agreement",
            mismatches == 0 and meta_bad == 0,
            f"{mismatches} interpreter mismatches, "
            f"{meta_bad} metamorphic failures over 10k cases each")


def test_criterion_parse_bookkeeping():
    worst_prob = 0.0
    worst_replay = 0.0
    for trial in range(5):
        rng = np.random.default_rng(trial)
        grc = GrcParams.init(6, rng, np.float64)
        scorer = ScorerParams.init(6, rng, np.float64)
        n = int(rng.integers(4, 8))
        leaves = Tensor(rng.standard_normal((n, 6)))
        _, beams = encode_bt_cell(leaves, grc, scorer, 4)
        tokens = [str(i) for i in range(n)]
        parses = parse_distribution(beams, tokens)
        worst_prob = max(worst_prob, abs(sum(p for _t, p in parses) - 1.0))
        for root, actions in zip(beams.roots.data, beams.actions):
            redone = encode_fixed_tree(leaves, actions, grc)
            worst_replay = max(worst_replay, float(np.max(
                np.abs(redone.data - root))))
    _report("parse-bookkeeping",
            worst_prob <= 1e-9 and worst_replay <= 1e-6,
            f"prob gap {worst_prob:.2e}, replay gap {worst_replay:.2e}")


def test_criterion_determinism(tmp_path):
    examples = generate(GenConfig(max_length=20, max_depth=2, count=10,
                                  seed=9))
    cfg = make_config({"encoder": "bt", "beam_size": "2", "topk": "onesoft",
                       "d_e": "10", "d_h": "10", "max_epochs": "2",
                       "batch_size": "4", "dropout": "0.1", "seed": "3"})

    def run(name):
        out = tmp_path / name
        train(cfg, out, train_examples=examples, dev_examples=examples[:5],
              log=lambda *_: None)
        return ((out / "metrics.jsonl").read_bytes(),
                load_checkpoint(out / "best.ckpt"))

    (m1, c1), (m2, c2) = run("a"), run("b")
    metrics_ok = m1 == m2
    ckpt_ok = set(c1) == set(c2) and \
        all(np.array_equal(c1[k], c2[k]) for k in c1)

    # checkpoint save/load round-trips bit-exactly
    path = tmp_path / "rt.ckpt"
    save_checkpoint(path, c1)
    back = load_checkpoint(path)
    rt_ok = all(np.array_equal(back[k], c1[k]) for k in c1)

    _report("determinism",
            metrics_ok and ckpt_ok and rt_ok,
            f"metrics_identical={metrics_ok} checkpoints_identical={ckpt_ok} "
            f"round_trip={rt_ok}")

import gc
import math
import weakref

import numpy as np
import pytest

from one_example import (encode_bt_cell, encode_easy_first_gumbel,
                         encode_fixed_tree, encode_recurrent)
from oracles import enumerate_merge_derivations, np_grc

from beamtree import encoders
from beamtree import tensor as T
from beamtree.cells import GrcParams, ScorerParams
from beamtree.encoders import EncoderError
from beamtree.tensor import Tape, Tensor
from beamtree.trees import TreeError, bracketed

D_H = 4
BALANCED_4 = [0, 1, 0]  # ((0 1) (2 3))


def _params(seed=0, d_h=D_H):
    rng = np.random.default_rng(seed)
    grc = GrcParams.init(d_h, rng, np.float64)
    scorer = ScorerParams.init(d_h, rng, np.float64)
    return grc, scorer


def _leaves(n, seed=1, d_h=D_H, repeated=False):
    """n random leaf rows; with `repeated`, rows of a two-token vocabulary,
    as an embedding lookup of a sequence with repeated tokens gives."""
    rng = np.random.default_rng(seed)
    if repeated:
        return Tensor(rng.standard_normal((2, d_h))[np.arange(n) % 2])
    return Tensor(rng.standard_normal((n, d_h)))


@pytest.mark.parametrize("n,repeated", [
    *(pytest.param(n, False, id=f"{n}") for n in [3, 4, 5, 6]),
    *(pytest.param(n, True, id=f"{n}-repeated") for n in [3, 4, 5, 6])])
def test_bt_cell_matches_exhaustive_enumeration(n, repeated):
    params, scorer = _params(seed=n)
    leaves = _leaves(n, seed=n + 10, repeated=repeated)
    k = math.factorial(n - 1)
    encoding, beams = encode_bt_cell(leaves, params, scorer, k)

    oracle = {a: (s, e) for a, s, e in
              enumerate_merge_derivations([leaves.data[i].copy() for i in range(n)],
                                          params, scorer)}
    assert len(beams) == len(oracle) == k
    for root, score, actions in zip(beams.roots.data, beams.scores.data,
                                    beams.actions):
        s, enc = oracle[actions]
        assert abs(score - s) <= 1e-9
        assert np.max(np.abs(root - enc)) <= 1e-9

    scores = beams.scores.data
    w = np.exp(scores - scores.max())
    w /= w.sum()
    expect = sum(wi * root for wi, root in zip(w, beams.roots.data))
    assert np.max(np.abs(encoding.data - expect)) <= 1e-9


def test_bt_cell_small_beam_is_subset_of_enumeration():
    n, k = 5, 3
    grc, scorer = _params(seed=2)
    leaves = _leaves(n, seed=3)
    _, beams = encode_bt_cell(leaves, grc, scorer, k)
    oracle = {a: s for a, s, _ in
              enumerate_merge_derivations([leaves.data[i].copy() for i in range(n)],
                            grc, scorer)}
    assert len(beams) == k
    for score, actions in zip(beams.scores.data, beams.actions):
        assert actions in oracle
        assert abs(score - oracle[actions]) <= 1e-9


def test_bt_cell_best_score_monotone_in_beam_size():
    grc, scorer = _params(seed=4)
    leaves = _leaves(7, seed=5)
    best = []
    for k in (1, 2, 4, 8):
        _, beams = encode_bt_cell(leaves, grc, scorer, k)
        best.append(max(beams.scores.data))
    for lo, hi in zip(best, best[1:]):
        assert hi >= lo - 1e-12


def test_bt_cell_k1_equals_greedy_easy_first():
    leaves = _leaves(6, seed=7)
    params, scorer = _params(seed=6)
    bt_enc, beams = encode_bt_cell(leaves, params, scorer, 1)
    ef_enc, actions = encode_easy_first_gumbel(leaves, params, scorer)
    assert np.max(np.abs(bt_enc.data - ef_enc.data)) <= 1e-9
    assert bracketed(beams.actions[0], range(6)) == \
        bracketed(actions, range(6))


def test_bt_cell_one_beam_training_trains_the_scorer():
    # merge_beams gives a lone beam's score no gradient; one beam given an
    # rng, in training, selects by straight-through Gumbel instead
    grc, scorer = _params(seed=12)
    rng = np.random.default_rng(13)
    leaves = Tensor(rng.standard_normal((6, D_H)), requires_grad=True)
    weights = Tensor(rng.standard_normal(D_H))
    with Tape() as tape:
        enc, beams = encode_bt_cell(leaves, grc, scorer, 1,
                                    rng=np.random.default_rng(14))
        tape.backward(T.tsum(T.mul(enc, weights)))
    assert len(beams) == 1 and len(beams.actions[0]) == 5
    assert np.any(scorer.W_v.grad != 0.0)


def test_bt_cell_two_tokens_no_score_increment():
    grc, scorer = _params(seed=8)
    leaves = _leaves(2, seed=9)
    enc, beams = encode_bt_cell(leaves, grc, scorer, 3)
    assert len(beams) == 1
    assert beams.scores.data[0] == 0.0
    assert beams.actions[0] == (0,)
    expect = np_grc(leaves.data[0], leaves.data[1], grc)
    assert np.max(np.abs(enc.data - expect)) <= 1e-9


def test_bt_cell_single_token_identity():
    grc, scorer = _params(seed=10)
    leaves = _leaves(1, seed=11)
    enc, beams = encode_bt_cell(leaves, grc, scorer, 2)
    assert np.array_equal(enc.data, leaves.data[0])
    assert beams.actions[0] == ()


# ---------------------------------------------------------------------------
# recurrent and fixed-tree encoders

def test_recurrent_equals_left_chain_fixed_tree():
    grc, _ = _params(seed=15)
    leaves = _leaves(6, seed=16)
    h0 = Tensor(np.random.default_rng(17).standard_normal(D_H))
    rec = encode_recurrent(leaves, grc, h0)
    # the fold from h0 is the left chain over h0 prepended to the leaves
    chained = Tensor(np.concatenate([h0.data[None, :], leaves.data]))
    chain = encode_fixed_tree(chained, [0] * 6, grc)
    assert np.max(np.abs(rec.data - chain.data)) <= 1e-12


def test_recurrent_initial_state_folded_first():
    grc, _ = _params(seed=18)
    leaves = _leaves(3, seed=19)
    h0 = Tensor(np.random.default_rng(20).standard_normal(D_H))
    out = encode_recurrent(leaves, grc, h0=h0)
    # R(R(R(h0, x0), x1), x2) computed against the reference cell
    state = h0.data
    for i in range(3):
        state = np_grc(state, leaves.data[i], grc)
    assert np.max(np.abs(out.data - state)) <= 1e-9


def test_fixed_tree_matches_reference_on_balanced():
    grc, _ = _params(seed=21)
    leaves = _leaves(4, seed=22)
    out = encode_fixed_tree(leaves, BALANCED_4, grc)
    l = np_grc(leaves.data[0], leaves.data[1], grc)
    r = np_grc(leaves.data[2], leaves.data[3], grc)
    assert np.max(np.abs(out.data - np_grc(l, r, grc))) <= 1e-9


@pytest.mark.parametrize("n", [1, 4, 7])
def test_fixed_tree_records_at_most_two_per_leaf(n):
    # node states are rows: one gather per leaf read, one record per cell,
    # and one reshape of the root row into the (d_h,) encoding; a left
    # child that is the whole previous height is read with no gather
    grc, _ = _params(seed=21)
    leaves = Tensor(_leaves(n, seed=22).data, requires_grad=True)
    with Tape() as tape:
        encode_fixed_tree(leaves, [0] * (n - 1), grc)
    assert len(tape.records) <= 2 * n


def test_fixed_tree_batch_records_as_many_as_its_tallest_tree():
    # one compose of one row gather (both children of every node) per
    # tree height, over every tree of the batch, and one gather of the
    # roots
    grc, _ = _params(seed=21)
    chain = [0] * 6  # height 6
    trees = [chain, BALANCED_4, chain, []]
    leaves = Tensor(_leaves(19, seed=22).data, requires_grad=True)
    with Tape() as tape:
        encoders.encode_fixed_tree(leaves, trees, grc)
    assert len(tape.records) <= 2 * 6 + 1


def test_fixed_tree_frees_the_cell_without_the_cycle_collector():
    # a reference cycle would keep the weights and their gradients alive
    # until the cyclic collector runs, which grows peak memory in training
    grc, _ = _params(seed=21)
    freed = weakref.ref(grc)
    gc.disable()
    try:
        with Tape():
            encode_fixed_tree(_leaves(4, seed=22), BALANCED_4, grc)
        del grc
        assert freed() is None
    finally:
        gc.enable()


def test_fixed_tree_rejects_leaf_mismatch():
    grc, _ = _params(seed=23)
    with pytest.raises(EncoderError):
        encode_fixed_tree(_leaves(3, seed=24), BALANCED_4, grc)


@pytest.mark.parametrize("actions", [[2, 0], [-1, 0], [0, 1]])
def test_fixed_tree_rejects_an_out_of_range_merge(actions):
    # three leaves take two merges, the first at 0 or 1, the second at 0
    grc, _ = _params(seed=23)
    with pytest.raises(TreeError, match="out of range"):
        encoders.encode_fixed_tree(_leaves(3, seed=24), [actions], grc)


# ---------------------------------------------------------------------------
# easy-first with straight-through selection

def test_easy_first_training_forward_is_hard():
    # the straight-through forward must equal evaluating the returned tree
    grc, scorer = _params(seed=25)
    leaves = _leaves(6, seed=26)
    enc, actions = encode_easy_first_gumbel(leaves, grc, scorer,
                                            rng=np.random.default_rng(3))
    fixed = encode_fixed_tree(leaves, actions, grc)
    assert np.max(np.abs(enc.data - fixed.data)) <= 1e-9


def test_easy_first_training_scorer_gets_gradient():
    # the root is layer-normed with gamma = 1, so the sum of its entries
    # is beta's sum whatever the scorer does: weight them instead
    grc, scorer = _params(seed=27)
    rng = np.random.default_rng(28)
    leaves = Tensor(rng.standard_normal((5, D_H)), requires_grad=True)
    weights = Tensor(rng.standard_normal(D_H))
    with Tape() as tape:
        enc, _ = encode_easy_first_gumbel(leaves, grc, scorer,
                                          rng=np.random.default_rng(1))
        tape.backward(T.tsum(T.mul(enc, weights)))
    assert np.max(np.abs(scorer.W_v.grad)) > 1e-3


def test_easy_first_eval_scorer_no_gradient():
    grc, scorer = _params(seed=29)
    leaves = _leaves(5, seed=30)
    with Tape() as tape:
        enc, _ = encode_easy_first_gumbel(leaves, grc, scorer)
        tape.backward(T.tsum(enc))
    assert np.all(scorer.W_v.grad == 0.0)


def test_easy_first_eval_deterministic():
    grc, scorer = _params(seed=31)
    leaves = _leaves(7, seed=32)
    a, ta = encode_easy_first_gumbel(leaves, grc, scorer)
    b, tb = encode_easy_first_gumbel(leaves, grc, scorer)
    assert np.array_equal(a.data, b.data)
    assert bracketed(ta, range(7)) == bracketed(tb, range(7))

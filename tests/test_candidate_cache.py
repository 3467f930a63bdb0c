"""The candidate cache of the beam-tree and easy-first encoders against the
full-recompose encoders in oracles.py, in training mode with gradients,
and the number of rows it composes."""

import numpy as np
import pytest

from oracles import full_recompose_bt_cell, full_recompose_easy_first_gumbel

from beamtree import encoders
from beamtree import tensor as T
from beamtree.cells import GrcParams, ScorerParams, TreeLstmParams
from beamtree.encoders import EncoderConfig, encode_bt_cell, \
    encode_easy_first_gumbel
from beamtree.tensor import Tape, Tensor

D_H = 4

# name -> training-mode config; `stochastic_topk` makes the branching and
# the truncation draw Gumbel noise from the rng
VARIANTS = {
    "bt-plain": EncoderConfig(beam_size=3, training=True,
                              stochastic_topk=False),
    "bt-plain-gumbel": EncoderConfig(beam_size=3, training=True,
                                     stochastic_topk=True),
    "bt-onesoft": EncoderConfig(beam_size=3, topk="onesoft", training=True,
                                stochastic_topk=False),
    "bt-onesoft-k2-gumbel": EncoderConfig(beam_size=2, topk="onesoft",
                                          training=True, stochastic_topk=True),
    "easy-first": EncoderConfig(beam_size=1, training=True, temperature=0.7),
}


def _model(cell, seed):
    rng = np.random.default_rng(seed)
    params = GrcParams.init(D_H, rng, np.float64) if cell == "grc" \
        else TreeLstmParams.init(D_H, rng, np.float64)
    return params, ScorerParams.init(D_H, rng, np.float64), rng


def _run(encode, variant, cell, n, seed):
    """Encoding, beam scores and actions, and every gradient of one
    training-mode forward and backward pass."""
    params, scorer, rng = _model(cell, seed)
    leaves = Tensor(rng.standard_normal((n, D_H)), requires_grad=True)
    weights = Tensor(rng.standard_normal(D_H))
    with Tape() as tape:
        enc, out = encode(leaves, params, scorer, VARIANTS[variant],
                          np.random.default_rng([seed, 1]))
        tape.backward(T.tsum(T.mul(enc, weights)))
    if variant == "easy-first":
        scores, actions = [], [out.to_string()]
    else:
        scores = [b.score.item() for b in out.beams]
        actions = [b.actions for b in out.beams]
    grads = {name: p.grad.copy() for name, p in
             {**params.named(), **scorer.named(), "leaves": leaves}.items()}
    return enc.data, np.array(scores), actions, grads


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("cell", ["grc", "lstm"])
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
def test_cached_candidates_match_full_recompose_in_training(variant, cell, n):
    cached, oracle = (encode_easy_first_gumbel,
                      full_recompose_easy_first_gumbel) \
        if variant == "easy-first" else (encode_bt_cell, full_recompose_bt_cell)
    enc, scores, actions, grads = _run(cached, variant, cell, n, seed=n)
    enc_o, scores_o, actions_o, grads_o = _run(oracle, variant, cell, n, seed=n)
    assert actions == actions_o
    assert np.max(np.abs(enc - enc_o)) <= 1e-12
    assert scores.shape == scores_o.shape
    assert np.max(np.abs(scores - scores_o), initial=0.0) <= 1e-12
    for name, g in grads_o.items():
        scale = max(np.max(np.abs(g)), 1e-300)
        assert np.max(np.abs(grads[name] - g)) / scale <= 1e-10, name
    assert np.any(grads_o["leaves"] != 0.0)


def test_bt_cell_composes_rows_linear_in_length(monkeypatch):
    n, k = 40, 3
    params, scorer, rng = _model("grc", seed=0)
    leaves = Tensor(rng.standard_normal((n, D_H)))
    cfg = EncoderConfig(beam_size=k, training=False)
    rows = []
    compose = encoders._compose

    def counted(left, right, cell):
        rows.append(left.data.shape[0] if left.data.ndim == 2 else 1)
        return compose(left, right, cell)

    monkeypatch.setattr(encoders, "_compose", counted)
    enc, _ = encode_bt_cell(leaves, params, scorer, cfg)
    cached_rows = sum(rows)
    rows.clear()
    enc_o, _ = full_recompose_bt_cell(leaves, params, scorer, cfg)
    full_rows = sum(rows)
    assert np.max(np.abs(enc.data - enc_o.data)) <= 1e-12
    # n - 1 leaf pairs, then at most two new candidates per kept beam on
    # each of the n - 3 steps that leave three or more nodes, then the k
    # roots of the last step's two-node beams
    assert cached_rows <= (n - 1) + 2 * k * (n - 3) + k
    assert full_rows > 5 * cached_rows, (cached_rows, full_rows)

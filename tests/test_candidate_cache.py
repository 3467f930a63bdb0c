"""The stacked beams and candidate cache of the beam-tree and easy-first
encoders against the full-recompose encoders in oracles.py, with
gradients, mostly in training mode, the number of rows they compose, and
the node signatures of evaluation's searches."""

import collections
import itertools

import numpy as np
import pytest

from one_example import encode_bt_cell, encode_easy_first_gumbel
from oracles import full_recompose_bt_cell, full_recompose_easy_first_gumbel

from beamtree import encoders
from beamtree import tensor as T
from beamtree.cells import GrcParams, ScorerParams
from beamtree.tensor import Tape, Tensor
from beamtree.trees import bracketed

D_H = 4

# name -> (beam size, onesoft, gumbel): with `gumbel` the encoder is given
# an rng, so the branching and the plain truncation draw Gumbel noise and
# one beam selects by straight-through Gumbel
VARIANTS = {
    "bt-plain": (3, False, False),
    "bt-plain-gumbel": (3, False, True),
    "bt-onesoft": (3, True, False),
    "bt-onesoft-k2-gumbel": (2, True, True),
    "bt-k5-eval": (5, False, False),
    "bt-k5-gumbel": (5, False, True),
    "easy-first": (1, False, True),
}


def _stale(search):
    """The slots a search about to compose lists as stale, as (beam,
    column) pairs below each beam's m; a slot beside a first or last node,
    which has no pair, is past m or the last column of the beam before."""
    width = search.cand_rows.shape[1]
    return [(b, s) for b, s in (divmod(int(f), width) for f in search.stale)
            if 0 <= b and s < search.m[b]]


def _model(seed):
    rng = np.random.default_rng(seed)
    params = GrcParams.init(D_H, rng, np.float64)
    return params, ScorerParams.init(D_H, rng, np.float64), rng


def _run(encode, variant, n, seed, repeated=False):
    """Encoding, beam scores and actions, and every gradient of one
    training-mode forward and backward pass. With `repeated` the leaves are
    rows of a three-token vocabulary, as an embedding lookup of a sequence
    with repeated tokens gives, so equal pairs make equal candidates."""
    params, scorer, rng = _model(seed)
    rows = rng.standard_normal((3 if repeated else n, D_H))
    if repeated:
        rows = rows[rng.integers(0, 3, size=n)]
    leaves = Tensor(rows, requires_grad=True)
    weights = Tensor(rng.standard_normal(D_H))
    k, onesoft, gumbel = VARIANTS[variant]
    noise = np.random.default_rng([seed, 1]) if gumbel else None
    with Tape() as tape:
        if variant == "easy-first":
            enc, out = encode(leaves, params, scorer, rng=noise)
        else:
            enc, out = encode(leaves, params, scorer, k, onesoft, noise)
        tape.backward(T.tsum(T.mul(enc, weights)))
    if variant == "easy-first":
        scores, actions = [], [bracketed(out, range(n))]
    else:
        scores, actions = out.scores.data, out.actions
    grads = {name: p.grad.copy() for name, p in
             {**params.named(), **scorer.named(), "leaves": leaves}.items()}
    return enc.data, np.array(scores), actions, grads


# at the short lengths the first steps' pools hold no more candidates than
# the beam, so they keep every one and OneSoft has no tail (at 2 and 3
# tokens no step truncates); 2 tokens make a single merge
LENGTHS = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("n,repeated", [
    *(pytest.param(n, False, id=f"{n}-grc") for n in LENGTHS),
    *(pytest.param(n, True, id=f"{n}-grc-repeated") for n in LENGTHS)])
def test_cached_candidates_match_full_recompose_in_training(variant, n,
                                                            repeated):
    cached, oracle = (encode_easy_first_gumbel,
                      full_recompose_easy_first_gumbel) \
        if variant == "easy-first" else (encode_bt_cell, full_recompose_bt_cell)
    enc, scores, actions, grads = _run(cached, variant, n, n, repeated)
    enc_o, scores_o, actions_o, grads_o = _run(oracle, variant, n, n,
                                               repeated)
    assert actions == actions_o
    assert np.max(np.abs(enc - enc_o)) <= 1e-12
    assert scores.shape == scores_o.shape
    assert np.max(np.abs(scores - scores_o), initial=0.0) <= 1e-12
    # each gradient is measured against its own scale, but for one whose
    # reference is zero up to rounding (when every final beam is the same
    # tree, the beam scores get none): both must then be at rounding level
    rounding = 1e-12 * max(np.max(np.abs(g)) for g in grads_o.values())
    for name, g in grads_o.items():
        scale = np.max(np.abs(g))
        if scale <= rounding:
            assert np.max(np.abs(grads[name])) <= rounding, name
            continue
        assert np.max(np.abs(grads[name] - g)) / scale <= 1e-10, name
    assert np.any(grads_o["leaves"] != 0.0)


def test_bt_cell_composes_rows_linear_in_length(monkeypatch):
    n, k = 40, 3
    params, scorer, rng = _model(seed=0)
    leaves = Tensor(rng.standard_normal((n, D_H)))
    rows = []
    compose = encoders.grc_compose

    def counted(children, cell):
        rows.append(children.data.shape[0])
        return compose(children, cell)

    monkeypatch.setattr(encoders, "grc_compose", counted)
    enc, _ = encode_bt_cell(leaves, params, scorer, k)
    cached_rows = sum(rows)
    rows.clear()
    enc_o, _ = full_recompose_bt_cell(leaves, params, scorer, k)
    full_rows = sum(rows)
    assert np.max(np.abs(enc.data - enc_o.data)) <= 1e-12
    # n - 1 leaf pairs, then at most two new candidates per kept beam on
    # each of the n - 3 steps that leave three or more nodes, then the k
    # roots of the last step's two-node beams
    assert cached_rows <= (n - 1) + 2 * k * (n - 3) + k
    assert full_rows > 5 * cached_rows, (cached_rows, full_rows)


@pytest.mark.parametrize("k,onesoft,rngs", [
    pytest.param(3, False, True, id="bt-k3-plain"),
    pytest.param(2, True, True, id="bt-k2-onesoft"),
    pytest.param(3, True, True, id="bt-k3-onesoft"),
    pytest.param(1, False, True, id="gumbel"),
    pytest.param(5, False, False, id="eval-k5")])
def test_stale_marks_are_all_composed_and_nothing_else(k, onesoft, rngs,
                                                       monkeypatch):
    # one batch of mixed lengths: the search lists its stale slots beam by
    # beam and left to right, its beams hold -1 past their nodes, after
    # every compose no candidate below a beam's m is -1, every candidate is
    # the cell over its beam's two adjacent nodes, and the rows composed
    # are the distinct pairs of node rows among the listed slots that no
    # earlier compose made, so no padding slot and no pair is ever composed
    # twice
    lengths = [1, 2, 3, 9]
    params, scorer, rng = _model(seed=4)
    leaves = Tensor(rng.standard_normal((sum(lengths), D_H)))
    composed, marked, widest, made = [], [], [], set()
    cell, compose = encoders.grc_compose, encoders._BeamBatch.compose

    def counted(children, p):
        composed.append(children.data.shape[0])
        return cell(children, p)

    def checked(search):
        slots = _stale(search)
        assert slots == sorted(set(slots))  # beam by beam, left to right
        nodes = search.node_rows.tolist()
        # past its nodes a beam holds -1, so a listed slot beside its first
        # or last node reads no pair
        assert all(set(row[m_b + 1:]) <= {-1}
                   for row, m_b in zip(nodes, search.m.tolist()))
        new = {(nodes[b][s], nodes[b][s + 1]) for b, s in slots} - made
        made.update(new)
        marked.append(len(new))
        widest.append(max(collections.Counter(b for b, _ in slots).values(),
                          default=0))
        compose(search)
        for nodes, cands, m_b in zip(search.node_rows, search.cand_rows,
                                     search.m.tolist()):
            if not m_b:  # a one-leaf example: its root is its leaf
                continue
            assert (cands[:m_b] >= 0).all()
            got = search.nodes.gather(cands[:m_b]).data
            pairs = search.nodes.gather(np.stack([nodes[:m_b],
                                                  nodes[1:m_b + 1]], 1))
            assert np.max(np.abs(got - cell(pairs, params).data)) <= 1e-12

    monkeypatch.setattr(encoders, "grc_compose", counted)
    monkeypatch.setattr(encoders._BeamBatch, "compose", checked)
    noise = [np.random.default_rng([4, e]) for e in range(len(lengths))] \
        if rngs else None
    enc, beams = encoders.encode_bt_cell(leaves, lengths, params, scorer, k,
                                         onesoft, noise)
    assert enc.data.shape == (len(lengths), D_H)
    assert [len(b.actions[0]) for b in beams] == [0, 1, 2, 8]
    # the first compose is every pair of the batch, 0 + 1 + 2 + 8 of them
    assert marked[0] == composed[0] == 11
    assert sum(composed) == sum(marked)
    assert composed == [n for n in marked if n]
    # after the first, a merge marks at most the two pairs beside it; only
    # OneSoft's collapsed beams are marked whole
    assert (max(widest[1:]) > 2) == onesoft


@pytest.mark.parametrize("k,rngs", [(2, True), (3, True), (3, False)])
def test_each_beam_lists_the_pairs_its_step_made(k, rngs, monkeypatch):
    # the slots listed below a beam's m are every slot at the first step
    # and of each beam OneSoft interpolates, and otherwise exactly the
    # in-range ones of the two beside the beam's merge
    lengths = [3, 6, 9, 12]
    params, scorer, rng = _model(seed=5)
    leaves = Tensor(rng.standard_normal((sum(lengths), D_H)))
    tails, checked_tails, calls = [], [], []
    compose, collapse = encoders._BeamBatch.compose, \
        encoders._BeamBatch.collapse

    def recorded(search, t, *args):
        tails.append(t.tolist())
        return collapse(search, t, *args)

    def checked(search):
        listed = collections.defaultdict(set)
        for b, s in _stale(search):
            listed[b].add(s)
        first = not calls  # the compose of `__init__`
        calls.append(search.steps)
        interpolated = set(tails.pop()) if tails else set()
        checked_tails.extend(interpolated)
        for b, m_b in enumerate(search.m.tolist()):
            pos = int(search.actions[b, search.steps])
            expect = range(m_b) if first or b in interpolated \
                else {pos - 1, pos} & set(range(m_b))
            assert listed[b] == set(expect), (b, search.steps)
        compose(search)

    monkeypatch.setattr(encoders._BeamBatch, "compose", checked)
    monkeypatch.setattr(encoders._BeamBatch, "collapse", recorded)
    noise = [np.random.default_rng([5, e]) for e in range(len(lengths))] \
        if rngs else None
    encoders.encode_bt_cell(leaves, lengths, params, scorer, k, True, noise)
    assert checked_tails and not tails  # every collapse was checked


def _eval_search(tokens, k, seed):
    """A finished evaluation search (no tape, no rngs) over token
    sequences whose leaves are rows of a three-row vocabulary."""
    params, scorer, rng = _model(seed)
    vocab = rng.standard_normal((3, D_H))
    leaves = Tensor(vocab[[t for ids in tokens for t in ids]])
    search = encoders._BeamBatch(leaves, [len(ids) for ids in tokens],
                                 params, scorer)
    while search.step(k, False, None):
        pass
    return search


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roots_share_a_signature_exactly_when_their_trees_are_equal(k, seed):
    # a node's signature is its row: over the final beams of a batch, two
    # roots are one row if and only if they are the same tree over the
    # same tokens, in one example or two
    rng = np.random.default_rng([seed, 7])
    tokens = [rng.integers(0, 3, size=n).tolist()
              for n in (1, 2, 4, 6, 6, 9, 12)]
    tokens += [[tokens[0][0]], tokens[4]]  # the same rows again
    search = _eval_search(tokens, k, seed)
    roots, trees = [], []
    for ids, (rows, _, actions) in zip(tokens, search.done):
        roots += rows.tolist()
        trees += [bracketed(acts, ids) for acts in actions]
    shared = 0
    for (r1, t1), (r2, t2) in itertools.combinations(zip(roots, trees), 2):
        assert (r1 == r2) == (t1 == t2), (t1, t2)
        shared += r1 == r2
    # the repeated rows' roots at least
    assert shared >= 1 + len(search.done[4][0])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_an_eval_search_composes_one_row_per_distinct_subtree(k,
                                                              monkeypatch):
    # a row of repeated spans: every subtree the search makes is one row,
    # composed once, however many beams and places make it
    ids = [0, 1, 2, 0, 1, 2, 2, 0, 1, 2, 0, 1, 2, 1]
    terms = {i: str(t) for i, t in enumerate(ids)}  # row -> its subtree
    composed, marked = [], []
    compose = encoders._BeamBatch.compose

    def checked(search):
        stale = _stale(search)
        first = search.nodes.size
        compose(search)
        composed.extend(range(first, search.nodes.size))
        marked.append(len(stale))
        for b, s in stale:
            left, right = search.node_rows[b, s:s + 2]
            term = f"({terms[left]} {terms[right]})"
            assert terms.setdefault(search.cand_rows[b, s], term) == term

    monkeypatch.setattr(encoders._BeamBatch, "compose", checked)
    _eval_search([ids], k, seed=3)
    assert len({terms[row] for row in composed}) == len(composed)
    assert len(composed) < sum(marked)

"""Independent reference implementations used to cross-check the package:
a plain-numpy gated cell, exhaustive enumeration of every merge-order
derivation, and a stack-machine ListOps interpreter. These deliberately
avoid the package's tensor machinery and use different library routines
(norm.cdf, expit, scipy log_softmax) for the nonlinearities.

The gated cell composed from tensor primitives and the encoders at the end
are the exceptions. The composed cell is `cells.grc_compose` as it was
before it became one tape primitive. The full-recompose encoders are the
beam-tree and easy-first encoders as they were before candidate caching,
beam stacking and index-group truncation, composing every adjacent pair of
every beam on every step, splicing each beam's rows on its own and
interpolating OneSoft's dropped beams one at a time, merging the final
beams one at a time. All of them run on the package's tape, so the fused
cell's and the stacked encoders' outputs and gradients can be checked
against them. So do the per-example encoders and loss at the end: the
encoders as they were before they ran a whole batch at once, one example
at a time, the reference for the batched forward, its actions, losses and
gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.special import log_softmax as sp_log_softmax
from scipy.stats import norm

from beamtree import encoders
from beamtree import tensor as T
from beamtree.cells import grc_compose, score
from beamtree.listops import gold_tree_listops, tokenize
from beamtree.tensor import Tensor
from beamtree.topk import BeamSet, gumbel_noise, plain_topk, truncate
from beamtree.trees import replay_actions


def concat(tensors: list, axis: int = 0) -> Tensor:
    """The tape primitive joining tensors along `axis`."""
    if not tensors:
        raise T.TensorError("concat of empty list")
    datas = [t.data for t in tensors]
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def vjp(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(datas)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return T._make(np.concatenate(datas, axis=axis), tuple(tensors), vjp)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """The tape primitive taking rows start..stop-1 of `a`."""

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return T._make(a.data[start:stop].copy(), (a,), vjp)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """The tape primitive taking columns start..stop-1 of a matrix."""
    if a.data.ndim != 2:
        raise T.TensorError("slice_cols expects a 2-D input")

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        return (ga,)

    return T._make(a.data[:, start:stop].copy(), (a,), vjp)


def np_grc(l, r, p):
    x = np.concatenate([l, r])
    hidden = x @ p.W1.data + p.b1.data
    hidden = hidden * norm.cdf(hidden)
    gates = hidden @ p.W2.data + p.b2.data
    d = p.d_h
    z, h, c, u = gates[:d], gates[d:2 * d], gates[2 * d:3 * d], gates[3 * d:]
    mix = expit(z) * l + expit(h) * r + expit(c) * u
    mu, var = mix.mean(), mix.var()
    return (mix - mu) / np.sqrt(var + 1e-5) * p.gamma.data + p.beta.data


def composed_grc(children, p):
    """`cells.grc_compose` as a chain of tensor primitives (matmul, GELU,
    slices, sigmoids, products, layer norm), each with its own vjp: the
    reference for the fused cell's values and gradients."""
    d = p.d_h
    left, right = slice_cols(children, 0, d), slice_cols(children, d, 2 * d)
    hidden = T.gelu(T.add_rowvec(T.matmul(children, p.W1), p.b1))
    gates = T.add_rowvec(T.matmul(hidden, p.W2), p.b2)
    z, h, c, u = (slice_cols(gates, i * d, (i + 1) * d) for i in range(4))
    mix = T.add(
        T.add(T.mul(T.sigmoid(z), left), T.mul(T.sigmoid(h), right)),
        T.mul(T.sigmoid(c), u),
    )
    return T.layer_norm(mix, p.gamma, p.beta)


def compose(left, right, cell):
    """`grc_compose` of the row pairs (left[i], right[i]), the children
    joined side by side on the tape."""
    return grc_compose(concat([left, right], axis=1), cell)


def np_score(v, scorer):
    return float(v @ scorer.W_v.data[:, 0])


def enumerate_merge_derivations(leaves, cell, scorer):
    """All merge-order derivations as (actions, log_prob, encoding): at each
    step every adjacent pair may merge, scored by log-softmax over candidate
    scores; the final two-node merge adds no score. The encoding is the
    root's state."""
    results = []

    def go(nodes, logp, actions):
        if len(nodes) == 1:
            results.append((tuple(actions), logp, nodes[0]))
            return
        parents = [np_grc(nodes[i], nodes[i + 1], cell)
                   for i in range(len(nodes) - 1)]
        if len(nodes) == 2:
            go([parents[0]], logp, actions + [0])
            return
        scores = sp_log_softmax(np.array([np_score(p, scorer)
                                          for p in parents]))
        for i, parent in enumerate(parents):
            go(nodes[:i] + [parent] + nodes[i + 2:], logp + scores[i],
               actions + [i])

    go(list(leaves), 0.0, [])
    return results


def stack_machine_eval(source: str) -> int:
    """Independent single-pass ListOps interpreter: push tokens, reduce
    on ']'."""
    stack = []
    for tok in source.split():
        if tok != "]":
            stack.append(tok)
            continue
        args = []
        while not stack[-1].startswith("["):
            args.append(int(stack.pop()))
        op = stack.pop()[1:]
        args.reverse()
        if op == "MAX":
            val = max(args)
        elif op == "MIN":
            val = min(args)
        elif op == "SM":
            val = sum(args) % 10
        elif op == "MED":
            s = sorted(args)
            val = s[(len(s) - 1) // 2]
        else:
            raise ValueError(op)
        stack.append(str(val))
    assert len(stack) == 1
    return int(stack[0])


# ---------------------------------------------------------------------------
# full-recompose encoders

def _softmax(a: Tensor) -> Tensor:
    """Softmax of the 1-D `a`, as one run of `T.segment_softmax`."""
    return T.segment_softmax(a, [a.data.shape[0]])


def _candidates(states, cell):
    """Parent states of every adjacent pair of `states`. `grc_compose` is
    looked up on the encoders module at call time, so a test can count its
    rows."""
    n = states.data.shape[0]
    return encoders.grc_compose(concat([slice_rows(states, 0, n - 1),
                                        slice_rows(states, 1, n)], axis=1),
                                cell)


def _splice_rows(mat, start, stop, rows):
    """Replace rows start..stop-1 of `mat` with `rows`."""
    n = mat.data.shape[0]
    parts = []
    if start > 0:
        parts.append(slice_rows(mat, 0, start))
    parts.append(rows)
    if stop < n:
        parts.append(slice_rows(mat, stop, n))
    return parts[0] if len(parts) == 1 else concat(parts, axis=0)


def full_recompose_easy_first_gumbel(leaves, cell, scorer, rng=None):
    """`encoders.encode_easy_first_gumbel` recomposing every adjacent pair
    on every step, straight-through Gumbel when given an rng. Returns
    (vector, merge actions)."""
    nodes = leaves
    actions = []
    while nodes.data.shape[0] > 2:
        parents = _candidates(nodes, cell)
        raw = score(parents, scorer)
        if rng is not None:
            noise = gumbel_noise(raw.data.size, rng).astype(raw.data.dtype)
            perturbed = T.add(raw, Tensor(noise))
            hard = int(np.argmax(perturbed.data))
            soft = _softmax(perturbed)
            onehot = np.zeros(raw.data.size, dtype=raw.data.dtype)
            onehot[hard] = 1.0
            ste = T.add(Tensor(onehot), T.sub(soft, Tensor(soft.data.copy())))
            parent = T.matmul(T.reshape(ste, (1, -1)), parents)
        else:
            hard = int(np.argmax(raw.data))
            parent = slice_rows(parents, hard, hard + 1)
        nodes = _splice_rows(nodes, hard, hard + 2, parent)
        actions.append(hard)
    if nodes.data.shape[0] == 2:
        nodes = compose(slice_rows(nodes, 0, 1), slice_rows(nodes, 1, 2),
                        cell)
        actions.append(0)
    return T.reshape(nodes, (-1,)), actions


@dataclass
class Beam:
    """One beam of the full-recompose encoder: its node states, (1,) score
    and the merge actions that produced it."""

    nodes: Tensor
    score: Tensor
    actions: tuple = ()


def merge_beams_one_by_one(encodings, scores):
    """sum_i softmax(scores)_i * encodings[i] over lists of beam encodings
    and (1,) scores, with a gather/mul/add chain per beam."""
    if len(encodings) != len(scores) or not encodings:
        raise ValueError("merge_beams_one_by_one needs matching non-empty lists")
    if len(encodings) == 1:
        return encodings[0]
    w = _softmax(concat(scores, axis=0))
    out = None
    for i, o in enumerate(encodings):
        part = T.mul(o, T.rows_gather(w, [i]))
        out = part if out is None else T.add(out, part)
    return out


def truncate_beams(pool, k, onesoft=False, rng=None):
    """The beam-tree truncation over whole beams, one at a time: hard top-k,
    Gumbel-perturbed when given an rng, or with `onesoft` the top k-1 beams
    and one interpolated beam. That beam is the
    softmax(score)-weighted sum of the other beams' nodes and scores, built
    with a gather/mul/add chain per beam in pool order, and carries the
    actions of its best member."""
    m = len(pool)
    if k >= m:
        return pool
    scores = [b.score.item() for b in pool]
    if not onesoft:
        return [pool[i] for i in plain_topk(scores, k, rng)]
    top = plain_topk(scores, k - 1)
    bottom = [b for i, b in enumerate(pool) if i not in top]
    weights = _softmax(concat([b.score for b in bottom], axis=0))
    nodes = total = None
    for i, b in enumerate(bottom):
        w = T.rows_gather(weights, [i])
        part, part_score = T.mul(b.nodes, w), T.mul(b.score, w)
        nodes = part if nodes is None else T.add(nodes, part)
        total = part_score if total is None else T.add(total, part_score)
    best = max(range(len(bottom)),
               key=lambda i: (bottom[i].score.item(), -i))
    return [pool[i] for i in top] + [
        Beam(nodes=nodes, score=total, actions=bottom[best].actions)]


def full_recompose_bt_cell(leaves, cell, scorer, k, onesoft=False, rng=None):
    """`encoders.encode_bt_cell` recomposing every adjacent pair of every
    beam on every step, building every pooled beam before truncation and
    truncating whole beams with `truncate_beams` and merging the final
    beams with `merge_beams_one_by_one`. Returns (encoding, final stacked
    BeamSet)."""
    zero = Tensor(np.zeros(1, dtype=leaves.data.dtype))
    beams = [Beam(nodes=leaves, score=zero)]
    while beams[0].nodes.data.shape[0] > 2:
        pool = []
        for beam in beams:
            parents = _candidates(beam.nodes, cell)
            logp = T.log_softmax(score(parents, scorer))
            for i in plain_topk(logp.data, k, rng):
                pool.append(Beam(
                    nodes=_splice_rows(beam.nodes, i, i + 2,
                                       slice_rows(parents, i, i + 1)),
                    score=T.add(beam.score, T.rows_gather(logp, [i])),
                    actions=beam.actions + (i,)))
        beams = truncate_beams(pool, k, onesoft, rng)
    roots, actions = [], []
    for beam in beams:
        root, acts = beam.nodes, beam.actions
        if root.data.shape[0] == 2:
            root = compose(slice_rows(root, 0, 1), slice_rows(root, 1, 2),
                           cell)
            acts += (0,)
        roots.append(T.reshape(root, (-1,)))
        actions.append(acts)
    scores = [beam.score for beam in beams]
    encoding = merge_beams_one_by_one(roots, scores)
    return encoding, BeamSet(concat([T.reshape(r, (1, -1)) for r in roots]),
                             concat(scores), actions)


# ---------------------------------------------------------------------------
# per-example encoders and loss

# The package's encoders run a whole batch at once. These are the encoders
# as they were before: one example at a time, with the beam-tree beams
# stacked as one node and one candidate matrix per example, rebuilt with row
# gathers on every merge, and the per-example leaf transform, head and loss.

def _merge(nodes: Tensor, length: int, merged: Tensor, picks: list) -> Tensor:
    """Stacked nodes after one merge per beam, in one gather. picks[r] is
    (b, i, m): beam r is beam b of `nodes` (`length` rows each) with its
    nodes i and i+1 replaced by row m of `merged`."""
    base = nodes.data.shape[0]
    ids = []
    for b, i, m in picks:
        start = b * length
        ids += [*range(start, start + i), base + m,
                *range(start + i + 2, start + length)]
    return T.rows_gather(concat([nodes, merged], axis=0), ids)


def _pairs(nodes: Tensor, length: int, cands: Tensor | None, merges: list,
           cell: GrcParams):
    """Stacked candidate parents, (B*(length-1), width), of the stacked
    beams `nodes`, `length` rows each. merges[r] = (b, i, ...) says beam r
    is beam b of `cands` after merging its nodes i and i+1, so only the
    pairs beside the merged node are new; None says all pairs of beam r are
    new. The new pairs are composed in one `grc_compose` call. With two nodes
    per beam this is the (B, width) matrix of roots; with one, `nodes`."""
    if length == 1:
        return nodes
    windows = [(0, length - 1) if merge is None else
               (max(merge[1] - 1, 0), min(merge[1] + 1, length - 1))
               for merge in merges]
    if len(merges) == 1 and windows[0][1] - windows[0][0] == 1:
        # BLAS multiplies a lone row with another kernel, and other rounding,
        # than a matrix. A lone new candidate is composed with a neighbour,
        # whose cached row this recomputes bit for bit, so every candidate
        # keeps the bits it has in a beam's full candidate matrix.
        lo, hi = windows[0]
        windows[0] = (lo - 1, hi) if lo > 0 else (lo, hi + 1)
    base = 0 if cands is None else cands.data.shape[0]
    lefts, ids = [], []  # left node of each new pair; row of each candidate
    for r, ((lo, hi), merge) in enumerate(zip(windows, merges)):
        for j in range(length - 1):
            if lo <= j < hi:
                ids.append(base + len(lefts))
                lefts.append(r * length + j)
            else:
                b, i = merge[:2]
                ids.append(b * length + j + (j > i))
    lefts = np.array(lefts)
    new = compose(T.rows_gather(nodes, lefts),
                  T.rows_gather(nodes, lefts + 1), cell)
    if len(lefts) == len(ids):
        return new
    return T.rows_gather(concat([cands, new], axis=0), ids)


def fold_recurrent(leaves: Tensor, cell: GrcParams, h0: Tensor) -> Tensor:
    """Left-to-right fold of the cell from the learned initial state h0,
    folded as R(h0, first_leaf)."""
    n = leaves.data.shape[0]
    if n < 1:
        raise encoders.EncoderError("empty input")
    state = T.reshape(h0, (1, -1))
    for i in range(n):
        state = compose(state, slice_rows(leaves, i, i + 1), cell)
    return T.reshape(state, (-1,))


def walk_fixed_tree(leaves: Tensor, actions, cell: GrcParams) -> Tensor:
    """Bottom-up evaluation of the cell along the tree the merge actions
    make, one node per `compose` call, in the order of the merges."""
    return T.reshape(replay_actions(
        leaves.data.shape[0], actions,
        lambda i: slice_rows(leaves, i, i + 1),
        lambda left, right: compose(left, right, cell)), (-1,))


def stacked_easy_first_gumbel(leaves, cell, scorer, rng=None):
    """`stacked_bt_cell` with one beam. Returns (vector, merge actions)."""
    enc, beams = stacked_bt_cell(leaves, cell, scorer, 1, rng=rng)
    return enc, beams.actions[0]


def stacked_bt_cell(leaves: Tensor, cell: GrcParams, scorer: ScorerParams,
                   k: int, onesoft: bool = False,
                   rng: np.random.Generator | None = None):
    """Beam-search extension of easy-first composition.

    Per iteration each beam scores all adjacent parent candidates, scores
    are log-softmaxed into per-branch log-probability increments, and each
    beam branches over its top-k candidates into a pool of (beam, i) merges
    with a (m,) vector of accumulated log-probabilities. `truncate` selects
    from those scores alone (OneSoft top-k when `onesoft`, else plain top-k)
    groups of pool indices, one per beam kept. Branching and plain
    truncation are Gumbel-perturbed when given an rng. The beams are stacked
    (see `_merge`), their scores one (B,) vector: one `score` call and one
    row-wise log-softmax cover all beams, the beams of the groups are one
    gather, and only the pairs beside each merged node are composed, in one
    call. Hard top-k builds only the k beams it keeps. OneSoft builds all,
    its last group's best first, and `collapse_tail` replaces that group
    with one softmax-weighted beam in one matmul; the interpolated beam
    carries its best member's actions, and every pair of it is composed.
    The beams stay stacked to the end: the last pairs of all beams are one
    `grc_compose` call, and the encoding is `merge_beams` of the (B, d_h)
    roots and (B,) scores.

    With one beam this is easy-first composition. `merge_beams` gives a
    lone beam's score no gradient, so one beam given an rng selects by
    straight-through Gumbel instead of branching and truncating: the
    forward commits to the argmax of the Gumbel-perturbed scores, the
    backward follows softmax(perturbed), and the merged row is that
    straight-through one-hot times the candidate matrix. Returns
    (encoding, final BeamSet)."""
    n = leaves.data.shape[0]
    if n < 1:
        raise encoders.EncoderError("empty input")
    nodes, length = leaves, n
    cands = _pairs(nodes, length, None, [None], cell)
    scores = Tensor(np.zeros(1, dtype=leaves.data.dtype))
    actions = [()]

    while length > 2:
        raw = score(cands, scorer)
        if k == 1 and rng is not None:
            # one beam, in training: straight-through Gumbel
            noise = gumbel_noise(raw.data.size, rng).astype(raw.data.dtype)
            perturbed = T.add(raw, Tensor(noise))
            hard = int(np.argmax(perturbed.data))
            soft = _softmax(perturbed)
            onehot = np.zeros(raw.data.size, dtype=raw.data.dtype)
            onehot[hard] = 1.0
            ste = T.add(Tensor(onehot), T.sub(soft, Tensor(soft.data.copy())))
            nodes = _merge(nodes, length,
                           T.matmul(T.reshape(ste, (1, -1)), cands),
                           [(0, hard, 0)])
            chosen = merges = [(0, hard)]
        else:
            logp = T.log_softmax(T.reshape(raw, (len(actions), length - 1)))
            pool = [(b, i) for b in range(len(actions)) for i in
                    plain_topk(logp.data[b], k, rng)]
            beam_ids = [b for b, _ in pool]
            cand_ids = [b * (length - 1) + i for b, i in pool]
            groups = truncate(
                scores.data[beam_ids] + logp.data.reshape(-1)[cand_ids], k,
                onesoft, rng)
            picks = [j for g in groups for j in g]
            nodes = _merge(nodes, length, cands,
                           [(*pool[j], cand_ids[j]) for j in picks])
            scores = T.add(T.rows_gather(scores, [beam_ids[j] for j in picks]),
                           T.rows_gather(T.reshape(logp, (-1,)),
                                         [cand_ids[j] for j in picks]))
            if len(groups[-1]) > 1:
                nodes, scores = stacked_collapse_tail(nodes, scores, len(groups[-1]))
            chosen = [pool[g[0]] for g in groups]
            # the interpolated beam comes from no merge: all its pairs are new
            merges = [c if len(g) == 1 else None
                      for c, g in zip(chosen, groups)]
        actions = [actions[b] + (i,) for b, i in chosen]
        length -= 1
        cands = _pairs(nodes, length, cands, merges, cell)

    if length == 2:
        actions = [a + (0,) for a in actions]
    return stacked_merge_beams(cands, scores), BeamSet(cands, scores, actions)


def stacked_collapse_tail(nodes: Tensor, scores: Tensor, count: int):
    """Stacked beams (`nodes` with an equal share of rows per entry of the
    (B,) `scores`) with the last `count` replaced by one beam, their
    softmax(score)-weighted sum, scored by the same weighted sum."""
    beams = scores.data.shape[0]
    keep = beams - count
    length = nodes.data.shape[0] // beams
    tail_scores = slice_rows(scores, keep, beams)
    w = _softmax(tail_scores)
    tail = T.reshape(slice_rows(nodes, keep * length, beams * length),
                     (count, -1))
    mixed = T.reshape(T.matmul(w, tail), (length, -1))
    mixed_score = T.reshape(T.matmul(w, tail_scores), (1,))
    return (concat([slice_rows(nodes, 0, keep * length), mixed], axis=0),
            concat([slice_rows(scores, 0, keep), mixed_score], axis=0))


def stacked_merge_beams(roots: Tensor, scores: Tensor) -> Tensor:
    """Expectation over stacked beam encodings: softmax(scores) @ roots, for
    (B, d_h) `roots` and (B,) `scores`."""
    if roots.data.shape[0] != scores.data.shape[0] or not scores.data.size:
        raise ValueError("merge_beams needs one score per root, and a root")
    return T.matmul(_softmax(scores), roots)


def per_example_leaves(token_ids, p: LeafParams, dropout_rate: float = 0.0,
                       rng: np.random.Generator | None = None):
    """Embed a token sequence and project to d_h: LN(embed(ids) @ projection).

    Dropout applies to the embeddings only when given an rng, in training.
    Returns (n, d_h).
    """
    emb = T.rows_gather(p.embedding, token_ids)
    if rng is not None and dropout_rate > 0.0:
        emb = T.dropout(emb, dropout_rate, [rng], [len(token_ids)])
    return T.layer_norm(T.matmul(emb, p.projection), p.gamma, p.beta)



def per_example_head(encoding: Tensor, head, dropout_rate: float = 0.0,
                     rng=None) -> Tensor:
    """Two-layer head: LN -> linear -> GELU -> dropout -> linear -> logits.
    Dropout applies only when given an rng, in training."""
    x = T.layer_norm(encoding, head.gamma, head.beta)
    x = T.gelu(T.add(T.matmul(x, head.W1), head.b1))
    if rng is not None and dropout_rate > 0.0:
        x = T.reshape(T.dropout(T.reshape(x, (1, -1)), dropout_rate, [rng],
                                [1]), (-1,))
    return T.add(T.matmul(x, head.W2), head.b2)




def per_example_loss(model, ex, training, rng):
    """The cross-entropy of one example through the per-example leaf
    transform, encoders and head, drawing from `rng` in the same order as
    the package: leaf dropout, the encoder's noise, head dropout."""
    cfg = model.cfg
    leaves = per_example_leaves(tokenize(ex.source), model.leaf, cfg.dropout,
                                rng)
    kind = cfg.encoder
    if kind == "recurrent":
        enc = fold_recurrent(leaves, model.cell, model.h0)
    elif kind == "gumbel":
        enc = stacked_easy_first_gumbel(leaves, model.cell, model.scorer,
                                        rng)[0]
    elif kind == "bt":
        enc = stacked_bt_cell(leaves, model.cell, model.scorer,
                              cfg.beam_size,
                              training and cfg.topk == "onesoft", rng)[0]
    else:
        tokens = ex.source.split()
        enc = walk_fixed_tree(leaves, gold_tree_listops(tokens), model.cell)
    logits = per_example_head(enc, model.head, cfg.dropout, rng)
    return T.neg(T.rows_gather(T.log_softmax(logits), [ex.label]))

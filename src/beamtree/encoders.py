"""Sequence-to-vector encoders over the gated recursive cell: recurrent
fold, beam-tree recursion with easy-first Gumbel composition as its one-beam
case, beam shift-reduce, and fixed-tree evaluation.

A node's state is its (1, d_h) row from the leaves to the root, and every
composition is one `grc_compose` call over row-aligned children. The beam
encoders hold an example's beams stacked, as rows of one matrix; the
encoders return their encoding as a (d_h,) vector.

The rng is the one switch for randomness: the latent-tree encoders draw
Gumbel noise (perturbed branching and truncation, and one beam's
straight-through selection) if and only if they are given an rng, so a
caller trains with one and evaluates without."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .cells import GrcParams, ScorerParams, grc_compose, score
from .tensor import Tensor
from .topk import BeamSet, collapse_tail, gumbel_noise, merge_beams, \
    plain_topk, truncate
from .trees import ParseTree, replay_actions


class EncoderError(Exception):
    pass


# The easy-first and beam-tree encoders stack their beams: B beams of L
# nodes are one (B*L, width) matrix of node states, one beam after another,
# and the candidate parents of their adjacent pairs one (B*(L-1), width)
# matrix. A merge step rebuilds both with row gathers.

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
    return T.rows_gather(T.concat([nodes, merged], axis=0), ids)


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
    new = grc_compose(T.rows_gather(nodes, lefts),
                      T.rows_gather(nodes, lefts + 1), cell)
    if len(lefts) == len(ids):
        return new
    return T.rows_gather(T.concat([cands, new], axis=0), ids)


# ---------------------------------------------------------------------------
# recurrent / fixed-tree encoders

def encode_recurrent(leaves: Tensor, cell: GrcParams, h0: Tensor) -> Tensor:
    """Left-to-right fold of the cell from the learned initial state h0,
    folded as R(h0, first_leaf)."""
    n = leaves.data.shape[0]
    if n < 1:
        raise EncoderError("empty input")
    state = T.reshape(h0, (1, -1))
    for i in range(n):
        state = grc_compose(state, T.slice_rows(leaves, i, i + 1), cell)
    return T.reshape(state, (-1,))


def encode_fixed_tree(leaves: Tensor, tree: ParseTree,
                      cell: GrcParams) -> Tensor:
    """Bottom-up evaluation of the cell along the given tree."""
    n = leaves.data.shape[0]
    if tree.n_leaves() != n:
        raise EncoderError(f"tree has {tree.n_leaves()} leaves for {n} tokens")
    if not tree.is_projective():
        raise EncoderError("non-projective tree")
    return T.reshape(_walk(tree, leaves, cell), (-1,))


def _walk(t: ParseTree, leaves: Tensor, cell: GrcParams) -> Tensor:
    # a module-level function, not a closure that refers to itself: such a
    # closure is a reference cycle that keeps `cell`, its weights and their
    # gradients alive until the cyclic garbage collector runs
    if t.is_leaf:
        return T.slice_rows(leaves, t.leaf, t.leaf + 1)
    return grc_compose(_walk(t.left, leaves, cell),
                       _walk(t.right, leaves, cell), cell)


# ---------------------------------------------------------------------------
# easy-first composition: beam-tree recursion with one beam

def encode_easy_first_gumbel(leaves: Tensor, cell: GrcParams,
                             scorer: ScorerParams,
                             rng: np.random.Generator | None = None):
    """Greedy easy-first composition (the Gumbel-Tree encoder):
    `encode_bt_cell` with one beam, straight-through Gumbel when given an
    rng. Returns (vector, tree)."""
    enc, beams = encode_bt_cell(leaves, cell, scorer, 1, rng=rng)
    return enc, replay_actions(leaves.data.shape[0], beams.actions[0])


# ---------------------------------------------------------------------------
# beam tree cell

def encode_bt_cell(leaves: Tensor, cell: GrcParams, scorer: ScorerParams,
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
        raise EncoderError("empty input")
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
            soft = T.softmax(perturbed)
            onehot = np.zeros(raw.data.size, dtype=raw.data.dtype)
            onehot[hard] = 1.0
            ste = T.add(Tensor(onehot), T.sub(soft, T.detach(soft)))
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
                nodes, scores = collapse_tail(nodes, scores, len(groups[-1]))
            chosen = [pool[g[0]] for g in groups]
            # the interpolated beam comes from no merge: all its pairs are new
            merges = [c if len(g) == 1 else None
                      for c, g in zip(chosen, groups)]
        actions = [actions[b] + (i,) for b, i in chosen]
        length -= 1
        cands = _pairs(nodes, length, cands, merges, cell)

    if length == 2:
        actions = [a + (0,) for a in actions]
    return merge_beams(cands, scores), BeamSet(cands, scores, actions)


# ---------------------------------------------------------------------------
# beam shift-reduce parser

@dataclass
class BsrpParams:
    W: Tensor  # (3*d_h, 1)
    b: Tensor  # (1,)

    @classmethod
    def init(cls, d_h: int, rng: np.random.Generator, dtype=np.float32):
        return cls(
            W=Tensor(T.glorot_uniform((3 * d_h, 1), rng, dtype), requires_grad=True),
            b=Tensor(np.zeros(1, dtype=dtype), requires_grad=True),
        )

    def named(self, prefix: str = "bsrp") -> dict:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}


def encode_bsrp(leaves: Tensor, cell: GrcParams, decision: BsrpParams,
                k: int, rng: np.random.Generator | None = None):
    """Beam search over shift-reduce derivations. The decision logit comes
    from a linear layer over [stack[-2]; stack[-1]; queue-front],
    zero for a missing slot; reduce scores log(sigmoid(logit)), shift
    log(1 - sigmoid(logit)). Invalid actions are masked out.

    The beams are stacked like `encode_bt_cell`'s: every node state is a row
    of one table whose row 0 is the zero state of an empty slot and rows
    1..n the leaves, and a beam's stack is a tuple of row ids. A step is one
    decision matmul over the gathered rows of all beams, and the pool, per
    beam its shift then its reduce, goes through one `plain_topk`,
    Gumbel-perturbed when given an rng; only the kept reduces are composed,
    in one `grc_compose` call whose parents are appended to the table.
    Returns (encoding, final BeamSet)."""
    n = leaves.data.shape[0]
    if n < 1:
        raise EncoderError("empty input")
    dtype = leaves.data.dtype
    table = T.concat([Tensor(np.zeros((1, leaves.data.shape[1]), dtype=dtype)),
                      leaves], axis=0)
    beams = [((), 0, ())]  # (stack row ids, queue position, actions)
    scores = Tensor(np.zeros(1, dtype=dtype))

    for _step in range(2 * n - 1):
        width = len(beams)
        ids = [r for stack, q, _ in beams
               for r in ((0, 0) + stack)[-2:] + (q + 1 if q < n else 0,)]
        x = T.reshape(T.rows_gather(table, ids), (width, -1))
        logit = T.reshape(T.add_rowvec(T.matmul(x, decision.W), decision.b),
                          (width,))
        # pool entry (b, a): beam b shifts (a = 0) or reduces (a = 1), and
        # its log-probability is row a * width + b of `logp`
        logp = T.concat([T.logsigmoid(T.neg(logit)), T.logsigmoid(logit)])
        pool = [(b, a) for b, (stack, q, _) in enumerate(beams)
                for a, ok in enumerate((q < n, len(stack) >= 2)) if ok]
        if not pool:
            raise EncoderError("no valid shift-reduce action")
        lp_ids = [a * width + b for b, a in pool]
        idx = plain_topk(scores.data[[b for b, _ in pool]] + logp.data[lp_ids],
                         k, rng)
        scores = T.add(T.rows_gather(scores, [pool[j][0] for j in idx]),
                       T.rows_gather(logp, [lp_ids[j] for j in idx]))
        kept = [pool[j] for j in idx]
        reduces = [beams[b][0][-2:] for b, a in kept if a]
        base = table.data.shape[0]
        if reduces:
            left, right = zip(*reduces)
            table = T.concat([table, grc_compose(T.rows_gather(table, left),
                                                 T.rows_gather(table, right),
                                                 cell)])
        new_beams = []
        for b, a in kept:
            stack, q, acts = beams[b]
            if a:
                new_beams.append((stack[:-2] + (base,), q, acts + ("r",)))
                base += 1
            else:
                new_beams.append((stack + (q + 1,), q + 1, acts + ("s",)))
        beams = new_beams

    roots = T.rows_gather(table, [stack[0] for stack, _, _ in beams])
    return merge_beams(roots, scores), \
        BeamSet(roots, scores, [acts for _, _, acts in beams])

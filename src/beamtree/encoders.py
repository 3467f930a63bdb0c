"""Sequence-to-vector encoders over the gated recursive cell, each run on a
whole batch of examples at once: recurrent fold, fixed-tree evaluation,
and beam-tree recursion with easy-first Gumbel composition as its one-beam
case. A single example is a batch of one.

The examples' leaves are one (total tokens, d_h) matrix, each example's
rows one after another, and `lengths` says how many rows each one has. A
node's state is a row, and every composition is one `grc_compose` call over
row-aligned children from all examples. The encoders return a
(examples, d_h) matrix of encodings.

The rng is the one switch for randomness: the latent-tree encoders draw
Gumbel noise (perturbed branching and truncation, and one beam's
straight-through selection) if and only if they are given rngs, one per
example, each drawing that example's noise in the order the example alone
would; a caller trains with them and evaluates without."""

from __future__ import annotations

from itertools import islice

import numpy as np

from . import tensor as T
from .cells import GrcParams, ScorerParams, grc_compose, score
from .tensor import Tensor
from .topk import BeamSet, collapse_tail, gumbel_noise, merge_beams, \
    plain_topk, tail_entries, truncate
from .trees import replay_actions


class EncoderError(Exception):
    pass


def _starts(lengths) -> list:
    """The first leaf row of each example; refuses an empty example."""
    if not len(lengths) or min(lengths) < 1:
        raise EncoderError("empty input")
    return np.cumsum([0, *lengths[:-1]]).tolist()


# ---------------------------------------------------------------------------
# recurrent / fixed-tree encoders

def encode_recurrent(leaves: Tensor, lengths, cell: GrcParams,
                     h0: Tensor) -> Tensor:
    """Left-to-right fold of the cell from the learned initial state h0,
    folded as R(h0, first leaf): each example is the left chain, merge
    actions [0] * n, over h0 and its n leaves, one compose per position
    over the examples at least that long."""
    starts = _starts(lengths)
    table = T.RowTable(leaves)
    h = table.append(T.reshape(h0, (1, -1)))
    return _compose_trees(
        table, [[h, *range(s, s + n)] for s, n in zip(starts, lengths)],
        [[0] * n for n in lengths], cell)


def encode_fixed_tree(leaves: Tensor, trees, cell: GrcParams) -> Tensor:
    """Bottom-up evaluation of the cell along each example's tree, given as
    its merge actions (as `BeamSet.actions` stores them and
    `listops.gold_tree_listops` returns them): n - 1 actions for an example
    of n leaves, which are its rows. One compose per tree height over the
    nodes of that height in all trees."""
    lengths = [len(actions) + 1 for actions in trees]
    if sum(lengths) != leaves.data.shape[0]:
        raise EncoderError(f"trees have {sum(lengths)} leaves for "
                           f"{leaves.data.shape[0]} tokens")
    return _compose_trees(
        T.RowTable(leaves), [range(s, s + n) for s, n in
                             zip(_starts(lengths), lengths)], trees, cell)


def _compose_trees(table: T.RowTable, items, trees, cell: GrcParams):
    """The root rows of trees over the rows of `table`, each example's
    first items the rows `items[e]`, merged by the actions `trees[e]` as
    `replay_actions` folds them. The merges go to the level of their
    height, in the order they are made, and each level is one
    `grc_compose` of one gather of its children."""
    levels = []  # levels[h - 1]: the nodes of height h

    # a node is (height, index): its row at height 0, else its place in its
    # level, which holds its (left, right)
    def join(left, right):
        height = max(left[0], right[0]) + 1
        if len(levels) < height:
            levels.append([])
        levels[height - 1].append((left, right))
        return height, len(levels[height - 1]) - 1

    roots = [replay_actions(len(rows), actions, lambda i: (0, rows[i]), join)
             for rows, actions in zip(items, trees)]
    firsts = [0]  # a node's row is firsts[height] + index
    for level in levels:
        firsts.append(table.append(grc_compose(table.gather(
            [(firsts[hl] + il, firsts[hr] + ir)
             for (hl, il), (hr, ir) in level]), cell)))
    return table.gather([firsts[h] + i for h, i in roots])


# ---------------------------------------------------------------------------
# easy-first composition: beam-tree recursion with one beam

def encode_easy_first_gumbel(leaves: Tensor, lengths, cell: GrcParams,
                             scorer: ScorerParams, rngs=None):
    """Greedy easy-first composition (the Gumbel-Tree encoder):
    `encode_bt_cell` with one beam, straight-through Gumbel when given
    rngs. Returns what that returns, (encodings, one BeamSet per example).
    A BeamSet's one `actions` is its tree, which `trees.replay_actions`
    folds and `trees.bracketed` prints."""
    return encode_bt_cell(leaves, lengths, cell, scorer, 1, rngs=rngs)


# ---------------------------------------------------------------------------
# beam tree cell

class _BeamBatch:
    """The beam-tree search state of a batch: the node table, the table of
    candidate scores aligned with it (0 for a row that is no candidate: the
    leaves, interpolated and straight-through nodes), the table of beam
    scores, and the beams of the examples still searching, one row each of
    the int arrays `node_rows` (-1 past the beam's nodes), `cand_rows` (the
    parents of adjacent pairs), `actions` (0 past the steps taken),
    `score_rows` and `m` (the number of candidates), an example's beams
    consecutive. Every beam of an example has its length less the steps
    taken as nodes; an example with at most two is done, and its roots,
    score rows and actions are set aside.

    `node_rows` and `cand_rows` start one column wider than the longest
    example, and each merge drops one column, so a beam's last column is
    always past its nodes. A slot is its flat index in both, as `take` and
    `put` read it. `stale` is the one record of the pairs not composed yet:
    their slots, beam by beam and left to right, each listed where its pair
    is made, and `compose` fills exactly those. The first step lists every
    slot below each beam's m, a merge the two beside its new node, and
    OneSoft's truncation every slot below m of an interpolated beam, with
    the merge slots of the beams it keeps whole.

    The search is hash-consed: a node's row is its signature, and one row
    stands for every equal node of the batch. Bit-identical leaf rows are
    one node, the first of them, unless the leaves are recorded on a tape,
    whose backward needs each leaf row's own gradient; then every leaf is
    its own node. `parents` maps each (left, right) pair of node rows
    composed so far to its parent's row, so equal subtrees, in any beam,
    example or place, are one row with one score. Interpolated and
    straight-through rows are new nodes, equal to no other."""

    def __init__(self, leaves: Tensor, lengths, cell: GrcParams,
                 scorer: ScorerParams):
        self.cell, self.scorer = cell, scorer
        dtype = leaves.data.dtype
        self.nodes = T.RowTable(leaves)
        self.cand_scores = T.RowTable(
            Tensor(np.zeros(leaves.data.shape[0], dtype)))
        # row e is the first beam of example e
        self.beam_scores = T.RowTable(Tensor(np.zeros(len(lengths), dtype)))
        self.lengths, self.steps = list(lengths), 0
        self.active = list(range(len(lengths)))  # the examples searching
        self.counts = [1] * len(lengths)  # their beams
        rows = np.arange(leaves.data.shape[0])
        if T.Tape._active is None or not leaves.requires_grad:
            first = {}
            rows = np.array([first.setdefault(row.tobytes(), i)
                             for i, row in enumerate(leaves.data)])
        starts, self.cols = _starts(lengths), np.arange(max(lengths) + 1)
        # shift[p]: the columns a beam keeps when its nodes p and p + 1 merge
        self.shift = self.cols + (self.cols > self.cols[:, None])
        self.m = np.subtract(lengths, 1)
        self.node_rows = np.where(self.cols <= self.m[:, None], rows.take(
            np.add.outer(starts, self.cols), mode="clip"), -1)
        self.parents = {}  # (left, right) signature -> the parent's row
        # every pair is stale; the root of a one-leaf example is its leaf
        self.cand_rows = self.node_rows.copy()
        self.stale = np.flatnonzero(self.cols < self.m[:, None])
        self.actions = np.zeros_like(self.node_rows)
        self.score_rows = np.arange(len(lengths))
        self.done = [None] * len(lengths)
        self.compose()
        self.retire()

    def compose(self):
        """Fill the slots `stale` lists, in its order. A slot whose pair of
        node rows `parents` holds points at that row; the first slot of
        each pair not seen yet composes it, and every later slot with that
        pair points at the same row. A pair with a -1 is none, and its
        slot gets -1. The new pairs' children are one gather, in one
        `grc_compose` and one `score` call; the parents and their scores
        go to the end of the tables."""
        slots, parents, first = self.stale, self.parents, self.nodes.size
        known = len(parents)
        # a new pair's row: the table's size plus the new pairs before it
        self.cand_rows.put(slots, [
            parents.setdefault(pair, first - known + len(parents))
            if -1 not in pair else -1
            for pair in zip(self.node_rows.take(slots).tolist(),
                            self.node_rows.take(slots + 1).tolist())])
        if len(parents) > known:  # the new pairs are the dict's last keys
            new = list(islice(reversed(parents), len(parents) - known))
            composed = grc_compose(self.nodes.gather(new[::-1]), self.cell)
            self.nodes.append(composed)
            self.cand_scores.append(score(composed, self.scorer))

    def add_nodes(self, rows: Tensor) -> int:
        """Append node rows that are no candidates; returns the first."""
        self.cand_scores.append(Tensor(np.zeros(rows.data.shape[0],
                                                rows.data.dtype)))
        return self.nodes.append(rows)

    def merge(self, parent, pos, rows, score_rows):
        """Make the beams those of `parent` with nodes pos and pos + 1
        merged into node `rows`, one shift of the columns right of pos, and
        with beam scores `score_rows`. It lists the two slots beside the new
        node as stale. Left of a first node that slot is the last of the
        beam before (of the last beam, for the first beam), and right of a
        last node it is past m: the node rows of both pairs hold a -1."""
        w = self.node_rows.shape[1] - 1  # the width after the merge
        src, parent_col = self.shift[pos, :w], parent[:, None]
        self.node_rows = self.node_rows[parent_col, src]
        self.cand_rows = self.cand_rows[parent_col, src]
        slot = np.arange(0, len(pos) * w, w) + pos  # the new node's
        self.node_rows.put(slot, rows)
        self.stale = np.add.outer(slot, (-1, 0)).ravel()  # the pairs beside
        self.actions = self.actions[parent]
        self.actions[:, self.steps] = pos
        self.score_rows, self.m = score_rows, self.m[parent] - 1

    def select(self, beams):
        """Keep the beams `beams` (indices or a mask), in their order."""
        for name in ("node_rows", "cand_rows", "actions", "score_rows", "m"):
            setattr(self, name, getattr(self, name)[beams])

    def step(self, k: int, onesoft: bool, rngs):
        """One merge in every beam of every example with more than two
        nodes; returns False when there is none. The pairs composed are
        those `stale` lists."""
        if not self.active:
            return False
        mask = self.cols[:self.cand_rows.shape[1]] < self.m[:, None]
        (beam, pos), cands = mask.nonzero(), self.cand_rows[mask]
        if k == 1 and rngs is not None:
            self.straight_through(beam, pos, cands, rngs)
        else:
            self.branch_and_truncate(beam, pos, cands, k, onesoft, rngs)
        self.compose()
        self.steps += 1
        if self.steps >= self.next_done:
            self.retire()
        return True

    def straight_through(self, beam, pos, cands, rngs):
        """One straight-through Gumbel merge in each active example's one
        beam, over its candidates, the rows `cands`, at `pos[i]` of beam
        `beam[i]`."""
        raw = self.cand_scores.gather(cands)
        noise = np.concatenate([
            gumbel_noise(n, rngs[e])
            for e, n in zip(self.active, self.m.tolist())]).astype(
                raw.data.dtype)
        perturbed = T.add(raw, Tensor(noise))
        soft = T.segment_softmax(perturbed, self.m)
        padded = np.full(self.node_rows.shape, -np.inf)
        padded[beam, pos] = perturbed.data
        hard = padded.argmax(axis=1)
        onehot = np.zeros_like(noise)
        onehot[self.m.cumsum() - self.m + hard] = 1.0
        # straight-through: forward the one-hot, backward the identity
        ste = T._make(onehot, (soft,), lambda g: (g,), check=False)
        first = self.add_nodes(T.segment_sum(
            ste, self.nodes.gather(cands), self.m))
        beams = np.arange(len(hard))
        self.merge(beams, hard, first + beams, self.score_rows)

    def branch_and_truncate(self, beam, pos, cand_ids, k, onesoft, rngs):
        """Branch every beam of the active examples, over its candidates,
        the rows `cand_ids`, at `pos[i]` of beam `beam[i]`, over its top-k
        merges, and truncate each example's pool, collapsing OneSoft's last
        groups. The picked beams' scores are one primitive over both score
        tables: the candidates' segment log-softmax plus their beams'
        scores, at the picked merges; its vjp scatters into both tables."""
        raw, cand_scatter = self.cand_scores.read(cand_ids)
        # each beam's first place, and each place's beam's score row
        starts, prior_ids = self.m.cumsum() - self.m, self.score_rows[beam]
        logp, logp_grad = T.segment_log_softmax_data(raw, self.m, starts)
        prior, prior_scatter = self.beam_scores.read(prior_ids)
        pooled = prior + logp  # each merge's beam score plus its logp
        picked, kept, b, a = [], [], 0, 0  # the example's first beam, place
        # one example at a time, as each draws its Gumbel noise from its own
        # rng in order: a block over the batch that drew each example's
        # noise once per search and ran two padded argsorts per step took
        # 134.9 us per step, against about 120 us for this loop (16-row
        # batches, 2-core Xeon, one BLAS thread)
        for e, c in zip(self.active, self.counts):
            n = self.lengths[e] - self.steps - 1  # candidates per beam
            rng = None if rngs is None else rngs[e]
            top = plain_topk(logp[a:a + c * n].reshape(c, n), k, rng)
            pool = (top + starts[b:b + c, None]).ravel()
            groups = truncate(pooled[pool], k, onesoft, rng)
            # hard top-k's groups are the rows of one (kept, 1) array
            picked.append(pool[np.concatenate(groups)] if onesoft
                          else pool[groups].ravel())
            kept.append(groups)
            b, a = b + c, a + c * n
        places = np.concatenate(picked)  # distinct places in the pool

        def vjp(g):
            glogp = np.zeros_like(logp)
            glogp[places] = g
            prior_scatter(prior_ids[places], g)
            cand_scatter(cand_ids, logp_grad(glogp))
            return None, None

        picked_scores = T._make(pooled[places], (self.cand_scores.token,
                                                 self.beam_scores.token), vjp)
        parent, pos = beam[places], pos[places]
        row = self.beam_scores.append(picked_scores)
        self.merge(parent, pos, cand_ids[places], row + np.arange(len(pos)))
        self.counts = [len(groups) for groups in kept]
        if sum(self.counts) == len(places):  # each picked beam is kept
            return
        sizes = np.array([len(g) for groups in kept for g in groups])
        firsts = np.cumsum(sizes) - sizes  # each group's first picked beam
        whole, w = sizes == 1, self.node_rows.shape[1]
        tails, nodes = np.flatnonzero(~whole), self.node_rows
        self.select(firsts)
        self.collapse(tails, firsts[tails], sizes[tails], self.m[tails] + 1,
                      nodes, picked_scores)
        # kept beam h is picked beam firsts[h]: a whole one lists the pairs
        # beside its merge's node, an interpolated one all its pairs
        merged = np.arange(len(firsts)) * w + pos[firsts]
        self.stale = np.sort(np.concatenate((
            np.add.outer(merged[whole], (-1, 0)).ravel(), np.flatnonzero(
                (self.cols[:w] < self.m[:, None]) & ~whole[:, None]))))

    def collapse(self, tails, firsts, sizes, lens, nodes, picked_scores):
        """Replace the kept beams `tails`, OneSoft's last groups, each by
        one beam of `lens` new node rows, in one `collapse_tail` call: group
        t is the picked beams firsts[t] onwards, sizes[t] of them, whose
        node rows are `nodes` and scores `picked_scores`."""
        tail, node, beam = tail_entries(sizes, lens)
        member = firsts[tail] + beam  # the picked beam each row is read from
        mixed, mixed_scores = collapse_tail(
            self.nodes.gather(nodes[member, node]),
            T.rows_gather(picked_scores, member[node == 0]), sizes, lens)
        row = self.add_nodes(mixed)
        self.score_rows[tails] = (self.beam_scores.append(mixed_scores)
                                  + np.arange(len(tails)))
        cols = self.cols[:self.node_rows.shape[1]]
        self.node_rows[tails] = np.where(cols < lens[:, None], cols + (
            row + np.cumsum(lens) - lens)[:, None], -1)

    def retire(self):
        """Set aside the examples left with n <= 2 nodes per beam, whose
        root is the one candidate (with 0 as the last action) or node."""
        n = [self.lengths[e] - self.steps for e in self.active]
        a = 0
        for e, c, n_e in zip(self.active, self.counts, n):
            if n_e <= 2:
                self.done[e] = (self.cand_rows[a:a + c, 0],
                                self.score_rows[a:a + c],
                                [tuple(acts) for acts in self.actions[
                                    a:a + c, :self.steps + n_e - 1].tolist()])
            a += c
        self.select(np.repeat(np.greater(n, 2), self.counts))
        self.active = [e for e, n_e in zip(self.active, n) if n_e > 2]
        self.counts = [c for c, n_e in zip(self.counts, n) if n_e > 2]
        # the first step at which an example can be done
        self.next_done = min([self.lengths[e] for e in self.active],
                             default=2) - 2

    def finish(self):
        """(encodings, one BeamSet per example) once every example is
        done."""
        roots, score_rows, actions = zip(*self.done)
        roots = self.nodes.gather(np.concatenate(roots))
        scores = self.beam_scores.gather(np.concatenate(score_rows))
        counts = [len(acts) for acts in actions]
        firsts = np.cumsum([0, *counts]).tolist()
        return merge_beams(roots, scores, counts), [
            BeamSet(Tensor(roots.data[a:b]), Tensor(scores.data[a:b]), acts)
            for a, b, acts in zip(firsts, firsts[1:], actions)]


def encode_bt_cell(leaves: Tensor, lengths, cell: GrcParams,
                   scorer: ScorerParams, k: int, onesoft: bool = False,
                   rngs=None):
    """Beam-search extension of easy-first composition, for a batch.

    Per iteration each beam scores all adjacent parent candidates, scores
    are log-softmaxed into per-branch log-probability increments, and each
    beam branches over its top-k candidates into its example's pool of
    (beam, i) merges with a (m,) vector of accumulated log-probabilities.
    `truncate` selects from those scores alone (OneSoft top-k when
    `onesoft`, else plain top-k) groups of pool indices, one per beam kept.
    Branching and plain truncation are Gumbel-perturbed when given rngs.

    Every node state of the batch is a row of one append-only table: the
    leaves, then each step's composed parents. The beams of all examples
    are the rows of int matrices: one of row ids for their nodes and one
    for the parents of their adjacent pairs, their candidates; each
    candidate is scored once, when it is composed, and the scores sit in a
    second table aligned with the first. A row is its node's signature
    (hash-consing): equal leaves are one row when no tape records them,
    and each distinct pair of child rows is composed once per search, so
    every beam, place and example that makes the same subtree shares its
    row and its score bit for bit, and ties between them are exact in
    every batch. A merge is one gather of both matrices over all beams, by
    a precomputed shift table, and lists the two pairs beside the new node
    as stale: not composed yet. A step, over all beams of all examples
    that have more than two nodes left, reads the candidate and beam
    scores, and takes their segment log-softmax and pool scores, on the
    values; runs one `plain_topk` over each example's (beams, candidates)
    matrix and one `truncate` of its pool, whose hard top-k groups are one
    int array; looks every stale pair up in one pass over a dict; and
    records four tape primitives: the picked beams' scores (one read of
    both score tables), one gather of both children of every new stale
    pair, one `grc_compose` of those pairs and one `score` (none of the
    last three when every stale pair was composed before). Hard top-k
    builds only the k beams it keeps. OneSoft's last
    group, its best beam first, becomes one beam whose nodes are new rows,
    the softmax-weighted sum of the group's node rows (`collapse_tail`); it
    carries its best member's actions, and every pair of it is stale. An
    example leaves the loop at two nodes per beam, whose one candidate is
    the root, and the encodings are `merge_beams` of all roots and scores.

    With one beam this is easy-first composition. `merge_beams` gives a
    lone beam's score no gradient, so one beam given rngs selects by
    straight-through Gumbel instead of branching and truncating: the
    forward commits to the argmax of the Gumbel-perturbed scores, the
    backward follows softmax(perturbed), and the merged node is a new row,
    that straight-through one-hot times the candidate rows. Returns
    (encodings, one final BeamSet per example)."""
    search = _BeamBatch(leaves, lengths, cell, scorer)
    while search.step(k, onesoft, rngs):
        pass
    return search.finish()

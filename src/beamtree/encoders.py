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

import numpy as np

from . import tensor as T
from .cells import GrcParams, ScorerParams, grc_compose, score
from .tensor import Tensor
from .topk import BeamSet, collapse_tail, gumbel_noise, merge_beams, \
    plain_topk, truncate
from .trees import ParseTree, replay_actions


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
    folded as R(h0, first leaf): one compose per position over the examples
    at least that long."""
    starts = _starts(lengths)
    table = T.RowTable(leaves)
    state = [table.append(T.reshape(h0, (1, -1)))] * len(lengths)
    for t in range(max(lengths)):
        active = [e for e, n in enumerate(lengths) if n > t]
        first = table.append(grc_compose(
            table.gather([state[e] for e in active]),
            table.gather([starts[e] + t for e in active]), cell))
        for j, e in enumerate(active):
            state[e] = first + j
    return table.gather(state)


def encode_fixed_tree(leaves: Tensor, trees, cell: GrcParams) -> Tensor:
    """Bottom-up evaluation of the cell along each example's tree, whose
    leaves are that example's rows: one compose per tree height over the
    nodes of that height in all trees."""
    levels = []  # levels[h - 1]: (left, right) of each node of height h
    roots, start = [], 0
    for tree in trees:
        if not tree.is_projective():
            raise EncoderError("non-projective tree")
        roots.append(_collect(tree, start, levels)[1])
        start += tree.n_leaves()
    if start != leaves.data.shape[0]:
        raise EncoderError(f"trees have {start} leaves for "
                           f"{leaves.data.shape[0]} tokens")
    table = T.RowTable(leaves)
    firsts = []  # row of the first composed node of each height

    def row(ref):
        height, index = ref
        return index if height == 0 else firsts[height - 1] + index

    for level in levels:
        firsts.append(table.append(grc_compose(
            table.gather([row(left) for left, _ in level]),
            table.gather([row(right) for _, right in level]), cell)))
    return table.gather([row(r) for r in roots])


def _collect(t: ParseTree, start: int, levels: list) -> tuple:
    """(height, reference) of `t`, whose leaf i is row start + i. A leaf's
    reference is (0, row); an internal node joins levels[height - 1], and
    its reference is (height, place in that level). A module-level
    function, not a closure that refers to itself: such a closure is a
    reference cycle that keeps arrays alive until the cyclic collector
    runs."""
    if t.is_leaf:
        return 0, (0, start + t.leaf)
    hl, left = _collect(t.left, start, levels)
    hr, right = _collect(t.right, start, levels)
    height = max(hl, hr) + 1
    if len(levels) < height:
        levels.append([])
    levels[height - 1].append((left, right))
    return height, (height, len(levels[height - 1]) - 1)


# ---------------------------------------------------------------------------
# easy-first composition: beam-tree recursion with one beam

def encode_easy_first_gumbel(leaves: Tensor, lengths, cell: GrcParams,
                             scorer: ScorerParams, rngs=None):
    """Greedy easy-first composition (the Gumbel-Tree encoder):
    `encode_bt_cell` with one beam, straight-through Gumbel when given
    rngs. Returns (encodings, trees)."""
    enc, beams = encode_bt_cell(leaves, lengths, cell, scorer, 1, rngs=rngs)
    return enc, [replay_actions(n, b.actions[0])
                 for n, b in zip(lengths, beams)]


# ---------------------------------------------------------------------------
# beam tree cell

class _BeamBatch:
    """The beam-tree search state of a batch: the node table, the table of
    candidate scores aligned with it (0 for a row that is no candidate: the
    leaves, interpolated and straight-through nodes), the table of beam
    scores, each example's beams, and the pairs waiting to be composed. A
    beam is [node rows, candidate rows, actions, beam-score row]."""

    def __init__(self, leaves: Tensor, lengths, cell: GrcParams,
                 scorer: ScorerParams):
        self.cell, self.scorer = cell, scorer
        dtype = leaves.data.dtype
        self.nodes = T.RowTable(leaves)
        self.cand_scores = T.RowTable(
            Tensor(np.zeros(leaves.data.shape[0], dtype)))
        # row e is the first beam of example e
        self.beam_scores = T.RowTable(Tensor(np.zeros(len(lengths), dtype)))
        self.left, self.right, self.slots = [], [], []
        self.beams = []
        for e, (start, n) in enumerate(zip(_starts(lengths), lengths)):
            beam = [list(range(start, start + n)), [None] * (n - 1), (), e]
            self.pend(beam, 0, n - 1)
            self.beams.append([beam])
        self.compose()

    def pend(self, beam: list, lo: int, hi: int):
        """Pairs lo..hi-1 of the beam's nodes are to fill its candidates
        lo..hi-1."""
        nodes, cands = beam[0], beam[1]
        for j in range(lo, hi):
            self.left.append(nodes[j])
            self.right.append(nodes[j + 1])
            self.slots.append((cands, j))

    def compose(self):
        """All pending pairs in one `grc_compose` and one `score` call; the
        parents and their scores go to the end of the tables."""
        if not self.slots:
            return
        parents = grc_compose(self.nodes.gather(self.left),
                              self.nodes.gather(self.right), self.cell)
        first = self.nodes.append(parents)
        self.cand_scores.append(score(parents, self.scorer))
        for j, (cands, slot) in enumerate(self.slots):
            cands[slot] = first + j
        self.left, self.right, self.slots = [], [], []

    def add_nodes(self, rows: Tensor) -> int:
        """Append node rows that are no candidates; returns the first."""
        self.cand_scores.append(Tensor(np.zeros(rows.data.shape[0],
                                                rows.data.dtype)))
        return self.nodes.append(rows)

    def merged(self, beam: list, i: int, row: int, pend: bool) -> list:
        """`beam` with its nodes i and i+1 replaced by node `row`. Its
        candidates beside the new node are new; with `pend` they are
        composed at the next `compose` (not for a beam OneSoft
        interpolates away)."""
        nodes, cands, actions, sid = beam
        nodes = nodes[:i] + [row] + nodes[i + 2:]
        lo, hi = max(i - 1, 0), min(i + 1, len(nodes) - 1)
        new = [nodes, cands[:lo] + [None] * (hi - lo) + cands[i + 2:],
               actions + (i,), sid]
        if pend:
            self.pend(new, lo, hi)
        return new

    def step(self, k: int, onesoft: bool, rngs):
        """One merge in every beam of every example with more than two
        nodes; returns False when there is none."""
        active = [e for e, b in enumerate(self.beams) if len(b[0][0]) > 2]
        if not active:
            return False
        counts = [len(b[1]) for e in active for b in self.beams[e]]
        raw = self.cand_scores.gather([c for e in active
                                       for b in self.beams[e] for c in b[1]])
        if k == 1 and rngs is not None:
            self.straight_through(raw, counts, active, rngs)
        else:
            self.branch_and_truncate(raw, counts, active, k, onesoft, rngs)
        self.compose()
        return True

    def straight_through(self, raw, counts, active, rngs):
        """One straight-through Gumbel merge in each active example's one
        beam."""
        dtype = raw.data.dtype
        noise = np.concatenate([gumbel_noise(n, rngs[e]) for e, n in
                                zip(active, counts)]).astype(dtype)
        perturbed = T.add(raw, Tensor(noise))
        soft = T.segment_softmax(perturbed, counts)
        onehot = np.zeros_like(noise)
        hard, pos = [], 0
        for n in counts:
            hard.append(int(np.argmax(perturbed.data[pos:pos + n])))
            onehot[pos + hard[-1]] = 1.0
            pos += n
        ste = T.add(Tensor(onehot), T.sub(soft, T.detach(soft)))
        cands = self.nodes.gather([c for e in active
                                   for c in self.beams[e][0][1]])
        first = self.add_nodes(T.segment_sum(ste, cands, counts))
        for j, (e, i) in enumerate(zip(active, hard)):
            self.beams[e] = [self.merged(self.beams[e][0], i, first + j,
                                         True)]

    def branch_and_truncate(self, raw, counts, active, k, onesoft, rngs):
        """Branch every beam of the active examples over its top-k merges
        and truncate each example's pool, collapsing OneSoft's last
        groups."""
        logp = T.segment_softmax(raw, counts, log=True)
        lp = logp.data
        base = self.beam_scores.values([b[3] for e in active
                                        for b in self.beams[e]])
        parents, places, plans = [], [], []
        pos = bpos = 0
        for e in active:
            rng = None if rngs is None else rngs[e]
            beams = self.beams[e]
            n = len(beams[0][1])
            pool = []  # (beam, merge position, place in logp)
            for b in range(len(beams)):
                pool += [(b, i, pos + i)
                         for i in plain_topk(lp[pos:pos + n], k, rng)]
                pos += n
            groups = truncate(base[[bpos + b for b, _, _ in pool]]
                              + lp[[c for _, _, c in pool]], k, onesoft, rng)
            bpos += len(beams)
            picked = [pool[j] for g in groups for j in g]
            parents += [beams[b][3] for b, _, _ in picked]
            places += [c for _, _, c in picked]
            plans.append((e, groups, pool))
        picked_scores = T.add(self.beam_scores.gather(parents),
                              T.rows_gather(logp, places))
        row = self.beam_scores.append(picked_scores)
        tails = []  # (example, slot, member beams) of OneSoft's last groups
        for e, groups, pool in plans:
            kept = []
            for g in groups:
                members = []
                for j in g:
                    b, i, _ = pool[j]
                    beam = self.beams[e][b]
                    members.append(self.merged(beam, i, beam[1][i],
                                               len(g) == 1))
                    members[-1][3] = row
                    row += 1
                if len(g) > 1:
                    tails.append((e, len(kept), members))
                kept.append(members[0])
            self.beams[e] = kept
        if tails:
            self.collapse(tails, picked_scores)

    def collapse(self, tails, picked_scores):
        """Replace each OneSoft last group by one beam of new node rows, in
        one `collapse_tail` call; `picked_scores` holds the groups'
        scores, the last rows of the beam-score table."""
        first = self.beam_scores.size - picked_scores.data.shape[0]
        sizes = [len(members[0][0]) for _, _, members in tails]
        rows = [m[0][p] for (_, _, members), n in zip(tails, sizes)
                for p in range(n) for m in members]
        places = [m[3] - first for _, _, members in tails for m in members]
        mixed, mixed_scores = collapse_tail(
            self.nodes.gather(rows), T.rows_gather(picked_scores, places),
            [len(members) for _, _, members in tails], sizes)
        row = self.add_nodes(mixed)
        score_row = self.beam_scores.append(mixed_scores)
        for t, ((e, slot, members), n) in enumerate(zip(tails, sizes)):
            beam = [list(range(row, row + n)), [None] * (n - 1),
                    members[0][2], score_row + t]
            self.pend(beam, 0, n - 1)
            self.beams[e][slot] = beam
            row += n

    def finish(self):
        """(encodings, one BeamSet per example) once every beam has at most
        two nodes: a two-node beam's one candidate is its root."""
        roots, rows, sets = [], [], []
        for beams in self.beams:
            done = len(beams[0][0]) == 2
            roots += [b[1][0] if done else b[0][0] for b in beams]
            rows += [b[3] for b in beams]
            sets.append([b[2] + (0,) if done else b[2] for b in beams])
        roots = self.nodes.gather(roots)
        scores = self.beam_scores.gather(rows)
        counts = [len(b) for b in self.beams]
        firsts = np.cumsum([0, *counts]).tolist()
        return merge_beams(roots, scores, counts), [
            BeamSet(Tensor(roots.data[a:b]), Tensor(scores.data[a:b]), acts)
            for a, b, acts in zip(firsts, firsts[1:], sets)]


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
    leaves, then each step's composed parents. A beam is a list of row ids
    for its nodes and a second one for the parents of its adjacent pairs,
    its candidates; each candidate is scored once, when it is composed, and
    the scores sit in a second table aligned with the first. A merge only
    edits the lists, so a step, over all beams of all examples that have
    more than two nodes left, is one gather of candidate scores, one
    segment log-softmax, per-beam top-k and per-example `truncate` on the
    values, one gather and add for the beam scores, and one `grc_compose`
    of the pairs beside each merged node. Hard top-k builds only the k
    beams it keeps. OneSoft's last group, its best beam first, becomes one
    beam whose nodes are new rows, the softmax-weighted sum of the group's
    node rows (`collapse_tail`); it carries its best member's actions, and
    every pair of it is composed. An example leaves the loop at two nodes
    per beam, whose one candidate is the root, and the encodings are
    `merge_beams` of all roots and scores.

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

"""Sequence-to-vector encoders: recurrent fold, easy-first composition with
straight-through Gumbel selection, beam-tree recursion, beam shift-reduce,
Monte-Carlo averaging, and fixed-tree evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .cells import GrcParams, ScorerParams, _chunk, grc_compose, score, \
    tree_lstm_compose
from .tensor import Tensor
from .topk import BeamSet, BeamState, gumbel_noise, merge_beams, plain_topk, truncate
from .trees import ParseTree, replay_actions


class EncoderError(Exception):
    pass


@dataclass
class EncoderConfig:
    beam_size: int = 5
    topk: str = "plain"  # plain | onesoft
    temperature: float = 1.0
    stochastic_topk: bool = True
    training: bool = False

    def validate(self):
        if self.beam_size < 1:
            raise EncoderError("beam size must be >= 1")
        if self.topk == "onesoft" and self.beam_size < 2:
            raise EncoderError("onesoft needs beam size >= 2")
        if self.temperature <= 0:
            raise EncoderError("temperature must be positive")


# A node's state is one row: h for the GRC, [h; c] for the tree-LSTM. Only
# the next three functions know that layout.

def _lift(leaves: Tensor, cell) -> Tensor:
    """States of leaf rows (or of one vector); tree-LSTM leaves get c = 0."""
    if isinstance(cell, GrcParams):
        return leaves
    return T.concat([leaves, Tensor(np.zeros_like(leaves.data))], axis=-1)


def _compose(left: Tensor, right: Tensor, cell) -> Tensor:
    """Parent states of row-aligned child states (or of two single states)."""
    if isinstance(cell, GrcParams):
        return grc_compose(left, right, cell)
    d = cell.d_h
    h, c = tree_lstm_compose((_chunk(left, 0, d), _chunk(left, 1, d)),
                             (_chunk(right, 0, d), _chunk(right, 1, d)), cell)
    return T.concat([h, c], axis=-1)


def _read_h(states: Tensor, cell) -> Tensor:
    """The h part of states."""
    if isinstance(cell, GrcParams):
        return states
    return _chunk(states, 0, cell.d_h)


def _cat_rows(parts: list) -> Tensor:
    return parts[0] if len(parts) == 1 else T.concat(parts, axis=0)


def _splice_rows(mat: Tensor, start: int, stop: int, rows: Tensor) -> Tensor:
    """Replace rows start..stop-1 of `mat` with `rows`."""
    n = mat.data.shape[0]
    parts = []
    if start > 0:
        parts.append(T.slice_rows(mat, 0, start))
    parts.append(rows)
    if stop < n:
        parts.append(T.slice_rows(mat, stop, n))
    return _cat_rows(parts)


def _row(mat: Tensor, i: int) -> Tensor:
    return T.reshape(T.slice_rows(mat, i, i + 1), (mat.data.shape[1],))


def _candidates(states: Tensor, cell) -> Tensor:
    """Parent states of every adjacent pair of `states`."""
    n = states.data.shape[0]
    return _compose(T.slice_rows(states, 0, n - 1), T.slice_rows(states, 1, n),
                    cell)


def _new_candidates(merged: list, cell) -> list:
    """Candidate caches after merges, all composed in one `_compose` call.

    Each entry of `merged` is None or (nodes, parents, i): `nodes` after a
    merge at i, `parents` the candidates of the nodes before it. Only the
    candidates beside the merged node are new; the others are rows of
    `parents`. Returns, per entry, the candidates of `nodes`, or None for a
    None entry or fewer than three nodes (a root is composed on its own)."""
    windows = []  # per entry, the pairs lo..hi-1 to compose, or None
    for entry in merged:
        if entry is None or entry[0].data.shape[0] < 3:
            windows.append(None)
        else:
            nodes, _parents, i = entry
            windows.append((max(i - 1, 0), min(i + 1, nodes.data.shape[0] - 1)))
    live = [j for j, w in enumerate(windows) if w is not None]
    if not live:
        return [None] * len(merged)
    lo, hi = windows[live[0]]
    if len(live) == 1 and hi - lo == 1:
        # BLAS multiplies a lone row with another kernel, and other rounding,
        # than a matrix. A lone new candidate is composed with a neighbour,
        # whose cached row this recomputes bit for bit, so every candidate
        # keeps the bits it has in a beam's full candidate matrix.
        windows[live[0]] = (lo - 1, hi) if lo > 0 else (lo, hi + 1)
    fresh = _compose(
        _cat_rows([T.slice_rows(merged[j][0], *windows[j]) for j in live]),
        _cat_rows([T.slice_rows(merged[j][0], windows[j][0] + 1,
                                windows[j][1] + 1) for j in live]), cell)
    out, at = [], 0
    for entry, window in zip(merged, windows):
        if window is None:
            out.append(None)
            continue
        lo, hi = window
        new = fresh if len(live) == 1 else T.slice_rows(fresh, at, at + hi - lo)
        at += hi - lo
        out.append(_splice_rows(entry[1], lo, hi + 1, new))
    return out


# ---------------------------------------------------------------------------
# recurrent / fixed-tree encoders

def encode_recurrent(leaves: Tensor, cell, h0: Tensor | None = None) -> Tensor:
    """Left-to-right fold of the cell, optionally from a learned initial
    state h0 (folded as R(h0, first_leaf))."""
    n = leaves.data.shape[0]
    if n < 1:
        raise EncoderError("empty input")
    states = _lift(leaves, cell)
    if h0 is not None:
        state, first = _lift(h0, cell), 0
    else:
        state, first = _row(states, 0), 1
    for i in range(first, n):
        state = _compose(state, _row(states, i), cell)
    return _read_h(state, cell)


def encode_fixed_tree(leaves: Tensor, tree: ParseTree, cell) -> Tensor:
    """Bottom-up evaluation of the cell along the given tree."""
    n = leaves.data.shape[0]
    if tree.n_leaves() != n:
        raise EncoderError(f"tree has {tree.n_leaves()} leaves for {n} tokens")
    if not tree.is_projective():
        raise EncoderError("non-projective tree")
    states = _lift(leaves, cell)

    def walk(t):
        if t.is_leaf:
            return _row(states, t.leaf)
        return _compose(walk(t.left), walk(t.right), cell)

    return _read_h(walk(tree), cell)


# ---------------------------------------------------------------------------
# easy-first composition with STE Gumbel selection

def encode_easy_first_gumbel(leaves: Tensor, cell, scorer: ScorerParams,
                             cfg: EncoderConfig,
                             rng: np.random.Generator | None = None):
    """Greedy easy-first composition. In training mode the per-iteration
    selection is a straight-through estimator: the forward pass commits to
    the Gumbel-perturbed argmax, the backward pass follows the softmax over
    perturbed scores at the configured temperature. Returns (vector, tree)."""
    cfg.validate()
    n = leaves.data.shape[0]
    if n < 1:
        raise EncoderError("empty input")
    nodes = _lift(leaves, cell)
    parents = None  # candidate parents of `nodes`, kept across merges
    actions = []
    while nodes.data.shape[0] > 2:
        if parents is None:
            parents = _candidates(nodes, cell)
        raw = score(_read_h(parents, cell), scorer)
        if cfg.training:
            noise = gumbel_noise(raw.data.size, rng).astype(raw.data.dtype)
            perturbed = T.add(raw, Tensor(noise))
            hard = int(np.argmax(perturbed.data))
            soft = T.softmax(T.mulc(perturbed, 1.0 / cfg.temperature))
            onehot = np.zeros(raw.data.size, dtype=raw.data.dtype)
            onehot[hard] = 1.0
            ste = T.add(Tensor(onehot), T.sub(soft, T.detach(soft)))
            parent = T.matmul(ste, parents)
        else:
            hard = int(np.argmax(raw.data))
            parent = _row(parents, hard)
        nodes = _splice_rows(nodes, hard, hard + 2, T.reshape(parent, (1, -1)))
        [parents] = _new_candidates([(nodes, parents, hard)], cell)
        actions.append(hard)
    if nodes.data.shape[0] == 2:
        out = _compose(_row(nodes, 0), _row(nodes, 1), cell)
        actions.append(0)
    else:
        out = _row(nodes, 0)
    return _read_h(out, cell), replay_actions(n, actions)


def encode_mc_gumbel(leaves: Tensor, cell, scorer: ScorerParams,
                     cfg: EncoderConfig, k: int,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Unweighted mean of k independent easy-first-Gumbel passes with shared
    parameters and independent noise."""
    if k < 1:
        raise EncoderError("k must be >= 1")
    total = None
    for _ in range(k):
        enc, _tree = encode_easy_first_gumbel(leaves, cell, scorer, cfg, rng)
        total = enc if total is None else T.add(total, enc)
    return T.mulc(total, 1.0 / k)


# ---------------------------------------------------------------------------
# beam tree cell

class _Branch(NamedTuple):
    """A pool entry before truncation: the merge at `i` of beam number
    `beam`, with its accumulated log-probability as a scalar (hard top-k
    reads only `score.item()`)."""
    beam: int
    i: int
    score: np.floating


def encode_bt_cell(leaves: Tensor, cell, scorer: ScorerParams,
                   cfg: EncoderConfig,
                   rng: np.random.Generator | None = None):
    """Beam-search extension of easy-first composition.

    Per iteration each beam scores all adjacent parent candidates, scores
    are log-softmaxed into per-branch log-probability increments, each beam
    branches over its top-k candidates, and the pooled beams are truncated
    back to k with the configured operator (plain or OneSoft top-k; plain
    deterministic at eval). A beam carries its candidates from step to step;
    after a merge only the merged node's one or two neighbours are
    composed, for all kept beams in one call. Hard top-k builds only the
    beams it keeps. A beam without candidates (the leaves, or OneSoft's
    interpolated beam, since composition is nonlinear) composes all its
    pairs. Returns (encoding, final BeamSet)."""
    cfg.validate()
    n = leaves.data.shape[0]
    if n < 1:
        raise EncoderError("empty input")
    k = cfg.beam_size
    zero = Tensor(np.zeros(1, dtype=leaves.data.dtype))
    beams = [BeamState(nodes=_lift(leaves, cell), score=zero, actions=())]
    branch_mode = "gumbel" if (cfg.training and cfg.stochastic_topk) else "deterministic"
    soft = cfg.training and cfg.topk == "onesoft"

    while beams[0].length > 2:
        parents = [b.parents if b.parents is not None
                   else _candidates(b.nodes, cell) for b in beams]
        logps = [T.log_softmax(score(_read_h(p, cell), scorer))
                 for p in parents]
        pool = [_Branch(b, i, beams[b].score.data[0] + logp.data[i])
                for b, logp in enumerate(logps)
                for i in plain_topk(logp.data, k, mode=branch_mode, rng=rng)]

        def grow(br):
            beam = beams[br.beam]
            return BeamState(
                nodes=_splice_rows(beam.nodes, br.i, br.i + 2,
                                   T.slice_rows(parents[br.beam], br.i, br.i + 1)),
                score=T.add(beam.score,
                            T.reshape(T.pick(logps[br.beam], br.i), (1,))),
                actions=beam.actions + (br.i,))

        if soft:
            # OneSoft interpolates the beams it drops, so all are built; its
            # interpolated beam comes from no branch and gets no cache
            grown = [grow(br) for br in pool]
            branch_of = {id(s): br for s, br in zip(grown, pool)}
            kept = truncate(BeamSet(grown), k, cfg.topk, cfg.training, rng,
                            cfg.stochastic_topk).beams
            survivors = [(s, branch_of.get(id(s))) for s in kept]
        else:
            kept = truncate(BeamSet(pool), k, cfg.topk, cfg.training, rng,
                            cfg.stochastic_topk).beams
            survivors = [(grow(br), br) for br in kept]
        caches = _new_candidates(
            [None if br is None else (s.nodes, parents[br.beam], br.i)
             for s, br in survivors], cell)
        for (s, _br), cache in zip(survivors, caches):
            s.parents = cache
        beams = [s for s, _br in survivors]

    final = []
    for beam in beams:
        root, actions = beam.nodes, beam.actions
        if beam.length == 2:
            root = T.reshape(_compose(_row(root, 0), _row(root, 1), cell),
                             (1, -1))
            actions += (0,)
        final.append(BeamState(nodes=_read_h(root, cell), score=beam.score,
                               actions=actions))
    encoding = merge_beams([_row(b.nodes, 0) for b in final],
                           [b.score for b in final])
    return encoding, BeamSet(final)


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


@dataclass
class _SRState:
    stack: list  # node states
    qpos: int
    score: Tensor
    actions: tuple


def _sr_decision_logit(state: _SRState, leaves, cell, n, d_h, decision,
                       dtype) -> Tensor:
    def slot(item):
        return _read_h(item, cell) if item is not None \
            else Tensor(np.zeros(d_h, dtype=dtype))

    s2 = slot(state.stack[-2] if len(state.stack) >= 2 else None)
    s1 = slot(state.stack[-1] if len(state.stack) >= 1 else None)
    qf = _row(leaves, state.qpos) if state.qpos < n \
        else Tensor(np.zeros(d_h, dtype=dtype))
    x = T.concat([s2, s1, qf], axis=0)
    return T.add(T.reshape(T.matmul(x, decision.W), (1,)), decision.b)


def encode_bsrp(leaves: Tensor, cell, decision: BsrpParams, cfg: EncoderConfig,
                rng: np.random.Generator | None = None):
    """Beam search over shift-reduce derivations. The decision logit comes
    from a linear layer over [stack[-2]; stack[-1]; queue-front]; reduce
    scores log(sigmoid(logit)), shift scores log(1 - sigmoid(logit)).
    Invalid actions are masked out. Returns (encoding, final BeamSet)."""
    cfg.validate()
    n = leaves.data.shape[0]
    if n < 1:
        raise EncoderError("empty input")
    k = cfg.beam_size
    d_h = leaves.data.shape[1]
    dtype = leaves.data.dtype
    states = _lift(leaves, cell)
    beams = [_SRState(stack=[], qpos=0,
                      score=Tensor(np.zeros(1, dtype=dtype)), actions=())]
    branch_mode = "gumbel" if (cfg.training and cfg.stochastic_topk) else "deterministic"

    for _step in range(2 * n - 1):
        pool = []
        for st in beams:
            can_shift = st.qpos < n
            can_reduce = len(st.stack) >= 2
            logit = _sr_decision_logit(st, leaves, cell, n, d_h, decision,
                                       dtype)
            if can_shift:
                pool.append(_SRState(
                    stack=st.stack + [_row(states, st.qpos)], qpos=st.qpos + 1,
                    score=T.add(st.score, T.logsigmoid(T.neg(logit))),
                    actions=st.actions + ("s",)))
            if can_reduce:
                parent = _compose(st.stack[-2], st.stack[-1], cell)
                pool.append(_SRState(
                    stack=st.stack[:-2] + [parent], qpos=st.qpos,
                    score=T.add(st.score, T.logsigmoid(logit)),
                    actions=st.actions + ("r",)))
        if not pool:
            raise EncoderError("no valid shift-reduce action")
        idx = plain_topk([s.score.item() for s in pool], k,
                         mode=branch_mode, rng=rng)
        beams = [pool[i] for i in idx]

    final = [BeamState(nodes=T.reshape(_read_h(st.stack[0], cell), (1, -1)),
                       score=st.score, actions=st.actions) for st in beams]
    encoding = merge_beams([_row(b.nodes, 0) for b in final],
                           [b.score for b in final])
    return encoding, BeamSet(final)

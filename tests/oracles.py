"""Independent reference implementations used to cross-check the package:
a plain-numpy gated cell, exhaustive enumeration of every
merge-order derivation, and exhaustive enumeration of shift-reduce
derivations. These deliberately avoid the package's tensor machinery and
use different library routines (norm.cdf, expit, scipy log_softmax) for the
nonlinearities.

The gated cell composed from tensor primitives and the encoders at the end
are the exceptions. The composed cell is `cells.grc_compose` as it was
before it became one tape primitive. The full-recompose encoders are the
beam-tree and easy-first encoders as they were before candidate caching,
beam stacking and index-group truncation, composing every adjacent pair of
every beam on every step, splicing each beam's rows on its own and
interpolating OneSoft's dropped beams one at a time, merging the final
beams one at a time. The per-beam shift-reduce encoder is the beam
shift-reduce parser as it was before its beams were stacked: one state
object, decision matmul and compose per beam per step. All of them run on
the package's tape, so the fused cell's and the stacked encoders' outputs
and gradients can be checked against them."""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.special import log_softmax as sp_log_softmax
from scipy.stats import norm

from beamtree import encoders
from beamtree import tensor as T
from beamtree.cells import grc_compose, score
from beamtree.tensor import Tensor
from beamtree.topk import BeamSet, gumbel_noise, merge_beams, plain_topk
from beamtree.trees import replay_actions


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


def composed_grc(left, right, p):
    """`cells.grc_compose` as a chain of tensor primitives (concat, matmul,
    GELU, slices, sigmoids, products, layer norm), each with its own vjp:
    the reference for the fused cell's values and gradients."""
    d = p.d_h
    hidden = T.gelu(T.add_rowvec(
        T.matmul(T.concat([left, right], axis=1), p.W1), p.b1))
    gates = T.add_rowvec(T.matmul(hidden, p.W2), p.b2)
    z, h, c, u = (T.slice_cols(gates, i * d, (i + 1) * d) for i in range(4))
    mix = T.add(
        T.add(T.mul(T.sigmoid(z), left), T.mul(T.sigmoid(h), right)),
        T.mul(T.sigmoid(c), u),
    )
    return T.layer_norm(mix, p.gamma, p.beta)


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


def enumerate_sr_derivations(leaves, cell, decision):
    """All complete shift-reduce derivations as (actions, log_prob, vector).
    One logit per state from [stack[-2]; stack[-1]; queue-front] with zero
    vectors for missing slots; reduce scores log(sigmoid), shift the
    complement. The vector is the root's state."""
    n = len(leaves)
    results = []

    def logit(stack, qpos):
        d = leaves[0].shape[0]
        s2 = stack[-2] if len(stack) >= 2 else np.zeros(d)
        s1 = stack[-1] if len(stack) >= 1 else np.zeros(d)
        qf = leaves[qpos] if qpos < n else np.zeros(d)
        return float(np.concatenate([s2, s1, qf]) @ decision.W.data[:, 0]
                     + decision.b.data[0])

    def go(stack, qpos, logp, actions):
        if len(actions) == 2 * n - 1:
            assert len(stack) == 1 and qpos == n
            results.append((tuple(actions), logp, stack[0]))
            return
        z = logit(stack, qpos)
        if qpos < n:
            go(stack + [leaves[qpos]], qpos + 1,
               logp + np.log(expit(-z)), actions + ["s"])
        if len(stack) >= 2:
            parent = np_grc(stack[-2], stack[-1], cell)
            go(stack[:-2] + [parent], qpos,
               logp + np.log(expit(z)), actions + ["r"])

    go([], 0, 0.0, [])
    return results


def stack_machine_eval(source: str, med_even: str = "lower") -> int:
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
            val = s[(len(s) - 1) // 2] if med_even == "lower" else s[len(s) // 2]
        else:
            raise ValueError(op)
        stack.append(str(val))
    assert len(stack) == 1
    return int(stack[0])


# ---------------------------------------------------------------------------
# full-recompose encoders

def _candidates(states, cell):
    """Parent states of every adjacent pair of `states`. `grc_compose` is
    looked up on the encoders module at call time, so a test can count its
    rows."""
    n = states.data.shape[0]
    return encoders.grc_compose(T.slice_rows(states, 0, n - 1),
                                T.slice_rows(states, 1, n), cell)


def _splice_rows(mat, start, stop, rows):
    """Replace rows start..stop-1 of `mat` with `rows`."""
    n = mat.data.shape[0]
    parts = []
    if start > 0:
        parts.append(T.slice_rows(mat, 0, start))
    parts.append(rows)
    if stop < n:
        parts.append(T.slice_rows(mat, stop, n))
    return parts[0] if len(parts) == 1 else T.concat(parts, axis=0)


def full_recompose_easy_first_gumbel(leaves, cell, scorer, rng=None):
    """`encoders.encode_easy_first_gumbel` recomposing every adjacent pair
    on every step, straight-through Gumbel when given an rng. Returns
    (vector, tree)."""
    n = leaves.data.shape[0]
    nodes = leaves
    actions = []
    while nodes.data.shape[0] > 2:
        parents = _candidates(nodes, cell)
        raw = score(parents, scorer)
        if rng is not None:
            noise = gumbel_noise(raw.data.size, rng).astype(raw.data.dtype)
            perturbed = T.add(raw, Tensor(noise))
            hard = int(np.argmax(perturbed.data))
            soft = T.softmax(perturbed)
            onehot = np.zeros(raw.data.size, dtype=raw.data.dtype)
            onehot[hard] = 1.0
            ste = T.add(Tensor(onehot), T.sub(soft, T.detach(soft)))
            parent = T.matmul(T.reshape(ste, (1, -1)), parents)
        else:
            hard = int(np.argmax(raw.data))
            parent = T.slice_rows(parents, hard, hard + 1)
        nodes = _splice_rows(nodes, hard, hard + 2, parent)
        actions.append(hard)
    if nodes.data.shape[0] == 2:
        nodes = grc_compose(T.slice_rows(nodes, 0, 1),
                            T.slice_rows(nodes, 1, 2), cell)
        actions.append(0)
    return T.reshape(nodes, (-1,)), replay_actions(n, actions)


@dataclass
class Beam:
    """One beam of the full-recompose encoder: its node states, (1,) score
    and the merge actions that produced it."""

    nodes: Tensor
    score: Tensor
    actions: tuple = ()


def merge_beams_one_by_one(encodings, scores):
    """sum_i softmax(scores)_i * encodings[i] over lists of beam encodings
    and (1,) scores, with a pick/mul/add chain per beam."""
    if len(encodings) != len(scores) or not encodings:
        raise ValueError("merge_beams_one_by_one needs matching non-empty lists")
    if len(encodings) == 1:
        return encodings[0]
    w = T.softmax(T.concat(scores, axis=0))
    out = None
    for i, o in enumerate(encodings):
        part = T.mul(o, T.pick(w, i))
        out = part if out is None else T.add(out, part)
    return out


def truncate_beams(pool, k, onesoft=False, rng=None):
    """The beam-tree truncation over whole beams, one at a time: hard top-k,
    Gumbel-perturbed when given an rng, or with `onesoft` the top k-1 beams
    and one interpolated beam. That beam is the
    softmax(score)-weighted sum of the other beams' nodes and scores, built
    with a pick/mul/add chain per beam in pool order, and carries the
    actions of its best member."""
    m = len(pool)
    if k >= m:
        return pool
    scores = [b.score.item() for b in pool]
    if not onesoft:
        return [pool[i] for i in plain_topk(scores, k, rng)]
    top = plain_topk(scores, k - 1)
    bottom = [b for i, b in enumerate(pool) if i not in top]
    weights = T.softmax(T.concat([b.score for b in bottom], axis=0))
    nodes = total = None
    for i, b in enumerate(bottom):
        w = T.pick(weights, i)
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
                                       T.slice_rows(parents, i, i + 1)),
                    score=T.add(beam.score, T.reshape(T.pick(logp, i), (1,))),
                    actions=beam.actions + (i,)))
        beams = truncate_beams(pool, k, onesoft, rng)
    roots, actions = [], []
    for beam in beams:
        root, acts = beam.nodes, beam.actions
        if root.data.shape[0] == 2:
            root = grc_compose(T.slice_rows(root, 0, 1),
                               T.slice_rows(root, 1, 2), cell)
            acts += (0,)
        roots.append(T.reshape(root, (-1,)))
        actions.append(acts)
    scores = [beam.score for beam in beams]
    encoding = merge_beams_one_by_one(roots, scores)
    return encoding, BeamSet(T.concat([T.reshape(r, (1, -1)) for r in roots]),
                             T.concat(scores), actions)


# ---------------------------------------------------------------------------
# per-beam shift-reduce

@dataclass
class SRState:
    """One beam of the per-beam shift-reduce encoder: its stack of (1,
    width) node states, queue position, (1,) score and actions."""

    stack: list
    qpos: int
    score: Tensor
    actions: tuple


def _sr_decision_logit(state, leaves, decision, empty):
    """The (1,) logit of [stack[-2]; stack[-1]; queue-front] as one row;
    `empty` is the (1, d_h) zero row of a missing slot."""
    stack = state.stack[-2:]
    qpos = state.qpos
    qf = T.slice_rows(leaves, qpos, qpos + 1) \
        if qpos < leaves.data.shape[0] else empty
    x = T.concat([empty] * (2 - len(stack)) + stack + [qf], axis=1)
    return T.add(T.reshape(T.matmul(x, decision.W), (1,)), decision.b)


def per_beam_bsrp(leaves, cell, decision, k, rng=None):
    """`encoders.encode_bsrp` with one `SRState` per beam: each beam runs
    its own decision matmul and composes its own reduce, kept or not, and
    the pool (per beam its shift, then its reduce) is truncated by
    `plain_topk` over the pooled scores, Gumbel-perturbed when given an rng.
    Returns (encoding, final
    BeamSet)."""
    n = leaves.data.shape[0]
    dtype = leaves.data.dtype
    empty = Tensor(np.zeros((1, leaves.data.shape[1]), dtype=dtype))
    beams = [SRState(stack=[], qpos=0,
                     score=Tensor(np.zeros(1, dtype=dtype)), actions=())]
    for _step in range(2 * n - 1):
        pool = []
        for st in beams:
            logit = _sr_decision_logit(st, leaves, decision, empty)
            if st.qpos < n:
                pool.append(SRState(
                    stack=st.stack + [T.slice_rows(leaves, st.qpos,
                                                   st.qpos + 1)],
                    qpos=st.qpos + 1,
                    score=T.add(st.score, T.logsigmoid(T.neg(logit))),
                    actions=st.actions + ("s",)))
            if len(st.stack) >= 2:
                parent = grc_compose(st.stack[-2], st.stack[-1], cell)
                pool.append(SRState(
                    stack=st.stack[:-2] + [parent], qpos=st.qpos,
                    score=T.add(st.score, T.logsigmoid(logit)),
                    actions=st.actions + ("r",)))
        idx = plain_topk([s.score.item() for s in pool], k, rng)
        beams = [pool[i] for i in idx]
    roots = T.concat([st.stack[0] for st in beams])
    scores = T.concat([st.score for st in beams], axis=0)
    return merge_beams(roots, scores), \
        BeamSet(roots, scores, [st.actions for st in beams])

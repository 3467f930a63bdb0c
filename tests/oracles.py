"""Independent reference implementations used to cross-check the package:
a plain-numpy gated cell and tree-LSTM, exhaustive enumeration of every
merge-order derivation, and exhaustive enumeration of shift-reduce
derivations. These
deliberately avoid the package's tensor machinery and use different library
routines (norm.cdf, expit, scipy log_softmax) for the nonlinearities.

The two full-recompose encoders at the end are the exception: they are the
beam-tree and easy-first encoders as they were before candidate caching,
composing every adjacent pair of every beam on every step on the package's
tape, so the cached encoders' outputs and gradients can be checked
against them."""

import numpy as np
from scipy.special import expit
from scipy.special import log_softmax as sp_log_softmax
from scipy.stats import norm

from beamtree import tensor as T
from beamtree.cells import score
from beamtree.encoders import _candidates, _compose, _lift, _read_h, _row, \
    _splice_rows
from beamtree.tensor import Tensor
from beamtree.topk import BeamSet, BeamState, gumbel_noise, merge_beams, \
    plain_topk, truncate
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


def np_tree_lstm(l, r, p):
    """Binary tree-LSTM over [h; c] state vectors; returns the parent [h; c]."""
    d = p.d_h
    gates = np.concatenate([l[:d], r[:d]]) @ p.W.data + p.b.data
    i, f_l, f_r, o, g = (gates[j * d:(j + 1) * d] for j in range(5))
    c = expit(f_l) * l[d:] + expit(f_r) * r[d:] + expit(i) * np.tanh(g)
    return np.concatenate([expit(o) * np.tanh(c), c])


def _np_cell(cell):
    """(compose, lift, read_h) over plain-numpy node states: the state is h
    for the gated cell and [h; c] (leaves get c = 0) for the tree-LSTM."""
    if hasattr(cell, "W1"):
        return (lambda l, r: np_grc(l, r, cell)), (lambda h: h), (lambda s: s)
    d = cell.d_h
    return ((lambda l, r: np_tree_lstm(l, r, cell)),
            (lambda h: np.concatenate([h, np.zeros(d)])), (lambda s: s[:d]))


def np_score(v, scorer):
    return float(v @ scorer.W_v.data[:, 0])


def enumerate_merge_derivations(leaves, cell, scorer):
    """All merge-order derivations as (actions, log_prob, encoding): at each
    step every adjacent pair may merge, scored by log-softmax over candidate
    scores; the final two-node merge adds no score. `cell` is the gated
    cell's or the tree-LSTM's parameters; the encoding is the root's h."""
    compose, lift, read_h = _np_cell(cell)
    results = []

    def go(nodes, logp, actions):
        if len(nodes) == 1:
            results.append((tuple(actions), logp, read_h(nodes[0])))
            return
        parents = [compose(nodes[i], nodes[i + 1])
                   for i in range(len(nodes) - 1)]
        if len(nodes) == 2:
            go([parents[0]], logp, actions + [0])
            return
        scores = sp_log_softmax(np.array([np_score(read_h(p), scorer)
                                          for p in parents]))
        for i, parent in enumerate(parents):
            go(nodes[:i] + [parent] + nodes[i + 2:], logp + scores[i],
               actions + [i])

    go([lift(h) for h in leaves], 0.0, [])
    return results


def enumerate_sr_derivations(leaves, cell, decision):
    """All complete shift-reduce derivations as (actions, log_prob, vector).
    One logit per state from the h of [stack[-2]; stack[-1]; queue-front]
    with zero vectors for missing slots; reduce scores log(sigmoid), shift
    the complement. The vector is the root's h."""
    compose, lift, read_h = _np_cell(cell)
    n = len(leaves)
    results = []

    def logit(stack, qpos):
        d = leaves[0].shape[0]
        s2 = read_h(stack[-2]) if len(stack) >= 2 else np.zeros(d)
        s1 = read_h(stack[-1]) if len(stack) >= 1 else np.zeros(d)
        qf = leaves[qpos] if qpos < n else np.zeros(d)
        return float(np.concatenate([s2, s1, qf]) @ decision.W.data[:, 0]
                     + decision.b.data[0])

    def go(stack, qpos, logp, actions):
        if len(actions) == 2 * n - 1:
            assert len(stack) == 1 and qpos == n
            results.append((tuple(actions), logp, read_h(stack[0])))
            return
        z = logit(stack, qpos)
        if qpos < n:
            go(stack + [lift(leaves[qpos])], qpos + 1,
               logp + np.log(expit(-z)), actions + ["s"])
        if len(stack) >= 2:
            parent = compose(stack[-2], stack[-1])
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

def full_recompose_easy_first_gumbel(leaves, cell, scorer, cfg, rng=None):
    """`encoders.encode_easy_first_gumbel` recomposing every adjacent pair
    on every step. Returns (vector, tree)."""
    n = leaves.data.shape[0]
    nodes = _lift(leaves, cell)
    actions = []
    while nodes.data.shape[0] > 2:
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
        actions.append(hard)
    if nodes.data.shape[0] == 2:
        out = _compose(_row(nodes, 0), _row(nodes, 1), cell)
        actions.append(0)
    else:
        out = _row(nodes, 0)
    return _read_h(out, cell), replay_actions(n, actions)


def full_recompose_bt_cell(leaves, cell, scorer, cfg, rng=None):
    """`encoders.encode_bt_cell` recomposing every adjacent pair of every
    beam on every step and building every pooled beam before truncation.
    Returns (encoding, final BeamSet)."""
    k = cfg.beam_size
    zero = Tensor(np.zeros(1, dtype=leaves.data.dtype))
    beams = [BeamState(nodes=_lift(leaves, cell), score=zero, actions=())]
    branch_mode = "gumbel" if (cfg.training and cfg.stochastic_topk) \
        else "deterministic"
    while beams[0].length > 2:
        pool = []
        for beam in beams:
            parents = _candidates(beam.nodes, cell)
            logp = T.log_softmax(score(_read_h(parents, cell), scorer))
            for i in plain_topk(logp.data, k, mode=branch_mode, rng=rng):
                pool.append(BeamState(
                    nodes=_splice_rows(beam.nodes, i, i + 2,
                                       T.slice_rows(parents, i, i + 1)),
                    score=T.add(beam.score, T.reshape(T.pick(logp, i), (1,))),
                    actions=beam.actions + (i,)))
        beams = truncate(BeamSet(pool), k, cfg.topk, cfg.training, rng,
                         cfg.stochastic_topk).beams
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

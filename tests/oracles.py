"""Independent reference implementations used to cross-check the package:
a plain-numpy gated cell and tree-LSTM, exhaustive enumeration of every
merge-order derivation, and exhaustive enumeration of shift-reduce
derivations. These
deliberately avoid the package's tensor machinery and use different library
routines (norm.cdf, expit, scipy log_softmax) for the nonlinearities."""

import numpy as np
from scipy.special import expit
from scipy.special import log_softmax as sp_log_softmax
from scipy.stats import norm


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

"""The composition cell and scoring: the gated recursive cell (GRC), the
linear merge scorer, and the leaf transform.

Node states are rows: `score` takes (rows, d_h) matrices only, one row per
node, and `grc_compose` (rows, 2 d_h) matrices, each row a node's two
children side by side, so a whole batch of candidate parents goes through
one matmul and a single node is a (1, d_h) matrix. Any other rank raises
`TensorError`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _need_rows(states: Tensor):
    if states.data.ndim != 2:
        raise T.TensorError("node states must be (rows, width) matrices, "
                            f"got shape {states.data.shape}")


class Params:
    """Base of the parameter dataclasses: `named()` maps "prefix.field" to
    each field's tensor, in field order, the checkpoint's names and order."""
    prefix = ""

    def named(self) -> dict:
        return {f"{self.prefix}.{f.name}": getattr(self, f.name)
                for f in fields(self)}


@dataclass
class GrcParams(Params):
    prefix = "grc"
    W1: Tensor  # (2*d_h, 4*d_h)
    b1: Tensor  # (4*d_h,)
    W2: Tensor  # (4*d_h, 4*d_h)
    b2: Tensor  # (4*d_h,)
    gamma: Tensor  # (d_h,)
    beta: Tensor  # (d_h,)

    @classmethod
    def init(cls, d_h: int, rng: np.random.Generator, dtype=np.float32):
        return cls(
            W1=Tensor(T.glorot_uniform((2 * d_h, 4 * d_h), rng, dtype), requires_grad=True),
            b1=Tensor(np.zeros(4 * d_h, dtype=dtype), requires_grad=True),
            W2=Tensor(T.glorot_uniform((4 * d_h, 4 * d_h), rng, dtype), requires_grad=True),
            b2=Tensor(np.zeros(4 * d_h, dtype=dtype), requires_grad=True),
            gamma=Tensor(np.ones(d_h, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(d_h, dtype=dtype), requires_grad=True),
        )

    @property
    def d_h(self) -> int:
        return self.gamma.data.shape[0]


def grc_compose(children: Tensor, p: GrcParams) -> Tensor:
    """Gated composition of each row's two children, given as one
    (rows, 2 d_h) matrix [left | right]: gates from a two-layer GELU MLP
    over the row, output = LN(sigmoid(z)*left + sigmoid(h)*right +
    sigmoid(c)*u).

    One tape primitive with a hand-written vjp, whose gradient for the
    children is one (rows, 2 d_h) matrix. The forward does the same
    arithmetic in the same order as composing the tensor primitives would,
    partly in place, so its values are the same bits; `tests/oracles.py`
    keeps that composed form as the reference."""
    _need_rows(children)
    d = p.d_h
    x = children.data
    if x.shape[1] != 2 * d:
        raise T.TensorError(f"children must be (rows, {2 * d}), got "
                            f"{x.shape}")
    l, r = x[:, :d], x[:, d:]
    pre = x @ p.W1.data
    pre += p.b1.data
    hidden, phi = T.gelu_data(pre)
    gates = hidden @ p.W2.data
    gates += p.b2.data
    # the three gates become their sigmoids in place; `sig` and `u` are
    # views that together keep exactly `gates`
    sig = gates[:, :3 * d]
    T.sigmoid_data(sig, out=sig)
    sz, sh, sc = sig[:, :d], sig[:, d:2 * d], sig[:, 2 * d:]
    u = gates[:, 3 * d:]
    mix = sz * l  # (sz*l + sh*r) + sc*u with one temporary
    term = sh * r
    mix += term
    mix += np.multiply(sc, u, out=term)
    out, xhat, inv = T.layer_norm_data(mix, p.gamma.data, p.beta.data)

    def vjp(g):
        # the GELU output is not kept from the forward: the same numpy
        # call recomputes it, with the same bits
        hidden = pre * phi
        dmix, dgamma, dbeta = T.layer_norm_grads(g, p.gamma.data, xhat, inv)
        dgates = np.empty_like(gates)
        for i, factor in enumerate((l, r, u, sc)):
            np.multiply(dmix, factor, out=dgates[:, i * d:(i + 1) * d])
        dgates[:, :3 * d] *= sig  # times sigmoid' = sig * (1 - sig)
        dgates[:, :3 * d] *= 1.0 - sig
        dpre = T.input_grad(dgates, p.W2.data) * T.gelu_slope(pre, phi)
        dx = T.input_grad(dpre, p.W1.data)
        dx[:, :d] += dmix * sz
        dx[:, d:] += dmix * sh
        return (dx, T.weight_grad(x, dpre), dpre.sum(axis=0),
                T.weight_grad(hidden, dgates), dgates.sum(axis=0),
                dgamma, dbeta)

    return T._make(out, (children, p.W1, p.b1, p.W2, p.b2, p.gamma,
                         p.beta), vjp)


@dataclass
class ScorerParams(Params):
    prefix = "scorer"
    W_v: Tensor  # (d_h, 1)

    @classmethod
    def init(cls, d_h: int, rng: np.random.Generator, dtype=np.float32):
        return cls(W_v=Tensor(T.glorot_uniform((d_h, 1), rng, dtype), requires_grad=True))


def score(v: Tensor, p: ScorerParams) -> Tensor:
    """Linear merge plausibility scores of (rows, d_h) states: shape
    (rows,). One tape primitive, with the values and gradients of a matmul
    by the (d_h, 1) W_v and a reshape."""
    _need_rows(v)
    x, w = v.data, p.W_v.data

    def vjp(g):
        # g @ w.T with one inner term: each entry is one product, so this
        # is (w @ g.T).T's bits, but C-ordered; the tape's copy keeps that
        # layout, which the row reductions of the vjps upstream then read
        g = g[:, None]
        return g @ w.T, T.weight_grad(x, g)

    return T._make((x @ w).reshape(-1), (v, p.W_v), vjp)


@dataclass
class LeafParams(Params):
    prefix = "leaf"
    embedding: Tensor  # (vocab, d_e)
    projection: Tensor  # (d_e, d_h)
    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, vocab: int, d_e: int, d_h: int, rng: np.random.Generator,
             dtype=np.float32):
        return cls(
            embedding=Tensor(T.glorot_uniform((vocab, d_e), rng, dtype), requires_grad=True),
            projection=Tensor(T.glorot_uniform((d_e, d_h), rng, dtype), requires_grad=True),
            gamma=Tensor(np.ones(d_h, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(d_h, dtype=dtype), requires_grad=True),
        )


def leaf_transform_seq(sequences, p: LeafParams, dropout_rate: float = 0.0,
                       rngs=None):
    """Embed token sequences and project to d_h: LN(embed(ids) @ projection),
    over every token of every sequence in one call.

    Dropout applies to the embeddings only when given rngs, one per
    sequence, in training; each sequence's mask is drawn from its own rng.
    Returns (total tokens, d_h), the sequences' rows one after another.
    """
    emb = T.rows_gather(p.embedding, [t for ids in sequences for t in ids])
    if rngs is not None and dropout_rate > 0.0:
        emb = T.dropout(emb, dropout_rate, rngs, [len(s) for s in sequences])
    return T.layer_norm(T.matmul(emb, p.projection), p.gamma, p.beta)


"""Beam containers and truncation operators: plain top-k, OneSoft top-k and
its interpolated beam, and the final score-weighted expectation. Top-k is
Gumbel-perturbed if and only if it is given an rng."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class BeamSet:
    """The final beams of an example, stacked: row b of `roots` is beam b's
    root h, `scores[b]` its accumulated log-probability and `actions[b]` the
    actions that produced it."""

    roots: Tensor  # (B, d_h)
    scores: Tensor  # (B,)
    actions: list  # B tuples

    def __len__(self):
        return len(self.actions)


def gumbel_noise(size: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(size)
    return -np.log(-np.log(u))


def plain_topk(scores, k: int, rng: np.random.Generator | None = None) -> list:
    """Indices of the k largest scores; ties broken by lowest index.

    With an rng each score is first perturbed with independent Gumbel(0,1)
    noise (stochastic top-k). If k exceeds the candidate count, all indices
    are returned.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("plain_topk on empty scores")
    if k < 1:
        raise ValueError("k must be >= 1")
    if rng is not None:
        scores = scores + gumbel_noise(scores.size, rng)
    return np.argsort(-scores, kind="stable")[:k].tolist()


def onesoft_topk(scores, k: int) -> list:
    """OneSoft selection: the top k-1 pool indices alone, then every other
    index as one group, best first, whose beams `collapse_tail` interpolates
    so gradients reach every input beam."""
    m = len(scores)
    if k < 2:
        raise ValueError("onesoft_topk requires k >= 2")
    if k > m:
        raise ValueError(f"onesoft_topk requires k <= m, got k={k}, m={m}")
    order = plain_topk(scores, m)
    return [[i] for i in order[:k - 1]] + [order[k - 1:]]


def truncate(scores, k: int, onesoft: bool = False,
             rng: np.random.Generator | None = None) -> list:
    """Beam truncation of a pool with (m,) scores, as groups of pool
    indices, one group per beam kept. A group of one index keeps that beam;
    a longer one (`onesoft`) is ordered best first, ties to the lowest
    index, and stands for the interpolation of its beams, which carries the
    actions of its first. Otherwise this is hard top-k, Gumbel-perturbed
    when given an rng."""
    m = len(scores)
    if k >= m:
        return [[i] for i in range(m)]
    if onesoft:
        return onesoft_topk(scores, k)
    return [[i] for i in plain_topk(scores, k, rng)]


def collapse_tail(nodes: Tensor, scores: Tensor, count: int):
    """Stacked beams (`nodes` with an equal share of rows per entry of the
    (B,) `scores`) with the last `count` replaced by one beam, their
    softmax(score)-weighted sum, scored by the same weighted sum."""
    beams = scores.data.shape[0]
    keep = beams - count
    length = nodes.data.shape[0] // beams
    tail_scores = T.slice_rows(scores, keep, beams)
    w = T.softmax(tail_scores)
    tail = T.reshape(T.slice_rows(nodes, keep * length, beams * length),
                     (count, -1))
    mixed = T.reshape(T.matmul(w, tail), (length, -1))
    mixed_score = T.reshape(T.matmul(w, tail_scores), (1,))
    return (T.concat([T.slice_rows(nodes, 0, keep * length), mixed], axis=0),
            T.concat([T.slice_rows(scores, 0, keep), mixed_score], axis=0))


def merge_beams(roots: Tensor, scores: Tensor) -> Tensor:
    """Expectation over stacked beam encodings: softmax(scores) @ roots, for
    (B, d_h) `roots` and (B,) `scores`."""
    if roots.data.shape[0] != scores.data.shape[0] or not scores.data.size:
        raise ValueError("merge_beams needs one score per root, and a root")
    return T.matmul(T.softmax(scores), roots)

"""Beam containers and truncation operators: plain top-k, OneSoft top-k and
its interpolated beams, and the final score-weighted expectation, the last
two over the beams of a whole batch at once. Top-k is Gumbel-perturbed if
and only if it is given an rng."""

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


def gumbel_noise(size, rng: np.random.Generator) -> np.ndarray:
    """Gumbel(0, 1) noise of shape `size`, from one `rng.random` call
    mapped entry by entry: row after row, the same draws as one call per
    row."""
    u = rng.random(size)
    return -np.log(-np.log(u))


def plain_topk(scores, k: int, rng: np.random.Generator | None = None):
    """Indices of the k largest scores, ties broken by lowest index: of a
    1-D vector as a list, of each row of a (rows, n) matrix as a
    (rows, min(k, n)) int array. The beam search's candidates over equal
    subtrees are one row with one score, so their ties are exact and this
    rule breaks them, in any batch.

    With an rng each score is first perturbed with independent Gumbel(0,1)
    noise (stochastic top-k), for a matrix drawn in one call, row after
    row, and the sum is float64. Without one the scores keep their dtype:
    a float32 row orders, ties included, as its float64 copy does. If k
    exceeds the candidate count, all indices are returned.
    """
    scores = np.asarray(scores)
    if scores.size == 0:
        raise ValueError("plain_topk on empty scores")
    if k < 1:
        raise ValueError("k must be >= 1")
    if rng is not None:
        scores = scores + gumbel_noise(scores.shape, rng)
    top = (-scores).argsort(axis=-1, kind="stable")[..., :k]
    return top if top.ndim == 2 else top.tolist()


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
             rng: np.random.Generator | None = None):
    """Beam truncation of a pool with (m,) scores, as groups of pool
    indices, one group per beam kept. A group of one index keeps that beam;
    a longer one (`onesoft`) is ordered best first, ties to the lowest
    index, and stands for the interpolation of its beams, which carries the
    actions of its first. Otherwise this is hard top-k, Gumbel-perturbed
    when given an rng. Groups of one index each are the rows of a
    (kept, 1) int array; OneSoft's, when it drops a beam, a list of
    lists."""
    if k >= len(scores):
        return np.arange(len(scores))[:, None]
    if onesoft:
        return onesoft_topk(scores, k)
    return plain_topk(np.asarray(scores)[None], k, rng).T  # of one row


def tail_entries(counts, lengths):
    """(tail, node, beam) of each row `collapse_tail` reads: tail t has
    counts[t] beams of lengths[t] nodes, read node by node, beam by beam."""
    counts, lengths = np.asarray(counts), np.asarray(lengths)
    return np.nonzero(
        (np.arange(lengths.max())[:, None] < lengths[:, None, None])
        & (np.arange(counts.max()) < counts[:, None, None]))


def collapse_tail(rows: Tensor, scores: Tensor, counts, lengths):
    """OneSoft's interpolated beams. Tail t has counts[t] beams of
    lengths[t] nodes each: their (counts[t],) scores, one run of `scores`
    per tail, and their node rows position by position (for each node, its
    row in each beam, in beam order), one run of `rows` per tail. Returns
    the (sum(lengths), width) rows and (tails,) scores of one beam per tail,
    its beams' softmax(score)-weighted sum."""
    w = T.segment_softmax(scores, counts)
    tail, _, beam = tail_entries(counts, lengths)
    tiled = (np.cumsum(counts) - counts)[tail] + beam
    per_node = np.repeat(counts, lengths)
    return (T.segment_sum(T.rows_gather(w, tiled), rows, per_node),
            T.segment_sum(w, scores, counts))


def merge_beams(roots: Tensor, scores: Tensor, counts) -> Tensor:
    """Expectation over stacked beam encodings, per example: softmax(scores)
    @ roots over each run of counts[e] beams, for (B, d_h) `roots` and (B,)
    `scores`; returns (len(counts), d_h)."""
    if roots.data.shape[0] != scores.data.shape[0] or not scores.data.size:
        raise ValueError("merge_beams needs one score per root, and a root")
    return T.segment_sum(T.segment_softmax(scores, counts), roots, counts)

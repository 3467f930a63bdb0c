"""Beam containers and truncation operators: plain top-k (deterministic or
Gumbel-perturbed), OneSoft top-k, and the final score-weighted expectation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class BeamState:
    """One hypothesis: a sequence of node states, its accumulated
    log-probability, the merge actions that produced it, and optionally the
    parent states of its adjacent node pairs."""

    nodes: Tensor  # (length, state width); a finished beam holds its root h
    score: Tensor  # (1,)
    actions: tuple = ()
    parents: Tensor | None = None  # (length - 1, state width) when cached

    @property
    def length(self) -> int:
        return self.nodes.data.shape[0]


@dataclass
class BeamSet:
    beams: list

    def __len__(self):
        return len(self.beams)

    def scores(self) -> np.ndarray:
        return np.array([b.score.item() for b in self.beams])


def gumbel_noise(size: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(size)
    return -np.log(-np.log(u))


def plain_topk(scores, k: int, mode: str = "deterministic",
               rng: np.random.Generator | None = None) -> list:
    """Indices of the k largest scores; ties broken by lowest index.

    `gumbel` mode perturbs each score with independent Gumbel(0,1) noise
    before selection (stochastic top-k). If k exceeds the candidate count,
    all indices are returned.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("plain_topk on empty scores")
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode == "gumbel":
        if rng is None:
            raise ValueError("gumbel mode needs an rng")
        scores = scores + gumbel_noise(scores.size, rng)
    elif mode != "deterministic":
        raise ValueError(f"unknown top-k mode {mode!r}")
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    return order[: min(k, scores.size)]


def _weighted_beam_sum(beams, weights: Tensor) -> BeamState:
    nodes = None
    score = None
    for i, b in enumerate(beams):
        w = T.pick(weights, i)
        part = T.mul(b.nodes, w)
        nodes = part if nodes is None else T.add(nodes, part)
        sp = T.mul(b.score, w)
        score = sp if score is None else T.add(score, sp)
    # an interpolated beam has no single action history; carry the history of
    # its highest-scoring constituent so parse extraction stays well-defined
    best = max(range(len(beams)), key=lambda i: (beams[i].score.item(), -i))
    return BeamState(nodes=nodes, score=score, actions=beams[best].actions)


def onesoft_topk(bs: BeamSet, k: int) -> BeamSet:
    """Keep the top k-1 beams discretely and collapse the rest into one
    softmax-weighted interpolated beam, so gradients reach every input beam."""
    m = len(bs)
    if k < 2:
        raise ValueError("onesoft_topk requires k >= 2")
    if k > m:
        raise ValueError(f"onesoft_topk requires k <= m, got k={k}, m={m}")
    idx = plain_topk(bs.scores(), k - 1)
    chosen = set(idx)
    top = [bs.beams[i] for i in idx]
    bottom = [bs.beams[i] for i in range(m) if i not in chosen]
    if len(bottom) == 1:
        return BeamSet(top + bottom)
    weights = T.softmax(T.concat([b.score for b in bottom], axis=0))
    return BeamSet(top + [_weighted_beam_sum(bottom, weights)])


def truncate(bs: BeamSet, k: int, variant: str, training: bool,
             rng: np.random.Generator | None = None,
             stochastic: bool = False) -> BeamSet:
    """Configured beam truncation. OneSoft applies only in training; at eval
    time (and for the plain variant) this is hard top-k selection of input
    beams, optionally Gumbel-perturbed during training. Hard selection reads
    only each entry's `score.item()`, so its entries need not be beams."""
    m = len(bs)
    if k >= m:
        return bs
    if training and variant == "onesoft":
        return BeamSet(onesoft_topk(bs, k).beams)
    mode = "gumbel" if (training and stochastic) else "deterministic"
    idx = plain_topk(bs.scores(), k, mode=mode, rng=rng)
    return BeamSet([bs.beams[i] for i in idx])


def merge_beams(encodings: list, scores: list) -> Tensor:
    """Expectation over beam encodings: sum_i softmax(scores)_i * o_i."""
    if len(encodings) != len(scores) or not encodings:
        raise ValueError("merge_beams needs matching non-empty lists")
    if len(encodings) == 1:
        return encodings[0]
    w = T.softmax(T.concat(scores, axis=0))
    out = None
    for i, o in enumerate(encodings):
        part = T.mul(o, T.pick(w, i))
        out = part if out is None else T.add(out, part)
    return out

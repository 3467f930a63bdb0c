"""Binary trees over token positions, given as their merge actions: the
adjacent-merge indices that the beam search records, that
`listops.gold_tree_listops` derives and that the fixed-tree encoder composes
along. `replay_actions` folds them; a tree's bracketed string, its spans,
span F1 and the parse distribution of a BeamSet are all read through it.

Span F1 counts every internal-node span, including the full-sentence span
(both trees always contain it by construction).
"""

from __future__ import annotations

import numpy as np

from .topk import BeamSet


class TreeError(Exception):
    pass


def replay_actions(n: int, actions, leaf, join):
    """Fold the tree that the merge `actions` make over `n` leaves. Items
    start as `leaf(i)`, and merge `a` replaces items a and a + 1 by
    `join(item a, item a + 1)`; returns the one item left."""
    items = [leaf(i) for i in range(n)]
    for a in actions:
        if not 0 <= a < len(items) - 1:
            raise TreeError(f"merge index {a} out of range for {len(items)} items")
        items[a] = join(items[a], items[a + 1])
        del items[a + 1]
    if len(items) != 1:
        raise TreeError(f"incomplete action history: {len(items)} items remain")
    return items[0]


def bracketed(actions, tokens) -> str:
    """The tree over `tokens` as a bracketed string, like "((a b) c)"."""
    return replay_actions(len(tokens), actions, lambda i: str(tokens[i]),
                          lambda left, right: f"({left} {right})")


def spans(n: int, actions) -> set:
    """(first, last) leaf positions of every internal node."""
    found = set()

    def join(left, right):
        found.add((left[0], right[1]))
        return (left[0], right[1])

    replay_actions(n, actions, lambda i: (i, i), join)
    return found


def span_f1(pred, gold, n: int) -> float:
    """Unlabeled bracketing F1 between two trees of `n` leaves, each given
    as merge actions, over their internal-node spans."""
    ps, gs = spans(n, pred), spans(n, gold)
    if not ps and not gs:
        return 1.0
    return 2.0 * len(ps & gs) / (len(ps) + len(gs))


def parse_distribution(beams: BeamSet, tokens) -> list:
    """The distinct trees of a BeamSet's beams over `tokens`, as
    [(bracketed tree, probability)], most probable first: each beam's merge
    actions are replayed into a tree, and a tree's probability is the
    summed softmax of its beams' scores, added in beam order."""
    scores = beams.scores.data.astype(np.float64)
    weights = np.exp(scores - scores.max())
    merged: dict = {}
    for actions, p in zip(beams.actions, (weights / weights.sum()).tolist()):
        tree = bracketed(actions, tokens)
        merged[tree] = merged.get(tree, 0.0) + p
    return sorted(merged.items(), key=lambda item: -item[1])

"""Binary trees over token positions, given as their merge actions: the
adjacent-merge indices that the beam search records, that
`listops.gold_tree_listops` derives and that the fixed-tree encoder composes
along. `replay_actions` folds them; a tree's bracketed string, its spans,
span F1 and the parses of a BeamSet are all read through it.

Span F1 counts every internal-node span, including the full-sentence span
(both trees always contain it by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class BeamParse:
    tree: str
    probability: float
    actions: tuple


def extract_parses(bs: BeamSet, tokens) -> list:
    """Replay each beam's merge-action history into a tree over `tokens` and
    attach softmaxed beam scores as probabilities."""
    scores = bs.scores.data.astype(np.float64)
    weights = np.exp(scores - scores.max())
    return [BeamParse(tree=bracketed(actions, tokens), probability=float(p),
                      actions=tuple(actions))
            for actions, p in zip(bs.actions, weights / weights.sum())]


def collapse_duplicates(parses: list) -> list:
    """Merge parses with identical tree strings, summing probabilities;
    result sorted by probability descending."""
    merged: dict = {}
    for p in parses:
        if p.tree in merged:
            prev = merged[p.tree]
            merged[p.tree] = BeamParse(tree=p.tree,
                                       probability=prev.probability + p.probability,
                                       actions=prev.actions)
        else:
            merged[p.tree] = p
    return sorted(merged.values(), key=lambda p: -p.probability)

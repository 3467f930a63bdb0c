"""Post-hoc analysis of induced structures: per-beam parse extraction,
duplicate-structure collapsing, and gold-tree agreement.

Span F1 counts every internal-node span, including the full-sentence span
(both trees always contain it by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topk import BeamSet
from .trees import ParseTree, replay_actions


class ParseAnalysisError(Exception):
    pass


@dataclass
class BeamParse:
    tree: str
    probability: float
    actions: tuple


def extract_parses(bs: BeamSet, tokens) -> list:
    """Replay each beam's merge-action history into a tree over `tokens` and
    attach softmaxed beam scores as probabilities."""
    n = len(tokens)
    scores = bs.scores.data.astype(np.float64)
    z = scores - scores.max()
    probs = np.exp(z) / np.exp(z).sum()
    out = []
    for actions, p in zip(bs.actions, probs):
        if len(actions) != max(n - 1, 0):
            raise ParseAnalysisError(
                f"incomplete action history: {len(actions)} actions for "
                f"{n} tokens")
        tree = replay_actions(n, actions)
        out.append(BeamParse(tree=tree.to_string(tokens), probability=float(p),
                             actions=tuple(actions)))
    return out


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


def tree_agreement(pred: ParseTree, gold: ParseTree) -> float:
    """Unlabeled bracketing F1 over internal-node spans."""
    if pred.n_leaves() != gold.n_leaves():
        raise ParseAnalysisError("leaf-count mismatch")
    ps = pred.internal_spans()
    gs = gold.internal_spans()
    if not ps and not gs:
        return 1.0
    overlap = len(ps & gs)
    return 2.0 * overlap / (len(ps) + len(gs))

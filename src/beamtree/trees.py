"""Binary parse trees over token positions, bracketed-string serialization,
and action-sequence replay. A tree is given as its merge actions, the
adjacent-merge indices that `replay_actions` decodes: the beam search
records them, `listops.gold_tree_listops` derives them, and the fixed-tree
encoder composes along them."""

from __future__ import annotations

from dataclasses import dataclass


class TreeError(Exception):
    pass


@dataclass(frozen=True)
class ParseTree:
    """Binary tree whose leaves are token positions 0..n-1, left to right."""

    leaf: int | None = None
    left: "ParseTree | None" = None
    right: "ParseTree | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def leaves(self) -> list:
        if self.is_leaf:
            return [self.leaf]
        return self.left.leaves() + self.right.leaves()

    def n_leaves(self) -> int:
        return 1 if self.is_leaf else self.left.n_leaves() + self.right.n_leaves()

    def span(self) -> tuple:
        lv = self.leaves()
        return (lv[0], lv[-1])

    def internal_spans(self) -> set:
        """(first, last) leaf-position pairs of every internal node."""
        spans = set()
        _add_spans(self, spans)
        return spans

    def is_projective(self) -> bool:
        """Leaves must read 0..n-1 in order, so every node spans a
        contiguous range."""
        return self.leaves() == list(range(self.n_leaves()))

    def to_string(self, tokens=None) -> str:
        if self.is_leaf:
            return str(self.leaf) if tokens is None else tokens[self.leaf]
        return f"({self.left.to_string(tokens)} {self.right.to_string(tokens)})"


# The recursions below are module-level functions, not closures that refer
# to themselves: such a closure is a reference cycle left behind by every
# call, freed only when the cyclic garbage collector runs.

def _add_spans(t: ParseTree, spans: set) -> tuple:
    """Add the internal spans of `t` to `spans`; return the span of `t`."""
    if t.is_leaf:
        return (t.leaf, t.leaf)
    first, _ = _add_spans(t.left, spans)
    _, last = _add_spans(t.right, spans)
    spans.add((first, last))
    return (first, last)


def leaf(i: int) -> ParseTree:
    return ParseTree(leaf=i)


def branch(left: ParseTree, right: ParseTree) -> ParseTree:
    return ParseTree(left=left, right=right)


def replay_actions(n: int, actions) -> ParseTree:
    """Rebuild the tree produced by a sequence of adjacent-merge indices."""
    if n < 1:
        raise TreeError("need at least one leaf")
    items = [leaf(i) for i in range(n)]
    for a in actions:
        if not 0 <= a < len(items) - 1:
            raise TreeError(f"merge index {a} out of range for {len(items)} items")
        items[a] = branch(items[a], items[a + 1])
        del items[a + 1]
    if len(items) != 1:
        raise TreeError(f"incomplete action history: {len(items)} items remain")
    return items[0]

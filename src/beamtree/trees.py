"""Binary parse trees over token positions, bracketed-string serialization,
action-sequence replay, and ListOps gold trees."""

from __future__ import annotations

import itertools
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


def tree_to_actions(tree: ParseTree) -> list:
    """Bottom-up merge indices whose replay reproduces `tree`."""
    actions = []
    _post_order_merges(tree, list(range(tree.n_leaves())), actions)
    return actions


def _post_order_merges(t: ParseTree, items: list, actions: list):
    """Append the merges of `t`, children first; `items` holds the leftmost
    leaf of every current item."""
    if t.is_leaf:
        return
    _post_order_merges(t.left, items, actions)
    _post_order_merges(t.right, items, actions)
    i = items.index(t.left.span()[0])
    assert items[i + 1] == t.right.span()[0]
    actions.append(i)
    del items[i + 1]


def parse_tree_string(s: str) -> ParseTree:
    """Parse a bracketed string like "((a b) c)" back into a ParseTree;
    leaf positions are assigned left to right."""
    tree, pos = _parse_subtree(s, 0, itertools.count())
    if _skip_ws(s, pos) != len(s):
        raise TreeError("trailing characters after tree")
    return tree


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] == " ":
        i += 1
    return i


def _parse_subtree(s: str, i: int, leaf_ids) -> tuple:
    """The subtree of `s` from position i, and the position after it;
    leaves take their positions from the iterator `leaf_ids`."""
    i = _skip_ws(s, i)
    if i >= len(s):
        raise TreeError("unexpected end of tree string")
    if s[i] == "(":
        left_t, i = _parse_subtree(s, i + 1, leaf_ids)
        right_t, i = _parse_subtree(s, i, leaf_ids)
        i = _skip_ws(s, i)
        if i >= len(s) or s[i] != ")":
            raise TreeError("expected ')'")
        return branch(left_t, right_t), i + 1
    j = i
    while j < len(s) and s[j] not in " ()":
        j += 1
    if j == i:
        raise TreeError(f"empty token at position {i}")
    return leaf(next(leaf_ids)), j


def gold_tree_listops(tokens) -> ParseTree:
    """Gold composition order for a ListOps token sequence: per operator
    scope, a left-branching chain over (operator, args..., close-bracket),
    with nested scopes composed first."""
    n = len(tokens)
    if n == 1:
        return leaf(0)
    tree, end = _gold_scope(tokens, 0)
    if end != n:
        raise TreeError("trailing tokens after top-level expression")
    return tree


def _gold_scope(tokens, i: int) -> tuple:
    n = len(tokens)
    if i >= n or not tokens[i].startswith("["):
        raise TreeError(f"expected operator token at position {i}")
    node = leaf(i)
    i += 1
    while i < n and tokens[i] != "]":
        if tokens[i].startswith("["):
            sub, i = _gold_scope(tokens, i)
        else:
            sub, i = leaf(i), i + 1
        node = branch(node, sub)
    if i >= n:
        raise TreeError("missing closing bracket")
    return branch(node, leaf(i)), i + 1

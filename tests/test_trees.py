import gc
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamtree.trees import (ParseTree, TreeError, branch, gold_tree_listops,
                            leaf, replay_actions)

# Trees from merge indices and from bracketed strings, and back: helpers of
# these tests, which check replay and serialization against them.


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


BALANCED_8 = parse_tree_string("(((0 1) (2 3)) ((4 5) (6 7)))")


def _random_tree(n, rng):
    """n leaves merged one uniformly random adjacent pair at a time."""
    return replay_actions(n, [int(rng.integers(0, n - 1 - j))
                              for j in range(n - 1)])


def test_replay_left_chain():
    t = replay_actions(3, [0, 0])
    assert t.to_string() == "((0 1) 2)"


def test_replay_right_chain():
    t = replay_actions(3, [1, 0])
    assert t.to_string() == "(0 (1 2))"


def test_replay_single_leaf():
    assert replay_actions(1, []).to_string() == "0"


def test_replay_rejects_bad_index():
    with pytest.raises(TreeError):
        replay_actions(3, [2, 0])
    with pytest.raises(TreeError):
        replay_actions(3, [0])  # incomplete


def test_tree_action_round_trip():
    rng = np.random.default_rng(0)
    for n in range(1, 9):
        for _ in range(5):
            t = _random_tree(n, rng)
            assert replay_actions(n, tree_to_actions(t)).to_string() == t.to_string()


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
def test_random_tree_projective(n, seed):
    t = _random_tree(n, np.random.default_rng(seed))
    assert t.is_projective()
    assert t.n_leaves() == n


def test_parse_string_round_trip():
    rng = np.random.default_rng(1)
    for n in range(1, 8):
        t = _random_tree(n, rng)
        s = t.to_string()
        assert parse_tree_string(s).to_string() == s


def test_parse_string_with_tokens():
    t = parse_tree_string("((a b) c)")
    assert t.to_string(["x", "y", "z"]) == "((x y) z)"


def test_parse_string_rejects_garbage():
    with pytest.raises(TreeError):
        parse_tree_string("((0 1)")
    with pytest.raises(TreeError):
        parse_tree_string("(0 1) 2")


def test_internal_spans():
    t = parse_tree_string("((0 1) 2)")
    assert t.internal_spans() == {(0, 1), (0, 2)}


def test_gold_tree_flat_expression():
    tokens = "[MAX 2 3 ]".split()
    t = gold_tree_listops(tokens)
    assert t.to_string(tokens) == "((([MAX 2) 3) ])"


def test_gold_tree_nested_scopes_first():
    tokens = "[SM 1 [MIN 4 5 ] 2 ]".split()
    t = gold_tree_listops(tokens)
    assert t.to_string(tokens) == "(((([SM 1) ((([MIN 4) 5) ])) 2) ])"
    assert t.is_projective()


def test_gold_tree_rejects_unclosed():
    with pytest.raises(TreeError):
        gold_tree_listops("[MAX 2 3".split())


@pytest.mark.parametrize("call", [
    lambda: gold_tree_listops("[SM 1 [MIN 4 5 ] 2 ]".split()),
    lambda: BALANCED_8.internal_spans(),
    lambda: BALANCED_8.to_string(),
    lambda: tree_to_actions(BALANCED_8),
    lambda: parse_tree_string("((a b) c)"),
], ids=["gold_tree_listops", "internal_spans", "to_string", "tree_to_actions",
        "parse_tree_string"])
def test_gold_tree_leaves_no_reference_cycle(call):
    # a self-referencing closure leaves a reference cycle per call (6, 12,
    # 4, 7 and 9 unreachable objects here when each call had one)
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()

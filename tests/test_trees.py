import gc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamtree.trees import (TreeError, gold_tree_listops, parse_tree_string,
                            replay_actions, tree_to_actions)

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

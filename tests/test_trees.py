import gc
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from one_example import tree_to_actions

from beamtree.listops import GenConfig, ListOpsError, generate, \
    gold_tree_listops
from beamtree.trees import ParseTree, TreeError, branch, leaf, replay_actions

# Trees from bracketed strings, and back: helpers of these tests, which
# check serialization against them.


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


def _gold_tree(tokens) -> ParseTree:
    return replay_actions(len(tokens), gold_tree_listops(tokens))


def test_gold_tree_flat_expression():
    tokens = "[MAX 2 3 ]".split()
    assert gold_tree_listops(tokens) == [0, 0, 0]
    assert _gold_tree(tokens).to_string(tokens) == "((([MAX 2) 3) ])"


def test_gold_tree_nested_scopes_first():
    tokens = "[SM 1 [MIN 4 5 ] 2 ]".split()
    t = _gold_tree(tokens)
    assert t.to_string(tokens) == "(((([SM 1) ((([MIN 4) 5) ])) 2) ])"
    assert t.is_projective()


def test_gold_tree_of_a_lone_digit_has_no_merges():
    assert gold_tree_listops(["7"]) == []


def test_gold_tree_rejects_unclosed():
    with pytest.raises(ListOpsError):
        gold_tree_listops("[MAX 2 3".split())


def _scope_spans(tokens) -> set:
    """Per operator scope, (scope start, end of each argument) and (scope
    start, close), from bracket positions alone."""
    spans, opened = set(), []
    for i, tok in enumerate(tokens):
        if tok.startswith("["):
            opened.append(i)
            continue
        if tok == "]":
            spans.add((opened.pop(), i))
        if opened:  # a digit, or the scope just closed, ends an argument
            spans.add((opened[-1], i))
    return spans


def test_gold_tree_spans_are_the_scopes_arguments():
    examples = generate(GenConfig(max_length=40, max_depth=4, min_args=1,
                                  max_args=5, nest_prob=0.5, count=2000,
                                  seed=5))
    assert max(ex.depth for ex in examples) >= 3
    for ex in examples:
        tokens = ex.source.split()
        assert _gold_tree(tokens).internal_spans() == _scope_spans(tokens), \
            ex.source


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

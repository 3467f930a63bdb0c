import gc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from one_example import encode_bt_cell

from beamtree.cells import GrcParams, ScorerParams
from beamtree.listops import GenConfig, ListOpsError, generate, \
    gold_tree_listops
from beamtree.tensor import Tensor
from beamtree.topk import BeamSet
from beamtree.trees import TreeError, bracketed, parse_distribution, \
    replay_actions, span_f1, spans


def read_brackets(s: str) -> tuple:
    """(leaves, internal spans) of a bracketed string like "((a b) c)",
    read off its parenthesis positions alone: a ")" closes the span from
    the leaf after its "(" to the leaf before it. Raises TreeError unless
    every "(" holds exactly two items."""
    leaves, found, opened = [], set(), []  # opened: (first leaf, items)
    for tok in s.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            opened.append([len(leaves), 0])
            continue
        if tok == ")":
            if not opened or opened[-1][1] != 2:
                raise TreeError(f"bad bracket in {s!r}")
            found.add((opened.pop()[0], len(leaves) - 1))
        else:
            leaves.append(tok)
        if opened:  # a leaf, or the node just closed, is one item
            opened[-1][1] += 1
    if opened:
        raise TreeError(f"unclosed bracket in {s!r}")
    return leaves, found


@st.composite
def trees(draw, max_leaves=12):
    """(n, merge actions) of a random tree of 1..max_leaves leaves."""
    n = draw(st.integers(min_value=1, max_value=max_leaves))
    return n, [draw(st.integers(min_value=0, max_value=n - 2 - j))
               for j in range(n - 1)]


def _random_actions(n, rng):
    """n leaves merged one uniformly random adjacent pair at a time."""
    return [int(rng.integers(0, n - 1 - j)) for j in range(n - 1)]


BALANCED_8 = [0, 1, 0, 1, 2, 1, 0]  # (((0 1) (2 3)) ((4 5) (6 7)))


def test_replay_left_chain():
    assert bracketed([0, 0], range(3)) == "((0 1) 2)"


def test_replay_right_chain():
    assert bracketed([1, 0], range(3)) == "(0 (1 2))"


def test_replay_single_leaf():
    assert bracketed([], range(1)) == "0"


def test_replay_folds_in_merge_order():
    merged = []

    def join(left, right):
        merged.append((left, right))
        return left + right

    assert replay_actions(4, [2, 0, 0], lambda i: str(i), join) == "0123"
    assert merged == [("2", "3"), ("0", "1"), ("01", "23")]


def test_replay_rejects_bad_index():
    with pytest.raises(TreeError, match="out of range"):
        bracketed([2, 0], range(3))
    with pytest.raises(TreeError, match="out of range"):
        bracketed([-1, 0], range(3))
    with pytest.raises(TreeError, match="incomplete"):
        bracketed([0], range(3))
    with pytest.raises(TreeError, match="incomplete"):
        bracketed([], [])


def test_bracketed_with_tokens():
    assert bracketed([0, 0], ["x", "y", "z"]) == "((x y) z)"
    assert bracketed(BALANCED_8, range(8)) == "(((0 1) (2 3)) ((4 5) (6 7)))"


@given(trees())
def test_spans_match_the_brackets_of_the_string(tree):
    n, actions = tree
    leaves, found = read_brackets(bracketed(actions, range(n)))
    assert leaves == [str(i) for i in range(n)]
    assert spans(n, actions) == found
    assert len(found) == n - 1


def test_read_brackets_rejects_garbage():
    for s in ("((0 1)", "(0 1 2)", "(0)", "0 1)"):
        with pytest.raises(TreeError):
            read_brackets(s)


def test_internal_spans():
    assert spans(3, [0, 0]) == {(0, 1), (0, 2)}


def test_gold_tree_flat_expression():
    tokens = "[MAX 2 3 ]".split()
    assert gold_tree_listops(tokens) == [0, 0, 0]
    assert bracketed(gold_tree_listops(tokens), tokens) == "((([MAX 2) 3) ])"


def test_gold_tree_nested_scopes_first():
    tokens = "[SM 1 [MIN 4 5 ] 2 ]".split()
    assert bracketed(gold_tree_listops(tokens), tokens) == \
        "(((([SM 1) ((([MIN 4) 5) ])) 2) ])"


def test_gold_tree_of_a_lone_digit_has_no_merges():
    assert gold_tree_listops(["7"]) == []


def test_gold_tree_rejects_unclosed():
    with pytest.raises(ListOpsError):
        gold_tree_listops("[MAX 2 3".split())


def _scope_spans(tokens) -> set:
    """Per operator scope, (scope start, end of each argument) and (scope
    start, close), from bracket positions alone."""
    found, opened = set(), []
    for i, tok in enumerate(tokens):
        if tok.startswith("["):
            opened.append(i)
            continue
        if tok == "]":
            found.add((opened.pop(), i))
        if opened:  # a digit, or the scope just closed, ends an argument
            found.add((opened[-1], i))
    return found


def test_gold_tree_spans_are_the_scopes_arguments():
    examples = generate(GenConfig(max_length=40, max_depth=4, max_args=5,
                                  nest_prob=0.5, count=2000, seed=5))
    assert max(ex.depth for ex in examples) >= 3
    # the generator gives every operator two arguments or more; an
    # operator of one argument is written out
    one_arg = ["[MAX 3 ]", "[SM [MIN 4 ] 2 ]", "[MED [MAX [SM 1 ] ] ]"]
    for source in [ex.source for ex in examples] + one_arg:
        tokens = source.split()
        assert spans(len(tokens), gold_tree_listops(tokens)) == \
            _scope_spans(tokens), source


@pytest.mark.parametrize("call", [
    lambda: gold_tree_listops("[SM 1 [MIN 4 5 ] 2 ]".split()),
    lambda: spans(8, BALANCED_8),
    lambda: bracketed(BALANCED_8, range(8)),
    lambda: read_brackets("((a b) c)"),
], ids=["gold_tree_listops", "spans", "bracketed", "read_brackets"])
def test_gold_tree_leaves_no_reference_cycle(call):
    # a self-referencing closure leaves a reference cycle per call, kept
    # until the cyclic garbage collector runs
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# span F1 between two trees given as actions

def test_span_f1_identical_trees():
    assert span_f1([0, 1, 0], [0, 1, 0], 4) == 1.0  # ((0 1) (2 3))


def test_span_f1_left_vs_right_chain_n4():
    # spans {(0,1),(0,2),(0,3)} vs {(2,3),(1,3),(0,3)}: one of three shared
    assert span_f1([0, 0, 0], [2, 1, 0], 4) == pytest.approx(1.0 / 3.0)


def test_span_f1_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = _random_actions(6, rng), _random_actions(6, rng)
        assert span_f1(a, b, 6) == pytest.approx(span_f1(b, a, 6))


@given(trees(max_leaves=7), st.randoms(use_true_random=False))
def test_span_f1_is_one_exactly_for_the_same_tree(tree, random):
    # a binary tree is its set of spans: F1 is 1 only when the two action
    # lists (in any merge order) build the same tree
    n, a = tree
    b = [random.randint(0, n - 2 - j) for j in range(n - 1)]
    same = bracketed(a, range(n)) == bracketed(b, range(n))
    assert (span_f1(a, b, n) == 1.0) == same
    assert span_f1(a, a, n) == 1.0


def test_span_f1_single_leaf():
    assert span_f1([], [], 1) == 1.0


def test_span_f1_leaf_count_mismatch():
    # actions of 3 and 4 leaves: one replay runs out of items or leaves
    # more than one
    with pytest.raises(TreeError):
        span_f1([0, 0], [0, 0, 0], 3)
    with pytest.raises(TreeError):
        span_f1([0, 0], [0, 0, 0], 4)


# ---------------------------------------------------------------------------
# beam parses

def _run_bt(n, k, seed=0):
    rng = np.random.default_rng(seed)
    grc = GrcParams.init(4, rng, np.float64)
    scorer = ScorerParams.init(4, rng, np.float64)
    leaves = Tensor(rng.standard_normal((n, 4)))
    return encode_bt_cell(leaves, grc, scorer, k)


def test_probabilities_sum_to_one():
    _, beams = _run_bt(6, 4)
    parses = parse_distribution(beams, list("abcdef"))
    assert abs(sum(p for _tree, p in parses) - 1.0) <= 1e-9


def test_each_tree_is_the_bracketed_replay_of_its_beams():
    _, beams = _run_bt(5, 3)
    tokens = list("abcde")
    trees = [tree for tree, _p in parse_distribution(beams, tokens)]
    assert sorted(trees) == sorted({bracketed(actions, tokens)
                                    for actions in beams.actions})


def test_probabilities_are_the_summed_softmax_of_the_beam_scores():
    _, beams = _run_bt(6, 4, seed=2)
    tokens = list("abcdef")
    scores = beams.scores.data
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    expect: dict = {}
    for actions, w in zip(beams.actions, weights):
        tree = bracketed(actions, tokens)
        expect[tree] = expect.get(tree, 0.0) + w
    parses = parse_distribution(beams, tokens)
    assert dict(parses).keys() == expect.keys()
    assert np.allclose([p for _tree, p in parses],
                       [expect[tree] for tree, _p in parses], rtol=0,
                       atol=1e-12)


def test_parse_distribution_rejects_incomplete_history():
    bad = BeamSet(roots=Tensor(np.zeros((1, 2))), scores=Tensor(np.zeros(1)),
                  actions=[(0,)])
    with pytest.raises(TreeError, match="incomplete"):
        parse_distribution(bad, ["a", "b", "c"])


def test_parse_distribution_merges_equal_trees_and_sorts():
    # beams 0 and 2 make one tree, ((a b) c), with 0.2 + 0.3
    beams = BeamSet(roots=Tensor(np.zeros((3, 2))),
                    scores=Tensor(np.log([0.2, 0.45, 0.3])),
                    actions=[(0, 0), (1, 0), (0, 0)])
    out = parse_distribution(beams, ["a", "b", "c"])
    assert [tree for tree, _p in out] == ["((a b) c)", "(a (b c))"]
    assert out[0][1] == pytest.approx(0.5 / 0.95)
    assert out[1][1] == pytest.approx(0.45 / 0.95)

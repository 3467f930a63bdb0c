import numpy as np
import pytest
from one_example import encode_bt_cell

from beamtree.cells import GrcParams, ScorerParams
from beamtree.parse_analysis import (BeamParse, ParseAnalysisError,
                                     collapse_duplicates, extract_parses,
                                     tree_agreement)
from beamtree.tensor import Tensor
from beamtree.topk import BeamSet
from beamtree.trees import replay_actions


def _run_bt(n, k, seed=0):
    rng = np.random.default_rng(seed)
    grc = GrcParams.init(4, rng, np.float64)
    scorer = ScorerParams.init(4, rng, np.float64)
    leaves = Tensor(rng.standard_normal((n, 4)))
    return encode_bt_cell(leaves, grc, scorer, k)


def test_probabilities_sum_to_one():
    _, beams = _run_bt(6, 4)
    tokens = list("abcdef")
    parses = extract_parses(beams, tokens)
    assert abs(sum(p.probability for p in parses) - 1.0) <= 1e-9
    collapsed = collapse_duplicates(parses)
    assert abs(sum(p.probability for p in collapsed) - 1.0) <= 1e-9


def test_replay_consistency_with_beam_actions():
    _, beams = _run_bt(5, 3)
    tokens = list("abcde")
    parses = extract_parses(beams, tokens)
    for parse, actions in zip(parses, beams.actions):
        assert parse.tree == replay_actions(5, actions).to_string(tokens)


def test_extract_rejects_incomplete_history():
    bad = BeamSet(roots=Tensor(np.zeros((1, 2))), scores=Tensor(np.zeros(1)),
                  actions=[(0,)])
    with pytest.raises(ParseAnalysisError):
        extract_parses(bad, ["a", "b", "c"])


def test_collapse_merges_and_sorts():
    parses = [BeamParse("(a b)", 0.2, (0,)),
              BeamParse("(b a)", 0.5, (0,)),
              BeamParse("(a b)", 0.3, (0,))]
    out = collapse_duplicates(parses)
    assert [p.tree for p in out] == ["(a b)", "(b a)"]
    assert out[0].probability == pytest.approx(0.5)
    assert out[1].probability == pytest.approx(0.5)


def test_agreement_identical_trees():
    t = replay_actions(4, [0, 1, 0])  # ((0 1) (2 3))
    assert tree_agreement(t, t) == 1.0


def test_agreement_left_vs_right_chain_n4():
    left = replay_actions(4, [0, 0, 0])
    right = replay_actions(4, [2, 1, 0])
    # spans {(0,1),(0,2),(0,3)} vs {(2,3),(1,3),(0,3)}: one of three shared
    assert tree_agreement(left, right) == pytest.approx(1.0 / 3.0)


def test_agreement_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        # two trees of 6 leaves, each merging random adjacent pairs
        a, b = (replay_actions(6, [int(rng.integers(0, 5 - j))
                                   for j in range(5)]) for _ in range(2))
        assert tree_agreement(a, b) == pytest.approx(tree_agreement(b, a))


def test_agreement_single_leaf():
    t = replay_actions(1, [])
    assert tree_agreement(t, t) == 1.0


def test_agreement_leaf_count_mismatch():
    with pytest.raises(ParseAnalysisError):
        tree_agreement(replay_actions(3, [0, 0]),
                       replay_actions(4, [0, 0, 0]))

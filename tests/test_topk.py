import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import merge_beams_one_by_one

from beamtree import tensor as T
from beamtree.gradcheck import check_grads
from beamtree.tensor import Tape, Tensor
from beamtree.topk import (collapse_tail, gumbel_noise, merge_beams,
                           onesoft_topk, plain_topk, truncate)

ROWS = 2  # nodes per beam


def _pool(scores, d_h=3, requires_grad=False, rng_seed=0):
    """Stacked nodes (ROWS per beam) and (m,) scores of a beam pool."""
    rng = np.random.default_rng(rng_seed)
    nodes = np.concatenate([rng.standard_normal((ROWS, d_h)) for _ in scores])
    return Tensor(nodes), Tensor(np.array(scores, dtype=np.float64),
                                 requires_grad=requires_grad)


def _keep(groups, nodes, scores):
    """The stacked beams that `groups` keep, gathered as `encode_bt_cell`
    does, with a longer last group collapsed into one beam by
    `collapse_tail`, which reads the group's rows node by node."""
    singles = [g[0] for g in groups if len(g) == 1]
    kept = (T.rows_gather(nodes, [j * ROWS + r for j in singles
                                  for r in range(ROWS)]),
            T.rows_gather(scores, singles))
    tail = groups[-1]
    if len(tail) == 1:
        return kept
    rows, score = collapse_tail(
        T.rows_gather(nodes, [j * ROWS + r for r in range(ROWS)
                              for j in tail]),
        T.rows_gather(scores, tail), [len(tail)], [ROWS])
    return T.concat([kept[0], rows]), T.concat([kept[1], score])


def _encode(nodes, scores):
    """Score-weighted expectation of the flattened stacked beams."""
    beams = scores.data.shape[0]
    return T.reshape(merge_beams(T.reshape(nodes, (beams, -1)), scores,
                                 [beams]), (-1,))


def test_plain_topk_basic():
    assert plain_topk([3.0, 1.0, 2.0], 2) == [0, 2]


def test_plain_topk_tie_lowest_index():
    assert plain_topk([1.0, 1.0, 0.0], 1) == [0]
    assert plain_topk([0.5, 0.5, 0.5], 2) == [0, 1]


def test_plain_topk_k_clamped():
    assert plain_topk([1.0, 2.0], 5) == [1, 0]


def test_plain_topk_rejects_bad_args():
    with pytest.raises(ValueError):
        plain_topk([], 1)
    with pytest.raises(ValueError):
        plain_topk([1.0], 0)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                max_size=12),
       st.integers(min_value=1, max_value=12))
def test_plain_topk_matches_sort_oracle(scores, k):
    got = plain_topk(scores, k)
    oracle = sorted(range(len(scores)),
                    key=lambda i: (-scores[i], i))[:min(k, len(scores))]
    assert got == oracle


def test_gumbel_selection_frequency():
    # Gumbel-max draws index i with probability softmax(scores)_i
    scores = np.log([0.7, 0.3])
    rng = np.random.default_rng(12345)
    trials = 100_000
    hits = sum(plain_topk(scores, 1, rng)[0] == 0
               for _ in range(trials))
    assert abs(hits / trials - 0.7) <= 0.01


def test_gumbel_noise_distribution():
    rng = np.random.default_rng(7)
    g = gumbel_noise(200_000, rng)
    # mean is the Euler-Mascheroni constant, variance pi^2/6
    assert g.mean() == pytest.approx(0.5772, abs=0.01)
    assert g.var() == pytest.approx(np.pi**2 / 6, abs=0.03)


def test_onesoft_collapsed_score_value():
    nodes, scores = _pool([2.0, 1.0, 0.0, -1.0])
    groups = onesoft_topk(scores.data, 3)
    assert groups == [[0], [1], [2, 3]]
    _, out = _keep(groups, nodes, scores)
    assert out.data.shape == (3,)
    # bottom beams have scores (0, -1); softmax weights (0.7311, 0.2689)
    assert out.data[2] == pytest.approx(-0.26894142, abs=1e-6)
    assert out.data[0] == 2.0
    assert out.data[1] == 1.0


def test_onesoft_collapsed_nodes_are_weighted_average():
    nodes, scores = _pool([2.0, 1.0, 0.0, -1.0])
    out, _ = _keep(onesoft_topk(scores.data, 3), nodes, scores)
    w = np.exp([0.0, -1.0])
    w /= w.sum()
    expect = w[0] * nodes.data[4:6] + w[1] * nodes.data[6:8]
    assert np.allclose(out.data[4:6], expect, atol=1e-9)
    assert np.array_equal(out.data[:4], nodes.data[:4])


def test_onesoft_group_is_best_first():
    # ties go to the lowest index, so the group carries beam 1's actions
    assert onesoft_topk([5.0, 0.0, 1.0, 0.0], 2) == [[0], [2, 1, 3]]


def test_onesoft_k_equals_m_identity():
    nodes, scores = _pool([3.0, 2.0, 1.0])
    groups = onesoft_topk(scores.data, 3)
    assert groups == [[0], [1], [2]]
    out_nodes, out_scores = _keep(groups, nodes, scores)
    assert out_scores.data.tolist() == [3.0, 2.0, 1.0]
    assert np.array_equal(out_nodes.data, nodes.data)


def test_onesoft_rejects_bad_k():
    with pytest.raises(ValueError):
        onesoft_topk([1.0, 0.0], 1)
    with pytest.raises(ValueError):
        onesoft_topk([1.0, 0.0], 3)


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3,
                max_size=8),
       st.integers(min_value=2, max_value=8))
@settings(deadline=None)
def test_onesoft_collapsed_score_bounded_by_bottom(scores, k):
    if k > len(scores):
        k = len(scores)
    nodes, pooled = _pool(scores)
    groups = onesoft_topk(pooled.data, k)
    assert len(groups) == k
    assert sorted(j for g in groups for j in g) == list(range(len(scores)))
    _, out = _keep(groups, nodes, pooled)
    kept = sorted(range(len(scores)),
                  key=lambda i: (-scores[i], i))[:k - 1]
    bottom = [scores[i] for i in range(len(scores)) if i not in kept]
    collapsed = out.data[-1]
    assert min(bottom) - 1e-9 <= collapsed <= max(bottom) + 1e-9


def test_truncate_no_op_when_k_large():
    scores = np.array([1.0, 0.0])
    assert truncate(scores, 2) == [[0], [1]]
    assert truncate(scores, 5, onesoft=True) == [[0], [1]]


def test_truncate_plain_is_hard_top_k():
    scores = np.array([0.0, 3.0, 1.0])
    assert truncate(scores, 2) == [[1], [2]]


def test_truncate_onesoft_groups_the_rest():
    scores = np.array([0.0, 3.0, 1.0])
    assert truncate(scores, 2, onesoft=True) == [[1], [2, 0]]


def test_truncate_gumbel_only_when_given_an_rng():
    # without an rng no noise is drawn and hard top-k never keeps the -5;
    # with one, Gumbel top-k keeps it with probability about 1/(1 + e^5)
    scores = np.array([5.0, 0.0, -5.0])
    assert all(truncate(scores, 2) == [[0], [1]] for _ in range(100))
    rng = np.random.default_rng(3)
    kept = [truncate(scores, 2, rng=rng) for _ in range(1000)]
    assert any([2] in groups for groups in kept)


def test_merge_beams_uniform_scores_average():
    roots = Tensor(np.array([[2.0, 0.0], [0.0, 4.0]]))
    out = merge_beams(roots, Tensor(np.array([1.0, 1.0])), [2])
    assert np.allclose(out.data, [[1.0, 2.0]], atol=1e-12)


def test_merge_beams_single():
    a = np.array([1.0, 2.0])
    out = merge_beams(Tensor(a[None, :]), Tensor(np.array([0.0])), [1])
    assert np.array_equal(out.data, a[None, :])


def test_merge_beams_length_mismatch():
    with pytest.raises(ValueError):
        merge_beams(Tensor(np.zeros((0, 2))), Tensor(np.zeros(0)), [])
    with pytest.raises(ValueError):
        merge_beams(Tensor(np.zeros((2, 2))), Tensor(np.zeros(3)), [3])


def test_merge_beams_grads_and_per_beam_reference():
    rng = np.random.default_rng(5)
    roots = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    scores = Tensor(rng.standard_normal(4), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3)))
    # two examples at once: one beam, then three
    errors = check_grads(
        lambda: T.tsum(T.mul(merge_beams(roots, scores, [1, 3]), w)),
        {"roots": roots, "scores": scores})
    assert max(errors.values()) <= 1e-7, errors
    merged = merge_beams(roots, scores, [1, 3]).data
    assert np.array_equal(merged[0], roots.data[0])
    expect = merge_beams_one_by_one(
        [Tensor(r) for r in roots.data[1:]],
        [Tensor(scores.data[b:b + 1]) for b in range(1, 4)])
    assert np.max(np.abs(merged[1] - expect.data)) <= 1e-12


def test_pruned_beam_score_gradient_zero_under_hard_topk():
    nodes, scores = _pool([2.0, 1.0, 0.0, -1.0], requires_grad=True)
    with Tape() as tape:
        groups = truncate(scores.data, 2)
        tape.backward(T.tsum(_encode(*_keep(groups, nodes, scores))))
    assert np.all(scores.grad[2:] == 0.0)
    assert np.any(scores.grad[0] != 0.0)


def test_pruned_beam_score_gradient_nonzero_under_onesoft():
    nodes, scores = _pool([2.0, 1.0, 0.0, -1.0], requires_grad=True)
    with Tape() as tape:
        groups = truncate(scores.data, 2, onesoft=True)
        tape.backward(T.tsum(_encode(*_keep(groups, nodes, scores))))
    assert np.all(scores.grad != 0.0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from one_example import encode_bt_cell
from oracles import concat, merge_beams_one_by_one, stacked_bt_cell

from beamtree import tensor as T
from beamtree.cells import GrcParams, ScorerParams
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
    return concat([kept[0], rows]), concat([kept[1], score])


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


def test_one_gumbel_draw_is_the_per_beam_draws_in_order():
    # one (beams, n) or beams * n draw is one rng.random call, filled row
    # after row: the same numbers as one call per beam, in beam order, and
    # it leaves the rng where those calls do
    one, per_beam = np.random.default_rng(11), np.random.default_rng(11)
    batched = gumbel_noise((3, 5), one)
    assert np.array_equal(batched, np.stack([gumbel_noise(5, per_beam)
                                             for _ in range(3)]))
    assert np.array_equal(gumbel_noise(15, np.random.default_rng(11)),
                          batched.reshape(-1))
    assert np.array_equal(gumbel_noise(4, one), gumbel_noise(4, per_beam))


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_plain_topk_of_a_matrix_is_plain_topk_of_each_row(seed):
    scores = np.array([[1.0, 3.0, 3.0, 0.0],
                       [2.0, 2.0, 2.0, 2.0],
                       [-1.0, 5.0, 0.5, 5.0]])
    for k in (1, 2, 4, 6):
        rows = None if seed is None else np.random.default_rng(seed)
        got = plain_topk(scores, k,
                         None if seed is None else np.random.default_rng(seed))
        assert got.tolist() == [plain_topk(row, k, rows) for row in scores]
    # ties go to the lowest index
    assert plain_topk(scores, 2).tolist() == [[1, 2], [0, 1], [1, 3]]


@given(st.lists(st.lists(st.floats(min_value=-5, max_value=5), min_size=4,
                         max_size=4), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31))
def test_plain_topk_of_a_matrix_draws_as_its_rows_would(rows, k, seed):
    scores = np.array(rows)
    per_row = np.random.default_rng(seed)
    got = plain_topk(scores, k, np.random.default_rng(seed))
    assert got.tolist() == [plain_topk(row, k, per_row) for row in scores]


@pytest.mark.parametrize("seed", [None, 5])
def test_float32_scores_pick_as_their_float64_copy(seed):
    # without noise a float32 score orders, ties included, as its exact
    # float64 copy; with an rng both take the same draws in float64
    scores = np.random.default_rng(17).standard_normal((6, 9)).astype(
        np.float32)
    scores[:, 3] = scores[:, 1]  # an exact tie in every row
    scores[2] = scores[2, 0]  # a row of one value
    scores[4, 5] = np.nextafter(scores[4, 6], np.float32(np.inf))  # 1 ulp
    wide = scores.astype(np.float64)

    def rng():
        return None if seed is None else np.random.default_rng(seed)

    for k in (1, 2, 5, 9):
        assert plain_topk(scores, k, rng()).tolist() == \
            plain_topk(wide, k, rng()).tolist()
        for row, row64 in zip(scores, wide):
            assert plain_topk(row, k, rng()) == plain_topk(row64, k, rng())
            assert _groups(truncate(row, k, rng=rng())) == \
                _groups(truncate(row64, k, rng=rng()))


@pytest.mark.parametrize("k", [2, 3])
def test_search_draws_each_step_branch_noise_then_pool_noise(k):
    # the batched search draws an example's branching noise for all its
    # beams in one call, then its pool's truncation noise: the draws of the
    # reference, one call per beam and then one for the pool, in that order
    rng = np.random.default_rng(21)
    cell = GrcParams.init(4, rng, np.float64)
    scorer = ScorerParams.init(4, rng, np.float64)
    leaves = Tensor(rng.standard_normal((9, 4)))
    for seed in range(6):
        _, got = encode_bt_cell(leaves, cell, scorer, k,
                                rng=np.random.default_rng(seed))
        _, expect = stacked_bt_cell(leaves, cell, scorer, k,
                                    rng=np.random.default_rng(seed))
        assert got.actions == expect.actions


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


def _groups(groups) -> list:
    """`truncate`'s groups as lists of ints."""
    return [[int(i) for i in g] for g in groups]


def test_truncate_no_op_when_k_large():
    scores = np.array([1.0, 0.0])
    assert _groups(truncate(scores, 2)) == [[0], [1]]
    assert _groups(truncate(scores, 5, onesoft=True)) == [[0], [1]]


def test_truncate_plain_is_hard_top_k():
    scores = np.array([0.0, 3.0, 1.0])
    assert _groups(truncate(scores, 2)) == [[1], [2]]


def test_truncate_onesoft_groups_the_rest():
    scores = np.array([0.0, 3.0, 1.0])
    assert _groups(truncate(scores, 2, onesoft=True)) == [[1], [2, 0]]


def test_truncate_gumbel_only_when_given_an_rng():
    # without an rng no noise is drawn and hard top-k never keeps the -5;
    # with one, Gumbel top-k keeps it with probability about 1/(1 + e^5)
    scores = np.array([5.0, 0.0, -5.0])
    assert all(_groups(truncate(scores, 2)) == [[0], [1]]
               for _ in range(100))
    rng = np.random.default_rng(3)
    kept = [_groups(truncate(scores, 2, rng=rng)) for _ in range(1000)]
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

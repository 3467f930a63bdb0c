import numpy as np
import pytest
from oracles import composed_grc

from beamtree import tensor as T
from beamtree.cells import (GrcParams, LeafParams, ScorerParams, grc_compose,
                            leaf_transform_seq, score)
from beamtree.gradcheck import check_grads, relative_error
from beamtree.tensor import NonFiniteError, Tape, Tensor, TensorError


def _zero_grc(d_h):
    p = GrcParams.init(d_h, np.random.default_rng(0), np.float64)
    p.W1.data[...] = 0.0
    p.W2.data[...] = 0.0
    return p


def _layer_norm_np(x):
    mu = x.mean()
    var = x.var()
    return (x - mu) / np.sqrt(var + 1e-5)


def test_grc_zero_params_halves_and_normalizes():
    # all gates sit at sigmoid(0)=0.5 and the candidate is zero, so the
    # pre-norm mix is (left+right)/2
    d_h = 4
    p = _zero_grc(d_h)
    rng = np.random.default_rng(3)
    l = rng.standard_normal((1, d_h))
    r = rng.standard_normal((1, d_h))
    out = grc_compose(Tensor(np.hstack([l, r])), p)
    assert np.allclose(out.data, _layer_norm_np(0.5 * (l + r)), atol=1e-9)


def test_grc_zero_params_symmetric():
    p = _zero_grc(4)
    rng = np.random.default_rng(4)
    l, r = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
    assert np.allclose(grc_compose(Tensor(np.hstack([l, r])), p).data,
                       grc_compose(Tensor(np.hstack([r, l])), p).data)


@pytest.mark.parametrize("d_h", [2, 8, 64])
def test_grc_shape_contract(d_h):
    p = GrcParams.init(d_h, np.random.default_rng(d_h), np.float64)
    rng = np.random.default_rng(1)
    out = grc_compose(Tensor(rng.standard_normal((1, 2 * d_h))), p)
    assert out.data.shape == (1, d_h)
    assert np.isfinite(out.data).all()


def test_grc_rows_match_single_rows():
    d_h = 5
    p = GrcParams.init(d_h, np.random.default_rng(9), np.float64)
    rng = np.random.default_rng(10)
    children = rng.standard_normal((3, 2 * d_h))
    rows = grc_compose(Tensor(children), p)
    for i in range(3):
        one = grc_compose(Tensor(children[i:i + 1]), p)
        assert np.allclose(rows.data[i], one.data[0], atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda v, rng: grc_compose(v, GrcParams.init(2, rng)),
    lambda v, rng: score(v, ScorerParams.init(4, rng)),
], ids=["grc", "score"])
def test_a_1d_state_is_rejected(call):
    # node states are (rows, width) matrices; a (d_h,) vector is an error
    rng = np.random.default_rng(31)
    with pytest.raises(TensorError):
        call(Tensor(rng.standard_normal(4)), rng)


def test_grc_refuses_children_of_another_width():
    # each row is [left | right], 2 d_h wide
    p = GrcParams.init(4, np.random.default_rng(32), np.float64)
    for width in (4, 9):
        with pytest.raises(TensorError):
            grc_compose(Tensor(np.ones((2, width))), p)


def test_grc_gradients():
    d_h = 3
    p = GrcParams.init(d_h, np.random.default_rng(11), np.float64)
    rng = np.random.default_rng(12)
    lr = Tensor(rng.standard_normal((2, 2 * d_h)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, d_h)))
    errors = check_grads(
        lambda: T.tsum(T.mul(grc_compose(lr, p), w)),
        {**p.named(), "lr": lr})
    assert max(errors.values()) <= 1e-4


def _grads(compose, children, w, p):
    params = {**p.named(), "children": children}
    for t in params.values():
        t.zero_grad()
    with Tape() as tape:
        out = compose(children, p)
        tape.backward(T.tsum(T.mul(out, w)))
    return out.data, {k: t.grad.copy() for k, t in params.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 8), (2, 8), (6, 8), (100, 8)],
                         ids=["1x8", "2x8", "6x8", "100x8"])
def test_grc_fused_matches_composed_primitives(shape, dtype):
    # the one-primitive cell against the same cell built from tensor ops:
    # the same forward bits, and the same gradients for all 7 inputs
    rows, d_h = shape
    p = GrcParams.init(d_h, np.random.default_rng(27), dtype)
    rng = np.random.default_rng(28)
    for b in (p.b1, p.b2, p.gamma, p.beta):
        b.data[...] = rng.standard_normal(b.data.shape)
    children = Tensor(2.0 * rng.standard_normal((rows, 2 * d_h)),
                      requires_grad=True, dtype=dtype)
    w = Tensor(rng.standard_normal(shape), dtype=dtype)
    fused, fused_grads = _grads(grc_compose, children, w, p)
    ref, ref_grads = _grads(composed_grc, children, w, p)
    assert fused.dtype == ref.dtype == dtype and fused.shape == shape
    assert np.array_equal(fused, ref)
    if dtype == np.float64:
        for name, g in ref_grads.items():
            assert relative_error(fused_grads[name], g) <= 1e-12, name


def test_grc_records_one_primitive():
    p = GrcParams.init(4, np.random.default_rng(29), np.float64)
    children = Tensor(np.ones((3, 8)), requires_grad=True)
    with Tape() as tape:
        grc_compose(children, p)
    assert len(tape.records) == 1
    assert tape.records[0].inputs == (children, p.W1, p.b1, p.W2, p.b2,
                                      p.gamma, p.beta)


def test_grc_nan_input_raises():
    p = GrcParams.init(4, np.random.default_rng(30), np.float64)
    children = np.ones((2, 8))
    children[1, 2] = np.nan
    with pytest.raises(NonFiniteError):
        grc_compose(Tensor(children), p)


def test_score_shapes():
    p = ScorerParams.init(6, np.random.default_rng(16), np.float64)
    rng = np.random.default_rng(17)
    s_rows = score(Tensor(rng.standard_normal((4, 6))), p)
    assert s_rows.data.shape == (4,)


def test_score_linear_in_input():
    p = ScorerParams.init(5, np.random.default_rng(18), np.float64)
    rng = np.random.default_rng(19)
    a, b = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
    sa = score(Tensor(a), p).data[0]
    sb = score(Tensor(b), p).data[0]
    sab = score(Tensor(a + b), p).data[0]
    assert sab == pytest.approx(sa + sb, abs=1e-10)


@pytest.mark.parametrize("rows", [1, 5])
def test_score_is_one_primitive_with_the_bits_of_matmul_and_reshape(rows):
    p = ScorerParams.init(6, np.random.default_rng(33), np.float32)
    rng = np.random.default_rng(34)
    v = Tensor(rng.standard_normal((rows, 6)), requires_grad=True,
               dtype=np.float32)
    w = Tensor(rng.standard_normal(rows), dtype=np.float32)

    def run(build):
        v.zero_grad()
        p.W_v.zero_grad()
        with Tape() as tape:
            out = build()
            records = len(tape.records)
            tape.backward(T.tsum(T.mul(out, w)))
        return records, out.data, v.grad.copy(), p.W_v.grad.copy()

    one = run(lambda: score(v, p))
    ref = run(lambda: T.reshape(T.matmul(v, p.W_v), (rows,)))
    assert (one[0], ref[0]) == (1, 2)
    for got, expect in zip(one[1:], ref[1:]):
        assert got.dtype == expect.dtype == np.float32
        assert np.array_equal(got, expect)


def test_leaf_transform_deterministic_in_eval():
    p = LeafParams.init(15, 4, 6, np.random.default_rng(20), np.float64)
    a = leaf_transform_seq([[7]], p).data
    b = leaf_transform_seq([[7]], p).data
    assert np.array_equal(a, b)


def test_leaf_transform_seq_matches_single():
    p = LeafParams.init(15, 4, 6, np.random.default_rng(21), np.float64)
    rows = leaf_transform_seq([[2, 9], [2]], p)
    assert rows.data.shape == (3, 6)
    assert np.allclose(rows.data[1], leaf_transform_seq([[9]], p).data[0],
                       atol=1e-12)
    assert np.allclose(rows.data[0], rows.data[2], atol=1e-12)


def test_leaf_embedding_gradient_sparsity():
    # only gathered embedding rows receive gradient
    p = LeafParams.init(10, 4, 6, np.random.default_rng(22), np.float64)
    w = Tensor(np.random.default_rng(23).standard_normal((2, 6)))
    with Tape() as tape:
        out = leaf_transform_seq([[3, 7]], p)
        tape.backward(T.tsum(T.mul(out, w)))
    g = p.embedding.grad
    touched = {3, 7}
    for row in range(10):
        if row in touched:
            assert np.any(g[row] != 0.0)
        else:
            assert np.all(g[row] == 0.0)


def test_leaf_dropout_only_with_an_rng():
    p = LeafParams.init(10, 4, 6, np.random.default_rng(24), np.float64)
    eval_out = leaf_transform_seq([[1, 2]], p, dropout_rate=0.5)
    plain = leaf_transform_seq([[1, 2]], p)
    assert np.array_equal(eval_out.data, plain.data)
    train_out = leaf_transform_seq([[1, 2]], p, dropout_rate=0.5,
                                   rngs=[np.random.default_rng(0)])
    assert not np.array_equal(train_out.data, plain.data)


def test_leaf_dropout_draws_each_sequence_from_its_own_rng():
    # a sequence's rows in a batch are its rows alone, whatever comes
    # before it: its mask comes from its own rng
    p = LeafParams.init(10, 4, 6, np.random.default_rng(27), np.float64)
    alone = leaf_transform_seq([[4, 1, 6]], p, dropout_rate=0.5,
                               rngs=[np.random.default_rng(9)])
    batch = leaf_transform_seq([[2, 3], [4, 1, 6]], p, dropout_rate=0.5,
                               rngs=[np.random.default_rng(8),
                                     np.random.default_rng(9)])
    assert np.allclose(batch.data[2:], alone.data, rtol=0, atol=1e-12)


def test_leaf_transform_gradients():
    p = LeafParams.init(8, 3, 4, np.random.default_rng(25), np.float64)
    w = Tensor(np.random.default_rng(26).standard_normal((2, 4)))
    errors = check_grads(
        lambda: T.tsum(T.mul(leaf_transform_seq([[0], [5]], p), w)), p.named())
    assert max(errors.values()) <= 1e-4

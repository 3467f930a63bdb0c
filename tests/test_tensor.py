import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, expit
from scipy.stats import norm

from oracles import concat, slice_cols

from beamtree import tensor as T
from beamtree.gradcheck import check_grads
from beamtree.tensor import (AdamState, NonFiniteError, Tape, Tensor,
                             TensorError, adam_step)


def test_matmul_hand_arithmetic():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 3)))
    out = T.matmul(a, Tensor(np.eye(3)))
    assert np.allclose(out.data, a.data)


def test_matmul_dim_mismatch():
    with pytest.raises(TensorError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("a_shape", [(3, 4), (1, 4), (4,)])
def test_matmul_gradient_finite_differences(a_shape):
    # (1, 4) and (4,) take the single-row weight-gradient path
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    errors = check_grads(lambda: T.tsum(T.matmul(a, b)), {"a": a, "b": b})
    assert max(errors.values()) <= 1e-6


def test_sigmoid_zero():
    assert T.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)


def test_gelu_zero():
    assert T.gelu(Tensor([0.0])).data[0] == 0.0


def test_gelu_one_matches_normal_cdf():
    expected = 1.0 * norm.cdf(1.0)
    assert T.gelu(Tensor([1.0])).data[0] == pytest.approx(expected, abs=1e-5)
    assert T.gelu(Tensor([1.0])).data[0] == pytest.approx(0.841345, abs=1e-5)


def _phi_in_blocks(x, size):
    # gelu_data's Phi over x, called on blocks of `size` entries
    return np.concatenate([T.gelu_data(x[i:i + size])[1]
                           for i in range(0, x.size, size)])


# one, six and 120 rows of a d_h = 64 cell's (rows, 256) GELU block
PHI_BLOCKS = [256, 1536, 30720]


@pytest.mark.parametrize("size", PHI_BLOCKS)
def test_gelu_kernels_keep_float32(size):
    x = np.linspace(-3.0, 3.0, size, dtype=np.float32)
    out, phi = T.gelu_data(x)
    assert out.dtype == phi.dtype == T.gelu_slope(x, phi).dtype == np.float32


@pytest.mark.parametrize("size", PHI_BLOCKS)
def test_gelu_phi_float32_accuracy_and_symmetry(size):
    x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
    phi = _phi_in_blocks(x, size)
    exact = 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
    assert np.max(np.abs(phi - exact)) <= 5e-7
    # the grid is symmetric: phi[::-1] is Phi(-x)
    assert np.max(np.abs(phi + phi[::-1] - 1.0)) <= np.finfo(np.float32).eps


@pytest.mark.parametrize("size", PHI_BLOCKS)
def test_gelu_float32_saturates_and_propagates_nan(size):
    x = np.zeros(size, np.float32)
    x[:4] = [-1e4, 1e4, np.nan, -np.inf]
    with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
        out, phi = T.gelu_data(x)
    assert list(phi[:2]) == [0.0, 1.0] and list(out[:2]) == [0.0, 1e4]
    assert np.isnan(phi[2]) and np.isnan(out[2]) and not np.isfinite(out[3])
    with pytest.raises(NonFiniteError), np.errstate(invalid="ignore"):
        T.gelu(Tensor(x))


def test_gelu_float32_bits_do_not_depend_on_block_size():
    # each row of a (16, 256) block gives the bits it gives alone
    x = 3.0 * np.random.default_rng(5).standard_normal((16, 256)).astype(
        np.float32)
    out, phi = T.gelu_data(x)
    for i, row in enumerate(x):
        row_out, row_phi = T.gelu_data(row)
        assert row_out.tobytes() == out[i].tobytes()
        assert row_phi.tobytes() == phi[i].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_within_two_ulp_of_one_without_warnings(dtype):
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001),
                        np.linspace(-1e4, 1e4, 20_001)]).astype(dtype)
    with np.errstate(all="raise"):
        s = T.sigmoid_data(x)
    assert s.dtype == dtype
    err = np.abs(s - expit(x.astype(np.float64)))
    assert np.max(err) <= 2 * np.finfo(dtype).eps


def test_segment_softmax_no_overflow():
    out = T.segment_softmax(Tensor([1000.0, 0.0, -1000.0, 0.0]), [2, 2])
    assert np.allclose(out.data, [1.0, 0.0, 0.0, 1.0], rtol=0.0, atol=1e-9)


def test_log_softmax_against_naive_formula():
    x = np.array([2.0, 1.0, 0.0])
    naive = np.log(np.exp(x) / np.exp(x).sum())
    out = T.log_softmax(Tensor(x))
    assert np.allclose(out.data, naive, atol=1e-12)
    assert np.allclose(out.data, [-0.40761, -1.40761, -2.40761], atol=1e-5)


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=7))
def test_segment_softmax_simplex_property(xs, cut):
    cut = cut % len(xs)
    counts = [cut, len(xs) - cut] if cut else [len(xs)]
    out = T.segment_softmax(Tensor(np.array(xs, dtype=np.float64)), counts)
    assert np.all(out.data >= 0)
    assert np.allclose(np.add.reduceat(out.data, [0, cut][:len(counts)]),
                       1.0, rtol=0.0, atol=1e-9)


def test_layer_norm_constant_input():
    out = T.layer_norm(Tensor(np.full(5, 3.7)), Tensor(np.ones(5)),
                       Tensor(np.zeros(5)))
    assert np.allclose(out.data, 0.0, atol=1e-3)


def test_layer_norm_fixed_point():
    out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)),
                       Tensor(np.zeros(2)))
    # 1/sqrt(1 + LAYER_NORM_EPS) is within allclose's default tolerance
    assert np.allclose(out.data, [1.0, -1.0])


def test_layer_norm_gradient():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal(6), requires_grad=True)
    gamma = Tensor(rng.standard_normal(6), requires_grad=True)
    beta = Tensor(rng.standard_normal(6), requires_grad=True)
    w = Tensor(rng.standard_normal(6))
    errors = check_grads(
        lambda: T.tsum(T.mul(T.layer_norm(x, gamma, beta), w)),
        {"x": x, "gamma": gamma, "beta": beta})
    assert max(errors.values()) <= 1e-4


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(T.mul(x, x))
        tape.backward(loss)
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_unreachable_leaf_zero_grad():
    x = Tensor([3.0], requires_grad=True)
    p = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(T.mul(x, x))
        tape.backward(loss)
    assert np.all(p.grad == 0.0)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(TensorError):
        with Tape() as tape:
            y = T.mul(x, x)
            tape.backward(y)


def test_double_backward_same_tape_errors():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(T.mul(x, x))
        tape.backward(loss)
        with pytest.raises(TensorError):
            tape.backward(loss)


def _keeping_backward(records, loss):
    """The tape's backward as it was before it freed anything: every record
    replayed in reverse, none dropped, every gradient kept."""
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(records):
        if rec.out.grad is None:
            continue
        for inp, gi in zip(rec.inputs, rec.vjp(rec.out.grad)):
            if gi is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = gi.astype(inp.data.dtype, copy=True)
            else:
                inp.grad += gi.astype(inp.data.dtype, copy=False)


def test_backward_frees_records_and_intermediate_grads():
    from beamtree.cells import GrcParams, grc_compose
    rng = np.random.default_rng(4)
    cell = GrcParams.init(3, rng, np.float32)
    leaves = Tensor(rng.standard_normal((4, 3)).astype(np.float32),
                    requires_grad=True)
    w = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)

    def forward():
        table = T.RowTable(leaves)
        table.append(grc_compose(table.gather([[0, 1], [2, 3]]), cell))
        mid = table.gather([4, 5, 0])
        weights = T.segment_softmax(T.reshape(slice_cols(mid, 0, 1), (3,)),
                                    [2, 1])
        merged = T.segment_sum(weights, mid, [2, 1])
        loss = T.tsum(T.mul(T.reshape(slice_cols(merged, 0, 1), (2,)), w))
        return mid, loss

    with Tape() as tape:
        mid, loss = forward()
        records = list(tape.records)
        tape.backward(loss)
    leaf_grads = [p.grad.copy() for p in (leaves, w, *cell.named().values())]
    assert tape.records == []
    assert mid.grad is None and loss.grad is None
    assert all(rec.out.grad is None for rec in records)
    with pytest.raises(TensorError):
        tape.backward(loss)
    # the leaves' gradients are the ones the keeping backward of the same
    # forward, recorded again, gives, bit for bit
    for p in (leaves, w, *cell.named().values()):
        p.zero_grad()
    with Tape() as tape:
        _mid, loss = forward()
    _keeping_backward(tape.records, loss)
    for got, p in zip(leaf_grads, (leaves, w, *cell.named().values())):
        assert np.array_equal(got, p.grad)
        assert np.any(got != 0.0)


def test_row_table_gathers_across_chunks_without_concatenating():
    rng = np.random.default_rng(6)
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    table = T.RowTable(a)
    assert table.append(b) == 3
    ids = [4, 0, 4, 2]
    assert np.array_equal(table.gather(ids).data,
                          np.concatenate([a.data, b.data])[ids])
    w = Tensor(rng.standard_normal((4, 2)))

    def loss():
        # a table reads its chunks' values when they are appended
        fresh = T.RowTable(a)
        fresh.append(b)
        return T.tsum(T.mul(fresh.gather(ids), w))

    errors = check_grads(loss, {"a": a, "b": b})
    assert max(errors.values()) <= 1e-8
    for _ in range(40):  # past the buffer's first size
        table.append(b)
    assert np.array_equal(table.gather([3 + 2 * 40 + 1]).data, b.data[1:])


def test_row_table_parameter_chunk_gradient_adds_to_what_it_held():
    # every chunk that needs a gradient, a parameter (no record produced
    # it) as well as a chunk a record produced, takes its slice of the
    # table's gradient buffer: a parameter's gradient is then what it held
    # before plus its rows' gradient, added in gather order
    rng = np.random.default_rng(9)
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
    w = rng.standard_normal((6, 2))
    held = rng.standard_normal((3, 2))
    a.grad += held
    with Tape() as tape:
        table = T.RowTable(a)
        table.append(T.mul(x, x))
        table.append(b)
        tape.backward(T.tsum(T.mul(table.gather([0, 4, 0, 3, 2, 5]),
                                   Tensor(w))))
    assert np.array_equal(a.grad, [held[0] + w[0] + w[2], held[1],
                                   held[2] + w[4]])
    assert np.array_equal(x.grad, 2.0 * x.data * w[[3, 1]])
    assert np.array_equal(b.grad, w[5:])


def test_row_table_gather_refuses_rows_past_its_size():
    # the buffer has room for 64 rows; only the 3 written are the table's
    table = T.RowTable(Tensor(np.full((3, 2), 7.0)))
    for ids in ([5], [3], [0, 3], [63]):
        with pytest.raises(IndexError):
            table.gather(ids)
        with pytest.raises(IndexError):
            table.read(ids)
    assert np.array_equal(table.gather([2, 0]).data, np.full((2, 2), 7.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (7, 5)])
def test_scatter_rows_matches_row_wise_add_at(shape, dtype):
    rng = np.random.default_rng(13)
    ids = np.array([3, 0, 3, 6, 3, 1, 0, 3], dtype=np.intp)
    g = rng.standard_normal((len(ids),) + shape[1:]).astype(dtype)
    start = rng.standard_normal(shape).astype(dtype)
    expect = start.copy()
    np.add.at(expect, ids, g)
    got = start.copy()
    T._scatter_rows(got, ids, g)
    assert got.dtype == dtype
    assert np.array_equal(got, expect)


def test_row_table_chunk_read_outside_a_gather_gets_both_gradients():
    # as the picked beam scores are read in OneSoft's collapse: a chunk
    # also read by no gather, before it is appended and after the table's
    # gathers, gets those reads' gradients as well as its rows'
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    w1, w2, w3 = (rng.standard_normal(n) for n in (3, 2, 1))

    def loss():
        s = T.mul(x, x)
        early = T.rows_gather(s, [1, 3])
        table = T.RowTable(Tensor(np.zeros(2)))
        table.append(s)
        mid = table.gather([2, 5, 2])
        late = T.rows_gather(s, [0])
        return T.add(T.add(T.tsum(T.mul(mid, Tensor(w1))),
                           T.tsum(T.mul(early, Tensor(w2)))),
                     T.tsum(T.mul(late, Tensor(w3))))

    errors = check_grads(loss, {"x": x})
    assert max(errors.values()) <= 1e-8
    ds = np.array([w1[0] + w1[2] + w3[0], w2[0], 0.0, w1[1] + w2[1]])
    assert np.allclose(x.grad, 2.0 * x.data * ds, rtol=1e-14, atol=0.0)


def test_row_table_gradient_over_many_chunks_matches_finite_differences():
    # leaves first and in the middle, chunks made from gathers of the table,
    # a whole chunk read in order, repeated rows
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 2)))

    def loss():
        table = T.RowTable(a)
        table.append(T.mul(x, x))
        table.append(b)
        first = table.gather([3, 0, 7, 6, 3])
        table.append(T.mul(first, first))
        whole = table.gather(np.arange(9, 14))
        out = table.gather([13, 1, 8, 4, 9, 3])
        return T.add(T.tsum(T.mul(out, w)), T.tsum(T.mul(whole, whole)))

    errors = check_grads(loss, {"a": a, "x": x, "b": b})
    assert max(errors.values()) <= 1e-8


def test_segment_softmax_and_sum_per_run():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal(6), requires_grad=True)
    rows = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    counts = [1, 3, 2]

    def log_softmax(a):  # the data form as a tape primitive
        out, grad = T.segment_log_softmax_data(a.data, counts)
        return T._make(out, (a,), lambda g: (grad(g),))

    soft = T.segment_softmax(x, counts).data
    logs = log_softmax(x).data
    for lo, hi in ((0, 1), (1, 4), (4, 6)):
        e = np.exp(x.data[lo:hi] - x.data[lo:hi].max())
        assert np.allclose(soft[lo:hi], e / e.sum(), rtol=1e-14)
        assert np.allclose(logs[lo:hi], np.log(e / e.sum()), rtol=1e-14)
    out = T.segment_sum(x, rows, counts).data
    assert np.allclose(out[1], x.data[1:4] @ rows.data[1:4], rtol=1e-14)
    w = Tensor(rng.standard_normal((3, 3)))
    for softmax in (lambda a: T.segment_softmax(a, counts), log_softmax):
        errors = check_grads(lambda: T.tsum(T.mul(T.segment_sum(
            softmax(x), rows, counts), w)), {"x": x, "rows": rows})
        assert max(errors.values()) <= 1e-7, errors
    with pytest.raises(TensorError):
        T.segment_softmax(x, [3, 2])
    with pytest.raises(TensorError):
        T.segment_sum(x, rows, [6, 0])


def test_dropout_draws_each_run_of_rows_from_its_rng():
    x = Tensor(np.ones((3, 4)))
    out = T.dropout(x, 0.5, [np.random.default_rng(1),
                             np.random.default_rng(2)], [1, 2])
    keep = np.concatenate([np.random.default_rng(1).random((1, 4)),
                           np.random.default_rng(2).random((2, 4))]) >= 0.5
    assert np.array_equal(out.data, keep * 2.0)


def test_nan_policy_aborts_forward():
    big = Tensor([1e300])
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        T.mul(big, Tensor([1e30]))


def test_backward_same_input_twice():
    # add's vjp hands one array to both inputs; both uses must count
    w = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        s = T.sigmoid(w)
        tape.backward(T.tsum(T.add(s, s)))
    assert np.array_equal(w.grad, 2 * s.data * (1 - s.data))


def test_backward_first_write_does_not_alias():
    # the outer add's vjp hands one array to the inner sum and to y; if y's
    # gradient aliased it, y's second gradient would leak into x's
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    wa = Tensor([1.0, 1.0], requires_grad=True)
    wb = Tensor([1.0, 1.0], requires_grad=True)
    with Tape() as tape:
        x, y = T.mul(wa, a), T.mul(wb, b)
        tape.backward(T.tsum(T.add(T.add(x, y), y)))
    assert np.array_equal(wa.grad, a.data)
    assert np.array_equal(wb.grad, 2.0 * b.data)


def test_backward_keeps_apart_two_gradients_handed_one_array():
    # a vjp hands one array it made to two inputs, both first written
    # there; p is read by an earlier record too, whose gradient is added
    # into p's later. q's gradient must not see it.
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        p, q = T.mul(x, x), T.mul(y, y)
        later = T.tsum(T.mul(p, Tensor([5.0, 7.0])))

        def vjp(g):
            twice = 2.0 * g
            return twice, twice

        z = T._make(p.data + q.data, (p, q), vjp)
        tape.backward(T.add(T.tsum(z), later))
    assert np.array_equal(x.grad, 2.0 * x.data * [7.0, 9.0])
    assert np.array_equal(y.grad, 2.0 * y.data * [2.0, 2.0])


def test_backward_copies_every_first_gradient_write():
    # a copy, in the input's dtype, of an array the vjp made for that input
    # alone, of a view, of the record's own output gradient and of another
    # dtype
    made = {}

    def record(inp, make):
        def vjp(g):
            made[inp] = make(g)
            return (made[inp],)
        return T._make(inp.data.copy(), (inp,), vjp)

    inputs = [Tensor(np.ones(3), requires_grad=True) for _ in range(4)]
    for t in inputs:
        t.grad = None  # first written by the backward
    own, view, same, cast = inputs
    with Tape() as tape:
        outs = [record(own, lambda g: 3.0 * g),
                record(view, lambda g: (3.0 * g)[::1]),
                record(same, lambda g: g),
                record(cast, lambda g: (3.0 * g).astype(np.float32))]
        tape.backward(T.tsum(T.add(T.add(outs[0], outs[1]),
                                   T.add(outs[2], outs[3]))))
    for t in inputs:
        assert t.grad is not made[t] and t.grad.base is None
        assert t.grad.dtype == np.float64
    assert np.array_equal(own.grad, np.full(3, 3.0))
    assert np.array_equal(view.grad, np.full(3, 3.0))
    assert np.array_equal(same.grad, np.ones(3))
    assert np.array_equal(cast.grad, np.full(3, 3.0))


def test_backward_never_writes_an_array_a_vjp_still_holds():
    # a vjp that keeps the array it returns, recorded after another
    # consumer of the same input, so it runs first: the other consumer's
    # gradient is added into x's, never into the kept array
    kept = []

    def vjp(g):
        kept.append(3.0 * g)
        return (kept[0],)

    x = Tensor(np.ones(3), requires_grad=True)
    x.grad = None  # first written by the backward
    with Tape() as tape:
        other = T.mul(x, Tensor(np.full(3, 2.0)))
        holding = T._make(x.data.copy(), (x,), vjp)
        tape.backward(T.tsum(T.add(other, holding)))
    assert np.array_equal(kept[0], np.full(3, 3.0))
    assert np.array_equal(x.grad, np.full(3, 5.0))


def test_backward_keeps_an_f_ordered_vjp_array_f_ordered():
    # matmul's input gradient is (w @ g.T).T, an F-ordered array; its copy
    # keeps that layout, so the next vjp reduces it in the same order
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 5)))
    x.grad = None  # first written by the backward
    with Tape() as tape:
        y = T.matmul(x, w)
        tape.backward(T.tsum(T.mul(y, Tensor(rng.standard_normal((4, 5))))))
    assert x.grad.flags.f_contiguous and not x.grad.flags.c_contiguous
    assert x.grad.base is None


def test_row_table_pair_gather_is_the_two_column_gathers_side_by_side():
    # a (pairs, 2) id gather against the concat of its two column gathers:
    # the same bits forward, and the same gradients backward, where a row
    # read in both columns sums its gradients in another order (integer
    # weights keep every sum exact)
    rng = np.random.default_rng(14)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    ids = np.array([[0, 1], [3, 4], [1, 3], [4, 4], [2, 0]])
    w = Tensor(rng.integers(-4, 5, (len(ids), 8)).astype(np.float64))

    def run(gather):
        for t in (a, x):
            t.zero_grad()
        with Tape() as tape:
            table = T.RowTable(a)
            table.append(T.mul(x, x))
            out = gather(table)
            tape.backward(T.tsum(T.mul(out, w)))
        return out.data, a.grad.copy(), x.grad.copy()

    pair = run(lambda table: table.gather(ids))
    columns = run(lambda table: concat([table.gather(ids[:, 0]),
                                        table.gather(ids[:, 1])], axis=1))
    assert pair[0].shape == (len(ids), 8)
    for got, expect in zip(pair, columns):
        assert np.array_equal(got, expect)
    assert np.all(pair[2] != 0.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_composition_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    m = Tensor(rng.standard_normal((2, 5)), requires_grad=True)

    def loss():
        y = T.add_rowvec(T.matmul(x, w), b)
        y = T.gelu(y)
        y = T.sigmoid(y)
        z = T.log_softmax(T.reshape(y, (9,)))
        rows = T.log_softmax(m)  # row-wise
        return T.add(T.tsum(T.mul(z, z)), T.tsum(T.mul(rows, rows)))

    errors = check_grads(loss, {"x": x, "w": w, "b": b, "m": m})
    assert max(errors.values()) <= 1e-4


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        with Tape() as tape:
            y = T.tsum(T.gelu(T.matmul(x, x)))
            tape.backward(y)
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(g1, g2)


def _reference_adam(w, g, lr, b1, b2, eps, steps):
    # independent scalar Adam, written directly from the update rule
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w = w - lr * mhat / (np.sqrt(vhat) + eps)
    return w


def test_adam_first_step_magnitude():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState(lr=0.01)
    adam_step([p], [np.array([42.0])], state)
    assert abs(1.0 - p.data[0]) == pytest.approx(0.01, rel=1e-6)


def test_adam_zero_grad_no_change():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    state = AdamState()
    adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_matches_reference_trace():
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState(lr=1e-3)
    g = np.array([0.3])
    for _ in range(2):
        adam_step([p], [g], state)
    expected = _reference_adam(0.5, 0.3, 1e-3, 0.9, 0.999, 1e-8, 2)
    assert abs(p.data[0] - expected) <= 1e-10


def _adam_formula(params, grads, state):
    # adam_step's update as one expression per quantity
    if not state.m:
        state.m = [np.zeros_like(p.data, dtype=np.float64) for p in params]
        state.v = [np.zeros_like(p.data, dtype=np.float64) for p in params]
    state.step += 1
    b1, b2 = T.ADAM_BETA1, T.ADAM_BETA2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g64 = g.astype(np.float64)
        m *= b1
        m += (1.0 - b1) * g64
        v *= b2
        v += (1.0 - b2) * g64 * g64
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + T.ADAM_EPS)
        p.data -= update.astype(p.data.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_is_bit_identical_to_the_formula(dtype):
    rng = np.random.default_rng(3)
    shapes = [(8, 16), (16,), (16, 16), (4, 1)]
    params = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
              for s in shapes]
    copies = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    state, ref = AdamState(lr=2e-3), AdamState(lr=2e-3)
    for _ in range(20):
        grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-8, 3))
                 .astype(dtype) for s in shapes]
        kept = [g.copy() for g in grads]
        adam_step(params, grads, state)
        _adam_formula(copies, kept, ref)
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept))
        assert all(p.data.dtype == dtype and np.array_equal(p.data, c.data)
                   for p, c in zip(params, copies))
    assert all(np.array_equal(a, b)
               for a, b in zip(state.m + state.v, ref.m + ref.v))


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(TensorError):
        adam_step([p], [np.zeros(2)], AdamState())


def test_rows_gather_scatter_adds_repeated_rows():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.tsum(T.rows_gather(x, [1, 1])))
    assert np.array_equal(x.grad, [0.0, 2.0, 0.0])


def test_rows_gather_out_of_range():
    t = Tensor(np.zeros((4, 2)))
    with pytest.raises(TensorError):
        T.rows_gather(t, [4])


def test_add_rejects_incompatible_shapes():
    with pytest.raises(TensorError):
        T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

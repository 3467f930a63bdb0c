import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

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


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_no_overflow():
    out = T.softmax(Tensor([1000.0, 0.0]))
    assert abs(out.data[0] - 1.0) <= 1e-9
    assert abs(out.data[1]) <= 1e-9


def test_log_softmax_against_naive_formula():
    x = np.array([2.0, 1.0, 0.0])
    naive = np.log(np.exp(x) / np.exp(x).sum())
    out = T.log_softmax(Tensor(x))
    assert np.allclose(out.data, naive, atol=1e-12)
    assert np.allclose(out.data, [-0.40761, -1.40761, -2.40761], atol=1e-5)


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=8))
def test_softmax_simplex_property(xs):
    out = T.softmax(Tensor(np.array(xs, dtype=np.float64)))
    assert np.all(out.data >= 0)
    assert abs(out.data.sum() - 1.0) <= 1e-9


def test_layer_norm_constant_input():
    out = T.layer_norm(Tensor(np.full(5, 3.7)), Tensor(np.ones(5)),
                       Tensor(np.zeros(5)))
    assert np.allclose(out.data, 0.0, atol=1e-3)


def test_layer_norm_fixed_point():
    out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)),
                       Tensor(np.zeros(2)), eps=0.0)
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


def test_nan_policy_aborts_forward():
    big = Tensor([1e300])
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        T.mulc(big, 1e30)


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
    state = AdamState(lr=0.01, eps=1e-12)
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


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(TensorError):
        adam_step([p], [np.zeros(2)], AdamState())


def test_pick_and_slice_grads():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        loss = T.pick(x, 1)
        tape.backward(loss)
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_rows_gather_out_of_range():
    t = Tensor(np.zeros((4, 2)))
    with pytest.raises(TensorError):
        T.rows_gather(t, [4])


def test_add_rejects_incompatible_shapes():
    with pytest.raises(TensorError):
        T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

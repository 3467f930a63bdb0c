"""Minimal dense-tensor library with reverse-mode autodiff on a tape.

Everything here runs on numpy arrays. Gradients are accumulated by walking
an explicit tape of primitive applications in reverse; one backward pass
per tape. Training runs in float32, gradient-check suites in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LAYER_NORM_EPS = 1e-5  # added to the variance in every layer norm
# Adam's default betas and epsilon, used by every run
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TensorError(Exception):
    pass


class NonFiniteError(TensorError):
    """A forward primitive produced NaN/Inf; the step must be aborted."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Record:
    out: Tensor
    inputs: tuple
    vjp: object  # callable: g -> tuple of grad arrays (or None), aligned with inputs


class Tape:
    """Records primitive applications so `backward` can replay them in reverse.

    Use as a context manager around a forward construction. Running forward
    ops with no active tape skips recording entirely (eval mode).
    """

    _active = None

    def __init__(self):
        self.records: list[_Record] = []
        self.consumed = False
        self._outer = None

    def __enter__(self):
        self._outer = Tape._active
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = self._outer
        return False

    def backward(self, loss: Tensor):
        if self.consumed:
            raise TensorError("tape already consumed; re-record before backward")
        if loss.data.size != 1:
            raise TensorError(f"backward needs a scalar loss, got shape {loss.shape}")
        self.consumed = True
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += 1.0
        # each record is popped once its vjp has run, and the gradient of
        # the tensor it produced dropped: once every consumer of a tensor
        # has run, nothing reads its gradient again. Tensors no record
        # produced (parameters, inputs) keep theirs. One storage rule: an
        # input's first gradient is a copy of what the vjp returned, in the
        # input's dtype and the array's own layout (astype's order "K"),
        # and every later one is added into it, so no array a vjp returns,
        # or still holds, is ever written. A vjp may also add into
        # gradients itself and return None for them: the row gathers and
        # the other reads of a row table scatter into their source's
        # gradient, and a row table's first scatter to run makes every
        # chunk's gradient its slice of the table's buffer, its old
        # gradient added in, so the chunk's other consumers add into that
        # slice.
        records = self.records
        while records:
            rec = records.pop()
            g = rec.out.grad
            rec.out.grad = None
            if g is None:
                continue
            grads = rec.vjp(g)
            for inp, gi in zip(rec.inputs, grads):
                if gi is None or not inp.requires_grad:
                    continue
                if inp.grad is None:
                    inp.grad = gi.astype(inp.data.dtype, copy=True)
                else:
                    inp.grad += gi.astype(inp.data.dtype, copy=False)


def _make(data: np.ndarray, inputs: tuple, vjp, check: bool = True) -> Tensor:
    # one reduction: any NaN or inf makes the sum non-finite (a finite sum
    # that overflows is a false alarm, and aborts the step as well). A
    # gather copies values that the op which made them checked, and skips it.
    if check and not np.isfinite(np.add.reduce(data, axis=None)):
        raise NonFiniteError("non-finite value in forward op")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    tape = Tape._active
    if tape is not None and out.requires_grad:
        tape.records.append(_Record(out, inputs, vjp))
    return out


def _check_binary_shapes(a: Tensor, b: Tensor):
    # only equal-shape and scalar-with-tensor combinations are supported
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise TensorError(f"shape mismatch: {a.shape} vs {b.shape}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape) if int(np.prod(shape)) == 1 else g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes(a, b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes(a, b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes(a, b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-C vector to every row of an (R, C) matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise TensorError(f"add_rowvec shapes {m.shape} and {v.shape}")
    return _make(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g @ w.T, the gradient of x in x @ w, computed as (w @ g.T).T: with
    few rows in g, OpenBLAS is faster on that operand order."""
    return (w @ g.T).T


def weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x.T @ g, the gradient of w in x @ w. For a single row of x each
    entry is one product, so the broadcast product gives the same bits
    faster than a GEMM with an inner dimension of 1."""
    return x.T * g if x.shape[0] == 1 else x.T @ g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise TensorError("matmul supports 1-D and 2-D operands only")
    a2 = ad[None, :] if ad.ndim == 1 else ad
    b2 = bd[:, None] if bd.ndim == 1 else bd
    if a2.shape[1] != b2.shape[0]:
        raise TensorError(f"matmul inner dims {a.shape} vs {b.shape}")
    out = a2 @ b2
    if ad.ndim == 1:
        out = out[0]
    if bd.ndim == 1:
        out = out[..., 0]

    def vjp(g):
        g2 = g
        if ad.ndim == 1:
            g2 = g2[None, ...]
        if bd.ndim == 1:
            g2 = g2[..., None]
        ga = input_grad(g2, b2)
        gb = weight_grad(a2, g2)
        if ad.ndim == 1:
            ga = ga[0]
        if bd.ndim == 1:
            gb = gb[:, 0]
        return (ga, gb)

    return _make(out, (a, b), vjp)


def sigmoid_data(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), as 0.5 * tanh(0.5 * x) + 0.5 in the dtype of x:
    tanh cannot overflow, so no branch on the sign. Within 2 ulp of 1.0
    absolute, so a value near 0 may round to 0. Written into `out` when
    given, which may be x itself; the same bits either way."""
    s = np.multiply(x, 0.5, out=np.empty_like(x) if out is None else out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def sigmoid(a: Tensor) -> Tensor:
    s = sigmoid_data(a.data)
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


# Python floats: numpy computes with them in the array's dtype
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# erf(x) ~ x * P(x^2) / Q(x^2) on [-4, 4], highest power first: the
# clamped odd rational of Eigen's and XLA's float32 erf, its coefficients
# to the digits float32 keeps; tuples of numpy scalars, which Horner's
# loop reads faster than the entries of an array
_ERF_P = tuple(np.float32([-2.7261424e-10, 2.7706815e-08, -2.101024e-06,
                           -5.6925062e-05, -7.3499064e-04, -2.9546e-03,
                           -1.6096033e-02]))
_ERF_Q = tuple(np.float32([-1.45660715e-05, -2.1337405e-04, -1.682827e-03,
                           -7.3733293e-03, -1.4264739e-02]))


def _even_poly(x2: np.ndarray, coeffs: tuple) -> np.ndarray:
    acc = x2 * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x2
        acc += c
    return acc


# float64's erf: Python's, entry by entry
_erf_exact = np.vectorize(math.erf, otypes=[np.float64])


def _erf_rational(x: np.ndarray) -> np.ndarray:
    """erf of a float32 array: odd bit for bit, exactly +-1 from |x| = 4
    on, and NaN for NaN."""
    # np.minimum and an in-place np.maximum: np.clip's bits, without its
    # Python wrapper, which costs more than the rest on a few rows; a 0-d
    # input gives a numpy scalar, which cannot be written in place
    x = np.minimum(x, 4.0)
    x = np.maximum(x, -4.0, out=x if x.ndim else None)
    x2 = x * x
    p = _even_poly(x2, _ERF_P)
    p *= x
    p /= _even_poly(x2, _ERF_Q)
    return p


def gelu_data(x: np.ndarray):
    """The exact Gaussian-CDF form x * Phi(x), not the tanh approximation,
    with Phi(x) = (1 + erf(x / sqrt 2)) / 2 in the dtype of x. Returns
    (out, Phi(x)); Phi(x) feeds `gelu_slope`.

    float32 arrays of every size take `_erf_rational`, so a row's bits do
    not depend on the rows beside it: Phi is within 2.4e-7 absolute of
    float64 erf (4e6 points over [-10, 10]), may read up to 1.2e-7 below
    0 or above 1 for |x| between 5.1 and 5.7, and is exactly 0 or 1
    beyond. Other arrays (float64, in gradchecks and tests) take
    `math.erf` entry by entry, within an ulp or two of exact."""
    erf = _erf_rational if x.dtype == np.float32 else _erf_exact
    phi = erf(x * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    return x * phi, phi


def gelu_slope(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d gelu / dx at x, given Phi(x) from `gelu_data`: Phi(x) + x * the
    normal density at x, in the dtype of x."""
    return phi + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))


def gelu(a: Tensor) -> Tensor:
    x = a.data
    out, phi = gelu_data(x)
    return _make(out, (a,), lambda g: (g * gelu_slope(x, phi),))


def tsum(a: Tensor) -> Tensor:
    return _make(
        np.asarray(a.data.sum(), dtype=a.data.dtype).reshape(()),
        (a,),
        lambda g: (np.broadcast_to(g, a.data.shape),),
    )


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax of a 1-D input, or of each row of a 2-D input."""
    if a.data.ndim not in (1, 2) or a.data.size < 1:
        raise TensorError("log_softmax expects a non-empty 1-D or 2-D input")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    s = np.exp(out)
    return _make(out, (a,),
                 lambda g: (g - s * g.sum(axis=-1, keepdims=True),))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis with population variance:
    (x-mu)/sqrt(var+LAYER_NORM_EPS)*gamma+beta."""
    xd = x.data
    if xd.ndim not in (1, 2):
        raise TensorError("layer_norm expects 1-D or 2-D input")
    d = xd.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise TensorError("layer_norm gamma/beta must match the last axis")
    out, xhat, inv = layer_norm_data(xd, gamma.data, beta.data)
    return _make(out, (x, gamma, beta),
                 lambda g: layer_norm_grads(g, gamma.data, xhat, inv))


def _row_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True), the same sum and division without
    numpy's Python wrapper around them."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def layer_norm_data(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Layer norm over the last axis; returns (out, xhat, inv), the last two
    for `layer_norm_grads`."""
    xhat = x - _row_mean(x)
    inv = _row_mean(xhat * xhat)
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out.astype(x.dtype, copy=False), xhat, inv


def layer_norm_grads(g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray,
                     inv: np.ndarray):
    """(dx, dgamma, dbeta) of `layer_norm_data` for the output gradient g."""
    gg = g * gamma
    dx = inv * (gg - _row_mean(gg) - xhat * _row_mean(gg * xhat))
    if g.ndim == 2:
        return dx, np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0)
    return dx, g * xhat, g


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape).copy()
    return _make(out, (a,), lambda g: (g.reshape(a.data.shape),))


def _scatter_rows(grad: np.ndarray, ids: np.ndarray, g: np.ndarray):
    """grad[ids[i]] += g[i] for every i, repeated ids adding up in order:
    the same bits as numpy's row-wise `np.add.at(grad, ids, g)`, which is
    several times slower than one `np.add.at` over the flat entries. A 1-D
    grad's flat index is `ids` itself. A grad that is not C-contiguous
    raises ValueError rather than be scattered into a copy."""
    d = grad[0].size
    flat = ids if grad.ndim == 1 else (ids[:, None] * d + np.arange(d)).ravel()
    np.add.at(grad.reshape(-1, copy=False), flat, g.reshape(-1))


def rows_gather(table: Tensor, ids) -> Tensor:
    """Embedding-style row lookup: out[i] = table[ids[i]]; backward
    scatter-adds straight into the table's gradient (`_scatter_rows`).
    Refuses an id outside the table."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise TensorError("rows_gather index out of range")

    def vjp(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        _scatter_rows(table.grad, ids, g)
        return (None,)

    return _make(table.data[ids], (table,), vjp, check=False)


class RowTable:
    """An append-only table of rows, with one row-id space over the tensors
    appended (chunks). Their values are copied into one growing buffer when
    they are appended, so a read takes any rows with one index; an id at or
    past the table's size raises `IndexError`. No chunk is ever
    concatenated on the tape: there the table is one tensor, `token`, the
    input of every record that reads it (a gather, or a primitive that
    reads through `read`). Its gradient is one buffer of all the table's
    rows, and each such record's backward is one scatter into it; a chunk's
    gradient, a parameter chunk's too, is its slice of that buffer. A chunk
    is appended once."""

    def __init__(self, first: Tensor):
        data = first.data
        self.size = 0
        self._buf = np.empty((max(64, 2 * data.shape[0]),) + data.shape[1:],
                             dtype=data.dtype)
        self.token = Tensor(np.zeros(0, data.dtype))
        self._grads = []  # (chunk, start) of the chunks that need a gradient
        self.append(first)

    def append(self, rows: Tensor) -> int:
        """Add `rows` at the end; returns the id of its first row."""
        start, n = self.size, rows.data.shape[0]
        if start + n > self._buf.shape[0]:
            buf = np.empty((max(2 * self._buf.shape[0], start + n),)
                           + self._buf.shape[1:], dtype=self._buf.dtype)
            buf[:start] = self._buf[:start]
            self._buf = buf
        self._buf[start:start + n] = rows.data
        self.size = start + n
        if rows.requires_grad:
            self.token.requires_grad = True
            self._grads.append((rows, start))
        return start

    def read(self, ids):
        """The rows `ids` (an int array of any shape) as a plain array, and
        the backward part of a record that reads them, `scatter(rows, g)`:
        it adds g[i] into the gradient of row rows[i], one
        `_scatter_rows` into the table's gradient buffer. The first
        scatter to run allocates the buffer and makes it the gradient of
        every chunk that needs one, each its slice, with any gradient the
        chunk already had added in, so each chunk's gradient has one home
        from then on; every record that reads a chunk runs before the
        record that produced it."""
        token = self.token

        def scatter(rows, g):
            buf = token.grad
            if buf is None:
                buf = token.grad = np.zeros(
                    (self.size,) + self._buf.shape[1:], self._buf.dtype)
                for chunk, start in self._grads:
                    view = buf[start:start + chunk.data.shape[0]]
                    if chunk.grad is not None:
                        view += chunk.grad
                    chunk.grad = view
            _scatter_rows(buf, rows, g)

        return self._buf[:self.size][ids], scatter

    def gather(self, ids) -> Tensor:
        """out[i] = row ids[i] of the table; for a (rows, j) id matrix,
        out[i] is the j rows ids[i] side by side, one (rows, j * width)
        matrix. Every gather copies its rows through `read`, and its record
        on a tape is one scatter."""
        ids = np.asarray(ids, dtype=np.intp)
        values, scatter = self.read(ids)
        rows = ids.reshape(-1)

        def vjp(g):
            scatter(rows, g)
            return (None,)

        if ids.ndim == 2:
            values = values.reshape(len(ids), -1)
        return _make(values, (self.token,), vjp, check=False)


def _segment_starts(counts) -> np.ndarray:
    starts = np.zeros(len(counts), dtype=np.intp)
    counts[:-1].cumsum(out=starts[1:])
    return starts


def segment_softmax(a: Tensor, counts) -> Tensor:
    """Softmax of each run of consecutive entries of the 1-D `a`, run s
    being counts[s] (>= 1) entries long."""
    counts = np.asarray(counts, dtype=np.intp)
    x = a.data
    if x.ndim != 1 or int(counts.sum()) != x.shape[0] or (counts < 1).any():
        raise TensorError(f"segment_softmax of {x.shape} in runs {counts}")
    starts = _segment_starts(counts)
    e = np.exp(x - np.maximum.reduceat(x, starts).repeat(counts))
    out = e / np.add.reduceat(e, starts).repeat(counts)
    return _make(out, (a,), lambda g: (
        out * (g - np.add.reduceat(g * out, starts).repeat(counts)),))


def segment_log_softmax_data(x: np.ndarray, counts, starts=None):
    """Log-softmax of each run of consecutive entries of the 1-D array x,
    run s being counts[s] (>= 1) entries long, off the tape. A caller that
    has the runs' first entries, counts' exclusive cumulative sum, may pass
    them as `starts`. Returns the values and their vjp, g -> the gradient
    of x."""
    counts = np.asarray(counts, dtype=np.intp)
    if starts is None:
        starts = _segment_starts(counts)
    z = x - np.maximum.reduceat(x, starts).repeat(counts)
    out = z - np.log(np.add.reduceat(np.exp(z), starts).repeat(counts))
    return out, lambda g: g - np.exp(out) * np.add.reduceat(
        g, starts).repeat(counts)


def segment_sum(weights: Tensor, rows: Tensor, counts) -> Tensor:
    """out[s] = sum of weights[j] * rows[j] over the j of run s, the runs
    being counts[s] (>= 1) consecutive entries long: the weighted sum of
    each run of rows (R, d), or of entries (R,)."""
    counts = np.asarray(counts, dtype=np.intp)
    w, r = weights.data, rows.data
    if w.ndim != 1 or r.shape[0] != w.shape[0] or \
            int(counts.sum()) != w.shape[0] or (counts < 1).any():
        raise TensorError(f"segment_sum of {w.shape} and {r.shape} in runs "
                          f"{counts}")
    col = w[:, None] if r.ndim == 2 else w
    out = np.add.reduceat(col * r, _segment_starts(counts), axis=0)

    def vjp(g):
        gr = g.repeat(counts, axis=0)
        dw = (gr * r).sum(axis=1) if r.ndim == 2 else gr * r
        return dw, col * gr

    return _make(out, (weights, rows), vjp)


def dropout(a: Tensor, rate: float, rngs, counts) -> Tensor:
    """Inverted dropout of the rows of `a`: the mask of the first counts[0]
    rows is drawn from rngs[0], of the next counts[1] from rngs[1], and so
    on, each as one `random` call over its rows."""
    if rate <= 0.0:
        return a
    tail = a.data.shape[1:]
    keep = (np.concatenate([rng.random((c,) + tail)
                            for rng, c in zip(rngs, counts)])
            >= rate).astype(a.data.dtype)
    scale = 1.0 / (1.0 - rate)
    mask = keep * scale
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def glorot_uniform(shape, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (shape[0], shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def clip_grad_norm(grads: list, max_norm: float) -> float:
    """Scale a list of gradient arrays in place so their global norm <= max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params: list, grads: list, state: AdamState):
    """Standard bias-corrected Adam update at ADAM_BETA1, ADAM_BETA2 and
    ADAM_EPS, applied in place."""
    if len(params) != len(grads):
        raise TensorError("params/grads length mismatch")
    if not state.m:
        state.m = [np.zeros_like(p.data, dtype=np.float64) for p in params]
        state.v = [np.zeros_like(p.data, dtype=np.float64) for p in params]
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.data.shape != g.shape or m.shape != g.shape:
            raise TensorError("adam_step shape mismatch")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # the formula m += (1 - b1) g; v += (1 - b2) g g;
    # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), computed in place in
    # that order, so it rounds the same as the formula does
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g64 = g.astype(np.float64)
        tmp = np.multiply(g64, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(g64, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g64
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, bc1, out=g64)
        g64 *= state.lr
        g64 /= tmp
        p.data -= g64.astype(p.data.dtype, copy=False)

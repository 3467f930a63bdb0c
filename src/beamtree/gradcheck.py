"""Finite-difference gradient checking (central differences, double
precision). Used by the test suite and the `gradcheck` CLI subcommand."""

from __future__ import annotations

import numpy as np

from .tensor import Tape, Tensor

TINY = 1e-30
STEP = 1e-5  # the central differences' step


def analytic_grads(build_loss, params: dict) -> dict:
    """Run `build_loss()` under a fresh tape and return {name: grad array}."""
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    return {name: p.grad.copy() for name, p in params.items()}


def numeric_grad(build_loss, param: Tensor) -> np.ndarray:
    """Central finite differences of the scalar `build_loss()` wrt `param`,
    with step STEP."""
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        up = build_loss().item()
        flat[i] = orig - STEP
        down = build_loss().item()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * STEP)
    return grad.reshape(param.data.shape)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a.reshape(-1)))
    nb = float(np.linalg.norm(b.reshape(-1)))
    diff = float(np.linalg.norm((a - b).reshape(-1)))
    return diff / max(na, nb, TINY)


def check_grads(build_loss, params: dict) -> dict:
    """Compare tape gradients against finite differences for every named
    parameter; returns {name: relative error}."""
    analytic = analytic_grads(build_loss, params)
    errors = {}
    for name, p in params.items():
        numeric = numeric_grad(build_loss, p)
        errors[name] = relative_error(analytic[name], numeric)
    return errors

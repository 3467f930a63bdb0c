"""Multiprocess gradient computation for the training loop.

Examples within a batch are independent; workers compute per-shard gradient
sums and the parent reduces them in a fixed shard order, so results are
deterministic for a given config (worker count included)."""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import asdict

import numpy as np

_WORKER_MODEL = None


def _init_worker(cfg_dict, cap_blas_threads: bool):
    global _WORKER_MODEL
    if cap_blas_threads:
        from threadpoolctl import threadpool_limits
        threadpool_limits(1)
    from .harness import Model, make_config
    _WORKER_MODEL = Model(make_config(cfg_dict))


def _shard_grads(args):
    param_arrays, shard, epoch = args
    from .harness import batch_grad_sums
    for p, arr in zip(_WORKER_MODEL.params(), param_arrays):
        p.data[...] = arr
    return batch_grad_sums(_WORKER_MODEL, shard, epoch)


def start_pool(cfg, log=print):
    """Fork `cfg.workers` workers, each capped to one BLAS thread when
    threadpoolctl is installed; `log` reports once when it is not."""
    try:
        import threadpoolctl  # noqa: F401
        cap = True
    except ImportError:
        cap = False
        log("threadpoolctl is not installed: pool workers keep the default "
            "BLAS thread count")
    cfg_dict = {k: str(v) for k, v in asdict(cfg).items()}
    ctx = mp.get_context("fork")
    return ctx.Pool(cfg.workers, initializer=_init_worker,
                    initargs=(cfg_dict, cap))


def batch_grads_parallel(pool, model, batch, epoch: int):
    """Summed loss gradients and summed loss over `batch`, split into one
    shard per worker; returns (grads, loss_sum)."""
    workers = pool._processes
    param_arrays = [p.data for p in model.params()]
    shard_size = max(1, (len(batch) + workers - 1) // workers)
    shards = [batch[i:i + shard_size] for i in range(0, len(batch), shard_size)]
    results = pool.map(_shard_grads, [(param_arrays, s, epoch) for s in shards])
    total = [np.zeros_like(p.data) for p in model.params()]
    loss_sum = 0.0
    for grads, shard_loss in results:
        loss_sum += shard_loss
        for acc, g in zip(total, grads):
            acc += g
    return total, loss_sum

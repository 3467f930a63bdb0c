"""One batch on one tape against the per-example references in oracles.py:
a batch of mixed lengths, 1 and 2 among them, in training mode with one
rng per example, in double precision. The batched encoders must take the
same actions, and the per-example losses and summed gradients must match
the references."""

import functools
import gc
import importlib.util
import os
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (per_example_leaves, per_example_loss, stacked_bt_cell,
                     stacked_easy_first_gumbel)

from beamtree import encoders
from beamtree import tensor as T
from beamtree.harness import Model, batch_grad_sums, batch_logits, \
    batch_losses, example_rng, make_config
from beamtree.listops import Example, read_tsv, tokenize
from beamtree.tensor import Tape
from beamtree.trees import bracketed

SOURCES = ["[MAX 2 [MIN 8 3 ] 1 ]", "7", "[SM 4 5 ]",
           "[MIN 3 [MAX 1 9 2 ] [MED 5 6 7 ] 0 ]", "[MED 1 2 ]",
           "[MAX 2 ]", "1 2"]  # the last is no ListOps row: no gold tree

VARIANTS = {"gold": {"encoder": "gold"},
            "recurrent": {"encoder": "recurrent"},
            "gumbel": {"encoder": "gumbel"}}
for _k in (2, 3, 5):
    for _topk in ("plain", "onesoft"):
        VARIANTS[f"bt_k{_k}_{_topk}"] = {"encoder": "bt",
                                         "beam_size": str(_k),
                                         "topk": _topk}

SEED = 3


def _setup(variant):
    cfg = make_config({**VARIANTS[variant], "d_e": "6", "d_h": "5",
                       "dropout": "0.1", "seed": str(SEED)})
    sources = SOURCES[:-1] if variant == "gold" else SOURCES
    return Model(cfg, np.float64), [Example(s, i % 10, len(s.split()), 0, 0)
                                    for i, s in enumerate(sources)]


def _rngs(count):
    return [example_rng(SEED, 0, i) for i in range(count)]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_batch_losses_and_grads_match_per_example(variant):
    model, examples = _setup(variant)
    params = model.named()
    model.zero_grad()
    with Tape() as tape:
        losses = batch_losses(model, examples, True, _rngs(len(examples)))
        tape.backward(T.tsum(losses))
    got = {name: p.grad.copy() for name, p in params.items()}

    expect = {name: np.zeros_like(p.data) for name, p in params.items()}
    ref = []
    for ex, rng in zip(examples, _rngs(len(examples))):
        model.zero_grad()
        with Tape() as tape:
            loss = per_example_loss(model, ex, True, rng)
            tape.backward(loss)
        ref.append(loss.item())
        for name, p in params.items():
            expect[name] += p.grad
    assert np.allclose(losses.data, ref, rtol=1e-10, atol=0.0)
    for name, g in expect.items():
        scale = max(np.max(np.abs(g)), 1e-300)
        assert np.max(np.abs(got[name] - g)) / scale <= 1e-10, name
    assert np.any(expect["leaf.embedding"] != 0.0)


@pytest.mark.parametrize("variant", ["gumbel", "bt_k2_plain",
                                     "bt_k2_onesoft", "bt_k3_plain",
                                     "bt_k3_onesoft", "bt_k5_plain",
                                     "bt_k5_onesoft"])
def test_batch_actions_match_per_example(variant):
    model, examples = _setup(variant)
    cfg = model.cfg
    sequences = [tokenize(ex.source) for ex in examples]
    onesoft = cfg.topk == "onesoft"
    _, beams = batch_logits(model, examples, True, _rngs(len(examples)))
    if variant == "gumbel":
        got = [bracketed(b.actions[0], range(len(ids)))
               for ids, b in zip(sequences, beams)]
    else:
        got = [b.actions for b in beams]

    expect = []
    for ids, rng in zip(sequences, _rngs(len(examples))):
        rows = per_example_leaves(ids, model.leaf, cfg.dropout, rng)
        if variant == "gumbel":
            expect.append(bracketed(stacked_easy_first_gumbel(
                rows, model.cell, model.scorer, rng)[1], range(len(ids))))
        else:
            expect.append(stacked_bt_cell(rows, model.cell, model.scorer,
                                          cfg.beam_size, onesoft,
                                          rng)[1].actions)
    assert got == expect


def test_batch_records_a_fifth_of_the_per_example_tapes():
    # 16 training rows of lengths up to 30: one tape for the batch against
    # one tape per example
    path = os.path.join(os.path.dirname(__file__), os.pardir, "results",
                        "data-mid", "train.tsv")
    examples = read_tsv(path)[:16]
    model = Model(make_config({"encoder": "bt", "beam_size": "3",
                               "d_e": "8", "d_h": "8", "dropout": "0.05"}))
    with Tape() as tape:
        batch_losses(model, examples, True, _rngs(16))
        batched = len(tape.records)
    per_example = 0
    for ex, rng in zip(examples, _rngs(16)):
        with Tape() as tape:
            per_example_loss(model, ex, True, rng)
            per_example += len(tape.records)
    assert batched * 5 <= per_example, (batched, per_example)


@pytest.fixture(scope="module")
def bench_batch():
    """The benchmark's workload definitions (bench/workloads.py) and the 16
    train rows it picks on seed 0."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = wl  # its dataclasses look their module up
    spec.loader.exec_module(wl)
    return wl, wl.pick_rows(read_tsv(wl.DATA / "train.tsv"), 16, 0,
                            "train.tsv")


@pytest.mark.parametrize("variant,records", [
    ("bt_k2_plain", 91), ("bt_k3_plain", 91), ("bt_k5_plain", 91),
    ("bt_k3_onesoft", 187), ("gumbel_tree", 174)])
def test_tape_records_of_a_bench_batch(bench_batch, variant, records,
                                       monkeypatch):
    # one training batch of the benchmark's train-latent workload, its
    # loss summed as `batch_grad_sums` sums it: a beam-search step makes
    # four records (the picked beams' scores, both children of the stale
    # pairs, the cell and the scorer); OneSoft's collapse adds six, and a
    # straight-through step makes nine, its selection one of them
    wl, rows = bench_batch
    model = Model(make_config({**wl.BASE_CONFIG, **wl.VARIANTS[variant],
                               "seed": "0"}))
    per_step = []
    step = encoders._BeamBatch.step

    def counted(search, *args):
        before = len(T.Tape._active.records)
        stepped = step(search, *args)
        if stepped:
            per_step.append(len(T.Tape._active.records) - before)
        return stepped

    monkeypatch.setattr(encoders._BeamBatch, "step", counted)
    with Tape() as tape:
        T.tsum(batch_losses(model, rows, True,
                           [example_rng(0, 0, i) for i in range(16)]))
        assert len(tape.records) == records
    if model.cfg.encoder == "gumbel":
        assert set(per_step) == {9}, per_step
    else:
        onesoft = model.cfg.topk == "onesoft"
        assert set(per_step) == ({4, 10} if onesoft else {4}), per_step


@pytest.mark.parametrize("variant", ["gold", "recurrent", "gumbel",
                                     "bt_k3_onesoft"])
def test_batch_step_frees_the_model_without_the_cycle_collector(variant):
    # a reference cycle left by a training step would keep the weights, the
    # tape's arrays and their gradients alive until the cyclic collector
    # runs, which grows peak memory in training
    model, examples = _setup(variant)
    freed = weakref.ref(model.cell)
    gc.disable()
    try:
        batch_grad_sums(model, list(enumerate(examples)), 0)
        del model
        assert freed() is None
    finally:
        gc.enable()


def _eval_batch(model, examples):
    """Evaluation's logits of a batch, and the actions of every example's
    final beams."""
    logits, beams = batch_logits(model, examples, False, None)
    return logits.data, [b.actions for b in beams]


@functools.lru_cache(maxsize=None)
def _eval_setup(variant):
    """A float64 model at init, sixteen ListOps rows of mixed lengths (eight
    `data-mid` dev rows of 5-26 tokens and eight test rows of 48-71), and
    each row evaluated as a batch of one."""
    model = Model(make_config({**VARIANTS[variant], "d_e": "64",
                               "d_h": "64", "seed": "0"}), np.float64)
    data = os.path.join(os.path.dirname(__file__), os.pardir, "results",
                        "data-mid")
    rows = (read_tsv(os.path.join(data, "dev.tsv"))[:8]
            + read_tsv(os.path.join(data, "test.tsv"))[:8])
    return model, rows, [_eval_batch(model, [ex]) for ex in rows]


@pytest.mark.parametrize("variant", ["gumbel", "bt_k2_plain", "bt_k3_plain",
                                     "bt_k5_plain"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluation_does_not_depend_on_the_batch(variant, data):
    # equal subtrees are one row, so the ties between them are exact, and
    # `plain_topk` breaks them by position in every batch: any batching
    # and order of the rows takes the actions of each row alone, and its
    # logits agree up to the rounding of distinct rows
    model, rows, alone = _eval_setup(variant)
    order = data.draw(st.permutations(range(len(rows))))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(rows) - 1),
                                    max_size=4)))
    for batch in np.split(np.asarray(order), cuts):
        logits, beams = _eval_batch(model, [rows[i] for i in batch])
        for i, row, actions in zip(batch, logits, beams):
            alone_logits, alone_beams = alone[i]
            assert actions == alone_beams[0], (variant, i)
            assert np.max(np.abs(row - alone_logits[0])) <= 1e-12, (variant, i)

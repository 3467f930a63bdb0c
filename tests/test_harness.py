import io
import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib import format as npy
from one_example import example_loss

from beamtree import harness
from beamtree import tensor as T
from beamtree.checkpoint import (CheckpointError, load_checkpoint, restore,
                                 save_checkpoint)
from beamtree.harness import (ENCODER_KINDS, HarnessError, HeadParams,
                              Model, RunConfig, classify, evaluate_examples,
                              load_config, load_model, make_config,
                              parse_kv, save_config, train)
from beamtree.listops import Example, GenConfig, generate, read_tsv
from beamtree.tensor import Tensor


def _tiny_cfg(**kw):
    base = dict(encoder="gold", d_e=12, d_h=12, dropout=0.0, lr=5e-3,
                batch_size=4, max_epochs=3, seed=0)
    base.update(kw)
    return make_config({k: str(v) for k, v in base.items()})


def _tiny_examples(count=12, seed=0):
    return generate(GenConfig(max_length=20, max_depth=2, max_args=3,
                              count=count, seed=seed))


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path):
    # Adam's m and v are float64 beside float32 weights; neither is rounded
    rng = np.random.default_rng(0)
    tensors = {"a.W": rng.standard_normal((3, 4)).astype(np.float32),
               "b": rng.standard_normal(7).astype(np.float32),
               "adam.m.a.W": rng.standard_normal((3, 4)) * 1e-9}
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, tensors)
    back = load_checkpoint(path)
    assert set(back) == set(tensors)
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])
        assert back[k].dtype == tensors[k].dtype
        assert back[k].tobytes() == tensors[k].tobytes()


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_TENSORS = st.one_of(
    *(hnp.arrays(dtype, _SHAPES, elements=st.floats(width=width))
      for dtype, width in ((np.float32, 32), (np.float64, 64))))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text("abwxyz.0123456789_", min_size=1, max_size=6),
                       _TENSORS, max_size=5))
@example({})
def test_checkpoint_round_trips_any_float_tensors(tmp_path_factory, tensors):
    path = tmp_path_factory.mktemp("ckpt") / "x.ckpt"
    save_checkpoint(path, tensors)
    back = load_checkpoint(path)
    assert list(back) == list(tensors)
    for k, a in tensors.items():
        assert (back[k].dtype, back[k].shape) == (a.dtype, a.shape)
        assert back[k].tobytes() == a.tobytes()  # NaNs and -0.0 too
    # numpy opens it as one 0-d record with the same fields, in order
    record = np.load(path, allow_pickle=False)
    assert record.shape == ()
    assert record.dtype.names == tuple(tensors)
    for k, a in tensors.items():
        assert record[k].tobytes() == a.tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _npy_header(descr, shape=()) -> bytes:
    out = io.BytesIO()
    npy.write_array_header_1_0(out, {"descr": descr, "fortran_order": False,
                                     "shape": shape})
    return out.getvalue()


# cut points in a file holding one tensor "w" of shape (2, 2): the magic
# string and version (0-7), the header length (8-9), the header, then the
# 16-byte payload; a stray byte is appended, not cut
@pytest.mark.parametrize("cut", ["empty", "magic", "version",
                                 "header length", "header", "header end",
                                 "payload", "payload end", "stray byte"])
def test_checkpoint_rejects_truncation(tmp_path, cut):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    data = path.read_bytes()
    payload = 10 + int.from_bytes(data[8:10], "little")
    assert data[:8] == b"\x93NUMPY\x01\x00"
    assert len(data) == payload + 16
    at = {"empty": 0, "magic": 3, "version": 7, "header length": 9,
          "header": (10 + payload) // 2, "header end": payload - 1,
          "payload": payload + 1, "payload end": len(data) - 1,
          "stray byte": None}[cut]
    path.write_bytes(data + b"\x00" if at is None else data[:at])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(4_000_000_000, 4_000_000_000),
                                   (2**32 - 1,) * 3, (1_000_000_000,),
                                   (500_000_000,)])
def test_checkpoint_rejects_impossible_extents(tmp_path, shape):
    # the element count would overflow int64, or ask for more bytes than
    # numpy lets a record hold, or than the file holds
    path = tmp_path / "huge.ckpt"
    path.write_bytes(_npy_header([("w", "<f4", shape)]) + b"\x00" * 16)
    with pytest.raises(CheckpointError,
                       match=r"not a checkpoint: invalid shape|"
                             r"the record is 2000000000 bytes, but 16"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_tensor_named_twice(tmp_path):
    # two one-entry fields w; the later one must not win
    path = tmp_path / "twice.ckpt"
    path.write_bytes(_npy_header([("w", "<f4", (1,)), ("w", "<f4", (1,))])
                     + np.array([1.0, 2.0], dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match="name already used"):
        load_checkpoint(path)


@pytest.mark.parametrize("descr, shape, size", [
    ([("w", "|O")], (), 8),
    ("<f4", (2,), 8),
    ("<f4", (), 4),
    ([("w", "<f4")], (1,), 4)],
    ids=["object field", "plain array", "plain scalar", "array of records"])
def test_checkpoint_rejects_what_is_not_one_record(tmp_path, descr, shape,
                                                    size):
    path = tmp_path / "x.ckpt"
    path.write_bytes(_npy_header(descr, shape) + b"\x00" * size)
    with pytest.raises(CheckpointError, match="not one record of tensors"):
        load_checkpoint(path)


def test_checkpoint_rejects_another_npy_version(tmp_path):
    path = tmp_path / "v2.ckpt"
    data = _npy_header([("w", "<f4")]) + b"\x00" * 4
    path.write_bytes(data[:6] + b"\x02\x00" + data[8:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    before = path.read_bytes()
    # a tensor of Python objects has no bytes to write
    with pytest.raises(CheckpointError, match="holds Python objects"):
        save_checkpoint(path, {"a": np.zeros(3, dtype=np.float32),
                               "b": np.array([object()])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


def test_checkpoint_refuses_a_header_np_load_would_refuse(tmp_path):
    # np.load reads a header of at most 10,000 bytes, so a save of 300
    # tensors would write a file that no one could open
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match="over the 10000 np.load reads"):
        save_checkpoint(path, {f"adam.v.layer{i}.weight": np.zeros(1)
                               for i in range(300)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
    many = {f"t{i}": np.zeros(1) for i in range(300)}
    save_checkpoint(path, many)  # short names fit
    assert list(load_checkpoint(path)) == list(many)


def test_checkpoint_refuses_a_name_numpy_would_change(tmp_path):
    # numpy names an empty field "f0", which would load under another name
    path = tmp_path / "x.ckpt"
    with pytest.raises(CheckpointError, match=r"names the fields \('f0',\)"):
        save_checkpoint(path, {"": np.zeros(2, dtype=np.float32)})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("saved, target, message", [
    (lambda: {"w": np.ones(3, dtype=np.float32)},
     lambda: {"w": Tensor(np.zeros(4, dtype=np.float32))}, "shape mismatch"),
    # restored as it was saved: a float64 tensor is not rounded to float32
    (lambda: {"w": np.ones(3)},
     lambda: {"w": Tensor(np.zeros(3, dtype=np.float32))},
     "dtype mismatch for w: float64 vs float32"),
    (lambda: {"w": np.ones(3, dtype=np.float32)},
     lambda: {"w": Tensor(np.zeros(3, dtype=np.float32)),
              "v": Tensor(np.zeros(3, dtype=np.float32))}, "missing"),
    # a recurrent model's checkpoint holds h0, which a gold model lacks
    (lambda: {k: v.data for k, v in
              Model(_tiny_cfg(encoder="recurrent")).named().items()},
     lambda: Model(_tiny_cfg()).named(), "h0"),
], ids=["shape", "dtype", "missing", "extra"])
def test_restore_rejects_mismatch(tmp_path, saved, target, message):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, saved())
    with pytest.raises(CheckpointError, match=message):
        restore(target(), load_checkpoint(path))


# ---------------------------------------------------------------------------
# config

def test_config_file_round_trip(tmp_path):
    cfg = _tiny_cfg(encoder="bt", beam_size=3, topk="onesoft")
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(HarnessError):
        make_config({"no_such_key": "1"})


@pytest.mark.parametrize("encoder", ["transformer", "bsrp"])
def test_config_rejects_bad_encoder(tmp_path, encoder):
    # bsrp, beam shift-reduce, is deleted: its saved run configs load no more
    message = f"unknown encoder '{encoder}'"
    with pytest.raises(HarnessError, match=message):
        make_config({"encoder": encoder})
    path = tmp_path / "config.txt"
    save_config(RunConfig(encoder="gold"), path)
    path.write_text(path.read_text().replace("encoder=gold",
                                             f"encoder={encoder}"))
    with pytest.raises(HarnessError, match=message):
        load_config(path)


def test_config_refuses_a_key_given_twice(tmp_path):
    # the last value used to win silently: this file trained gold
    path = tmp_path / "c.txt"
    path.write_text("encoder=bt\nd_h=16\nencoder=gold\n")
    with pytest.raises(HarnessError, match="config key 'encoder' given twice"):
        load_config(path)


def test_config_rejects_unknown_topk():
    with pytest.raises(HarnessError):
        make_config({"topk": "one_soft"})
    with pytest.raises(HarnessError):
        make_config({"encoder": "bt", "beam_size": "1", "topk": "onesoft"})
    # a config is checked when it is made, however it is made, and is
    # never changed after
    cfg = _tiny_cfg()
    with pytest.raises(HarnessError, match="top-k operator 'one_soft'"):
        replace(cfg, topk="one_soft")
    with pytest.raises(FrozenInstanceError):
        cfg.topk = "one_soft"


@pytest.mark.parametrize("key, value", [
    ("max_epochs", 0), ("max_epochs", -3), ("dropout", 1.0),
    ("dropout", -0.5), ("lr", -1.0), ("lr", 0.0), ("lr", float("inf")),
    ("d_e", 0), ("d_h", 0), ("beam_size", 0)])
def test_config_rejects_out_of_range_values(key, value):
    with pytest.raises(HarnessError, match=key):
        make_config({key: str(value)})
    cfg = _tiny_cfg()
    with pytest.raises(HarnessError, match=key):
        replace(cfg, **{key: value})
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, key, value)


def test_committed_run_configs_load():
    results = Path(__file__).resolve().parent.parent / "results"
    paths = sorted(results.glob("**/config.txt"))
    assert paths
    for path in paths:
        cfg = load_config(path)
        assert f"encoder={cfg.encoder}\n" in path.read_text()


def test_config_refuses_keys_of_older_run_configs(tmp_path):
    # run configs written while a run could fork gradient workers or pick
    # its cell carried workers=1 and cell=grc; neither is a field any more
    path = tmp_path / "c.txt"
    path.write_text("encoder=gold\ncell=grc\nworkers=1\n")
    with pytest.raises(HarnessError, match="unknown config key 'cell'"):
        load_config(path)
    path.write_text("encoder=gold\nworkers=1\n")
    with pytest.raises(HarnessError, match="unknown config key 'workers'"):
        load_config(path)
    with pytest.raises(HarnessError, match="unknown config key 'workers'"):
        make_config({"workers": "1"})


@pytest.mark.parametrize("encoder", [k for k in ENCODER_KINDS if k != "bt"])
def test_config_refuses_onesoft_without_beam_tree(encoder):
    # only encode_bt_cell has a OneSoft truncation; the others would train
    # exactly as with plain top-k without saying so
    with pytest.raises(HarnessError, match="topk=onesoft needs encoder=bt"):
        make_config({"encoder": encoder, "beam_size": "3", "topk": "onesoft"})
    assert make_config({"encoder": encoder, "topk": "plain"}).topk == "plain"


@pytest.mark.parametrize("key,text", [("beam_size", "abc"),
                                      ("beam_size", "2.5"), ("lr", "fast")])
def test_config_rejects_bad_number(key, text):
    with pytest.raises(HarnessError, match=key):
        make_config({key: text})


def test_config_blank_lines_and_values_as_written(tmp_path):
    # a value is taken as written apart from the spaces around it: there is
    # no comment syntax, so a '#' is part of the value
    path = tmp_path / "c.txt"
    path.write_text("\n  encoder = recurrent  \n\nd_h=16\n"
                    "data_dir=runs/ab#1 # x\n")
    assert parse_kv(path.read_text().splitlines()) == {
        "encoder": "recurrent", "d_h": "16", "data_dir": "runs/ab#1 # x"}
    cfg = load_config(path)
    assert (cfg.encoder, cfg.d_h, cfg.data_dir) == ("recurrent", 16,
                                                     "runs/ab#1 # x")


def test_config_round_trip_keeps_a_hash_in_data_dir(tmp_path):
    cfg = _tiny_cfg(data_dir="runs/ab#1")
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_parse_kv_refuses_a_line_without_equals(tmp_path):
    with pytest.raises(HarnessError, match="bad config line 'd_h 16'"):
        parse_kv(["encoder=gold", "d_h 16"])
    path = tmp_path / "c.txt"
    path.write_text("encoder=gold\nd_h 16\n")
    with pytest.raises(HarnessError, match="bad config line 'd_h 16'"):
        load_config(path)


# ---------------------------------------------------------------------------
# model and head

def test_classify_zero_output_layer_uniform_logits():
    head = HeadParams.init(6, 10, np.random.default_rng(0), np.float64)
    head.W2.data[...] = 0.0
    logits = classify(
        Tensor(np.random.default_rng(1).standard_normal((1, 6))), head)
    assert logits.data.shape == (1, 10)
    assert np.allclose(logits.data, 0.0)
    probs = T.segment_softmax(T.reshape(logits, (-1,)), [10])
    assert np.allclose(probs.data, 0.1, atol=1e-12)


def test_example_loss_is_negative_log_probability():
    cfg = _tiny_cfg()
    model = Model(cfg)
    ex = Example(source="[MAX 2 3 ]", label=3, length=4, depth=1, max_args=2)
    loss = example_loss(model, ex, False, None)
    from beamtree.harness import forward_logits
    logits = forward_logits(model, ex, False, None)
    p = np.exp(T.log_softmax(logits).data[3])
    assert loss.item() == pytest.approx(-np.log(p), abs=1e-9)
    assert loss.item() > 0.0


def test_model_init_deterministic_under_seed():
    a = Model(_tiny_cfg(seed=5))
    b = Model(_tiny_cfg(seed=5))
    c = Model(_tiny_cfg(seed=6))
    for k in a.named():
        assert np.array_equal(a.named()[k].data, b.named()[k].data)
    assert not all(np.array_equal(a.named()[k].data, c.named()[k].data)
                   for k in a.named())


@pytest.mark.parametrize("encoder", ENCODER_KINDS)
def test_every_encoder_kind_forward_and_backward(encoder):
    cfg = _tiny_cfg(encoder=encoder, beam_size=2, max_epochs=1)
    model = Model(cfg)
    ex = Example(source="[SM 1 [MIN 4 5 ] 2 ]", label=3, length=8, depth=2,
                 max_args=3)
    from beamtree.harness import example_rng
    with T.Tape() as tape:
        loss = example_loss(model, ex, True, example_rng(cfg.seed, 0, 0))
        tape.backward(loss)
    assert np.isfinite(loss.item())
    assert any(np.any(p.grad != 0.0) for p in model.params())


# ---------------------------------------------------------------------------
# training loop

def test_train_overfits_tiny_set(tmp_path):
    examples = _tiny_examples(16, seed=1)
    cfg = _tiny_cfg(max_epochs=25, patience=25, batch_size=8, lr=0.01)
    ckpt, metrics = train(cfg, tmp_path / "run", train_examples=examples,
                          dev_examples=examples, log=lambda *_: None)
    best = max(m["dev_accuracy"] for m in metrics)
    assert best >= 0.9
    model = load_model(cfg, ckpt)
    acc, _ = evaluate_examples(model, examples)
    assert acc == pytest.approx(best)


def test_train_checkpoint_is_one_npy_record(tmp_path):
    examples = _tiny_examples(8, seed=5)
    cfg = _tiny_cfg(encoder="recurrent", max_epochs=1)
    ckpt, _ = train(cfg, tmp_path / "run", train_examples=examples,
                    dev_examples=examples, log=lambda *_: None)
    record = np.load(ckpt, allow_pickle=False)
    named = load_model(cfg, ckpt).named()
    assert record.shape == ()
    assert record.dtype.names == tuple(named)
    for name, tensor in named.items():
        assert record[name].dtype == np.float32
        assert np.array_equal(record[name], tensor.data)


def test_train_metrics_byte_identical_across_reruns(tmp_path):
    examples = _tiny_examples(8, seed=2)
    cfg = _tiny_cfg(encoder="bt", beam_size=2, topk="onesoft", max_epochs=2)

    def run(name):
        out = tmp_path / name
        train(cfg, out, train_examples=examples, dev_examples=examples[:4],
              log=lambda *_: None)
        return (out / "metrics.jsonl").read_bytes()

    assert run("a") == run("b")


def test_train_records_gradient_norms_per_epoch(tmp_path):
    examples = _tiny_examples(12, seed=3)
    cfg = _tiny_cfg(encoder="bt", beam_size=2, max_epochs=3, lr=0.05,
                    batch_size=4)
    keys = ("grad_norm_mean", "grad_norm_max", "clipped_frac")

    def run(name):
        _ckpt, metrics = train(cfg, tmp_path / name, train_examples=examples,
                               dev_examples=examples[:4], log=lambda *_: None)
        return [[m[k] for k in keys] for m in metrics]

    first = run("a")
    assert first == run("b")
    for mean, largest, clipped in first:
        assert 0.0 < mean <= largest
        assert 0.0 <= clipped <= 1.0


def test_train_writes_artifacts_and_timing_separate(tmp_path):
    examples = _tiny_examples(8, seed=4)
    cfg = _tiny_cfg(max_epochs=1)
    out = tmp_path / "run"
    train(cfg, out, train_examples=examples, dev_examples=examples,
          log=lambda *_: None)
    assert (out / "best.ckpt").exists()
    assert (out / "config.txt").exists()
    records = [json.loads(line)
               for line in (out / "metrics.jsonl").read_text().splitlines()]
    for rec in records:
        assert set(rec) == {"epoch", "step", "train_loss", "dev_accuracy",
                            "dev_loss", "grad_norm_mean", "grad_norm_max",
                            "clipped_frac"}
    line = (out / "timing.log").read_text().splitlines()[0]
    fields = dict(item.split("=") for item in line.split())
    assert list(fields) == ["epoch", "wall_seconds", "train_seconds",
                            "dev_seconds", "train_ex_per_s"]
    train_s, dev_s = float(fields["train_seconds"]), float(fields["dev_seconds"])
    assert train_s + dev_s <= float(fields["wall_seconds"]) + 0.1
    assert float(fields["train_ex_per_s"]) > 0.0


def test_train_refuses_a_non_finite_gradient_before_clipping(tmp_path,
                                                             monkeypatch):
    # an inf gradient would become NaN in clipping (5 / inf * inf) and Adam
    # would write it into the weights; train stops first, naming the epoch,
    # the step and the first parameter whose gradient is not finite
    cfg = _tiny_cfg(max_epochs=1)
    names = list(Model(cfg).named())
    grad_sums, touched = harness.batch_grad_sums, []

    def poisoned(model, batch, epoch):
        grads, loss = grad_sums(model, batch, epoch)
        grads[3].flat[0] = np.inf
        grads[5].flat[0] = np.nan
        return grads, loss

    def recorded(name):
        fn = getattr(harness, name)
        return lambda *args: (touched.append(name), fn(*args))[1]

    monkeypatch.setattr(harness, "batch_grad_sums", poisoned)
    for name in ("clip_grad_norm", "adam_step"):
        monkeypatch.setattr(harness, name, recorded(name))
    with pytest.raises(HarnessError, match=re.escape(
            f"non-finite gradient of {names[3]} at epoch 0 step 0")):
        train(cfg, tmp_path / "run", _tiny_examples(8), _tiny_examples(4),
              log=lambda *_: None)
    assert touched == []
    assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("train_rows, message", [
    (32, "non-finite forward value at epoch 0 step 1"),
    (8, "non-finite forward value in dev evaluation at epoch 0")])
def test_train_names_where_a_diverging_run_overflows(tmp_path, train_rows,
                                                    message):
    # lr=1e30 overflows the first forward after the first step: the second
    # training step's when an epoch has two batches or more, else the dev
    # evaluation's. The finite checks report it, and numpy warns of nothing
    data = Path(__file__).resolve().parent.parent / "results" / "data-mid"
    cfg = _tiny_cfg(lr=1e30, d_e=16, d_h=16, batch_size=8, max_epochs=2)
    with pytest.raises(HarnessError, match=f"^{message}$"):
        train(cfg, tmp_path / "run",
              read_tsv(data / "train.tsv")[:train_rows],
              read_tsv(data / "dev.tsv")[:8], log=lambda *_: None)
    assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""


@pytest.mark.parametrize("split", ["train", "dev"])
def test_train_refuses_an_empty_split(tmp_path, split):
    splits = {"train": _tiny_examples(4), "dev": _tiny_examples(2)}
    splits[split] = []
    with pytest.raises(HarnessError, match=split):
        train(_tiny_cfg(), tmp_path / "run", splits["train"], splits["dev"],
              log=lambda *_: None)
    assert not (tmp_path / "run").exists()


def test_evaluate_examples_refuses_an_empty_split():
    with pytest.raises(HarnessError, match="no examples"):
        evaluate_examples(Model(_tiny_cfg()), [])


def test_evaluate_examples_counts_argmax(tmp_path):
    cfg = _tiny_cfg()
    model = Model(cfg)
    examples = _tiny_examples(10, seed=5)
    acc, loss = evaluate_examples(model, examples)
    assert 0.0 <= acc <= 1.0
    assert loss > 0.0


def test_training_and_evaluation_load_no_numpy_ma(tmp_path):
    # numpy's set routines (`np.unique`, `np.union1d`, ...) import numpy.ma
    # on their first call, which adds about 1 MB to a run's peak RSS: a
    # fresh interpreter that trains each encoder for one epoch on a few
    # `data-mid` rows and evaluates one model has not loaded it
    root = Path(__file__).resolve().parent.parent
    probe = f"""
import sys
import beamtree
from beamtree import harness, listops
rows = listops.read_tsv({str(root / "results" / "data-mid" / "train.tsv")!r})
for name, kw in (("gold", {{"encoder": "gold"}}),
                 ("recurrent", {{"encoder": "recurrent"}}),
                 ("gumbel", {{"encoder": "gumbel"}}),
                 ("plain", {{"encoder": "bt", "beam_size": "3"}}),
                 ("onesoft", {{"encoder": "bt", "beam_size": "2",
                              "topk": "onesoft"}})):
    cfg = harness.make_config({{"d_e": "8", "d_h": "8", "batch_size": "4",
                               "max_epochs": "1", **kw}})
    harness.train(cfg, {str(tmp_path)!r} + "/" + name, rows[:8], rows[8:10],
                  log=lambda *args: None)
harness.evaluate_examples(harness.Model(cfg), rows[10:14])
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

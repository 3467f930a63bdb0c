import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from one_example import example_loss

from beamtree import harness
from beamtree import tensor as T
from beamtree.checkpoint import (CheckpointError, load_checkpoint, restore,
                                 save_checkpoint)
from beamtree.harness import (ENCODER_KINDS, HarnessError, HeadParams,
                              Model, RunConfig, classify, evaluate_examples,
                              load_config, load_model, make_config,
                              save_config, train)
from beamtree.listops import Example, GenConfig, generate, read_tsv
from beamtree.tensor import Tensor


def _tiny_cfg(**kw):
    base = dict(encoder="gold", d_e=12, d_h=12, dropout=0.0, lr=5e-3,
                batch_size=4, max_epochs=3, seed=0)
    base.update(kw)
    return make_config({k: str(v) for k, v in base.items()})


def _tiny_examples(count=12, seed=0):
    return generate(GenConfig(max_length=20, max_depth=2, min_args=2,
                              max_args=3, count=count, seed=seed))


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a.W": rng.standard_normal((3, 4)).astype(np.float32),
               "b": rng.standard_normal(7).astype(np.float32)}
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, tensors)
    back = load_checkpoint(path)
    assert set(back) == set(tensors)
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# cut points in a file holding one tensor "w" of shape (2, 2): magic (0-3),
# version (4-7), count (8-11), name length (12-15), name (16), rank
# (17-20), extents (21-28), payload (29-44); -1 appends a stray byte
@pytest.mark.parametrize("cut", [2, 6, 10, 14, 17, 19, 22, 27, 30, 42, -1])
def test_checkpoint_rejects_truncation(tmp_path, cut):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    data = path.read_bytes()
    assert len(data) == 45
    path.write_bytes(data + b"\x00" if cut < 0 else data[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(4_000_000_000, 4_000_000_000),
                                   (2**32 - 1,) * 3])
def test_checkpoint_rejects_impossible_extents(tmp_path, shape):
    # the element count would overflow int64, or ask for exabytes; both
    # declare more payload than the file holds
    path = tmp_path / "huge.ckpt"
    header = b"BTCK" + struct.pack("<III", 1, 1, 1) + b"w" + \
        struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(CheckpointError, match=r"tensor w declares shape"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_non_utf8_name(tmp_path):
    path = tmp_path / "name.ckpt"
    path.write_bytes(b"BTCK" + struct.pack("<III", 1, 1, 1) + b"\xff"
                     + struct.pack("<II", 1, 1) + b"\x00" * 4)
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_tensor_named_twice(tmp_path):
    # two records of a one-entry tensor w; the later one must not win
    record = b"w" + struct.pack("<II", 1, 1)
    path = tmp_path / "twice.ckpt"
    path.write_bytes(b"BTCK" + struct.pack("<III", 1, 2, 1) + record
                     + struct.pack("<f", 1.0) + struct.pack("<I", 1) + record
                     + struct.pack("<f", 2.0))
    with pytest.raises(CheckpointError, match="tensor w appears twice"):
        load_checkpoint(path)


def test_checkpoint_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    before = path.read_bytes()
    # the first tensor is written before the second fails to convert
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.zeros(3, dtype=np.float32),
                               "b": np.array(["not a number"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


@pytest.mark.parametrize("saved, target, message", [
    (lambda: {"w": np.ones(3, dtype=np.float32)},
     lambda: {"w": Tensor(np.zeros(4, dtype=np.float32))}, "shape mismatch"),
    (lambda: {"w": np.ones(3, dtype=np.float32)},
     lambda: {"w": Tensor(np.zeros(3, dtype=np.float32)),
              "v": Tensor(np.zeros(3, dtype=np.float32))}, "missing"),
    # a recurrent model's checkpoint holds h0, which a gold model lacks
    (lambda: {k: v.data for k, v in
              Model(_tiny_cfg(encoder="recurrent")).named().items()},
     lambda: Model(_tiny_cfg()).named(), "h0"),
], ids=["shape", "missing", "extra"])
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


def test_config_rejects_unknown_topk(tmp_path):
    with pytest.raises(HarnessError):
        make_config({"topk": "one_soft"})
    with pytest.raises(HarnessError):
        make_config({"encoder": "bt", "beam_size": "1", "topk": "onesoft"})
    cfg = _tiny_cfg()
    cfg.topk = "one_soft"
    with pytest.raises(HarnessError):
        train(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("max_epochs", 0), ("max_epochs", -3), ("dropout", 1.0),
    ("dropout", -0.5), ("lr", -1.0), ("lr", 0.0), ("lr", float("inf")),
    ("d_e", 0), ("d_h", 0), ("beam_size", 0)])
def test_config_rejects_out_of_range_values(tmp_path, key, value):
    with pytest.raises(HarnessError, match=key):
        make_config({key: str(value)})
    cfg = _tiny_cfg()
    setattr(cfg, key, value)
    with pytest.raises(HarnessError, match=key):
        train(cfg, tmp_path / "run", _tiny_examples(4), _tiny_examples(2))
    assert not (tmp_path / "run").exists()


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


def test_config_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# comment\n\nencoder=recurrent  # trailing\nd_h=16\n")
    cfg = load_config(path)
    assert cfg.encoder == "recurrent"
    assert cfg.d_h == 16


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

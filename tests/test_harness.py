import json
import sys

import numpy as np
import pytest

from beamtree import tensor as T
from beamtree.checkpoint import (CheckpointError, load_checkpoint, restore,
                                 save_checkpoint)
from beamtree.harness import (HarnessError, HeadParams, Model, classify,
                              evaluate_examples, example_loss, load_config,
                              load_model, make_config, save_config, train)
from beamtree.listops import Example, GenConfig, generate
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


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_restore_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)})
    target = {"w": Tensor(np.zeros(4, dtype=np.float32))}
    with pytest.raises(CheckpointError):
        restore(target, load_checkpoint(path))


# ---------------------------------------------------------------------------
# config

def test_config_file_round_trip(tmp_path):
    cfg = _tiny_cfg(beam_size=3, topk="onesoft", stochastic_topk=False)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(HarnessError):
        make_config({"no_such_key": "1"})


def test_config_rejects_bad_encoder():
    with pytest.raises(HarnessError):
        make_config({"encoder": "transformer"})


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
    logits = classify(Tensor(np.random.default_rng(1).standard_normal(6)),
                      head)
    assert np.allclose(logits.data, 0.0)
    probs = T.softmax(logits)
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


@pytest.mark.parametrize("encoder", ["recurrent", "gumbel", "bt", "bsrp",
                                     "mc", "gold", "balanced", "random"])
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


def test_train_parallel_matches_serial(tmp_path):
    examples = _tiny_examples(8, seed=3)
    base = dict(encoder="bt", beam_size=2, max_epochs=2)
    serial = _tiny_cfg(workers=1, **base)
    parallel = _tiny_cfg(workers=2, **base)
    out_s, out_p = tmp_path / "s", tmp_path / "p"
    train(serial, out_s, train_examples=examples, dev_examples=examples[:4],
          log=lambda *_: None)
    train(parallel, out_p, train_examples=examples, dev_examples=examples[:4],
          log=lambda *_: None)
    assert (out_s / "metrics.jsonl").read_bytes() == \
        (out_p / "metrics.jsonl").read_bytes()
    assert (out_s / "best.ckpt").read_bytes() == \
        (out_p / "best.ckpt").read_bytes()


def test_train_parallel_reports_missing_threadpoolctl_once(tmp_path,
                                                          monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    messages = []
    train(_tiny_cfg(workers=2, max_epochs=1), tmp_path / "run",
          train_examples=_tiny_examples(8, seed=3),
          dev_examples=_tiny_examples(4, seed=4), log=messages.append)
    assert sum("threadpoolctl" in m for m in messages) == 1


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
                            "dev_loss"}
    assert "wall_seconds" in (out / "timing.log").read_text()


def test_evaluate_examples_counts_argmax(tmp_path):
    cfg = _tiny_cfg()
    model = Model(cfg)
    examples = _tiny_examples(10, seed=5)
    acc, loss = evaluate_examples(model, examples)
    assert 0.0 <= acc <= 1.0
    assert loss > 0.0

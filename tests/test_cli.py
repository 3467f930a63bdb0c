import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beamtree.checkpoint import load_checkpoint, save_checkpoint
from beamtree.cli import main
from beamtree.harness import batch_logits, load_config, load_model
from beamtree.listops import eval_listops, read_example, read_tsv
from beamtree.trees import collapse_duplicates, extract_parses


def test_gen_data_train_eval_parse_pipeline(tmp_path, capsys):
    data = tmp_path / "data"
    main(["gen-data", "--kind", "length_gen", "--out", str(data),
          "--seed", "3", "--train-count", "24", "--dev-count", "8",
          "--test-count", "8", "--train-max-len", "25",
          "--train-max-depth", "3"])
    out = capsys.readouterr().out
    assert "train" in out and "test" in out
    assert len(read_tsv(data / "train.tsv")) == 24

    run = tmp_path / "run"
    main(["train", "--out", str(run), "--seed", "1",
          "--encoder=bt", "--beam_size=2", "--d_e=10", "--d_h=10",
          "--max_epochs=1", "--dropout=0.0",
          f"--data_dir={data}"])
    out = capsys.readouterr().out
    assert "checkpoint:" in out
    ckpt = run / "best.ckpt"
    config = run / "config.txt"
    assert ckpt.exists()

    main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
          "--split", str(data / "dev.tsv")])
    out = capsys.readouterr().out
    assert out.startswith("accuracy:")

    main(["parse", "--config", str(config), "--checkpoint", str(ckpt),
          "--input", "[MAX 2 [MIN 8 3 ] 1 ]"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    total = 0.0
    for line in lines:
        prob, tree = line.split("\t")
        total += float(prob)
        assert tree.count("(") == 7  # n-1 internal nodes for 8 tokens
    assert total == pytest.approx(1.0, abs=0.01)

    # the command prints the collapsed parses of the model's own BeamSet
    cfg = load_config(config)
    model = load_model(cfg, ckpt)
    for text in ("[MAX 2 [MIN 8 3 ] 1 ]",
                 "[SM 1 [MED 4 5 6 ] [MAX 2 [MIN 1 9 ] ] 3 ]", "7"):
        main(["parse", "--config", str(config), "--checkpoint", str(ckpt),
              "--input", text])
        ex = read_example(text, eval_listops(text))
        _, beams = batch_logits(model, [ex], False, None)
        expect = [f"{p.probability:.4f}\t{p.tree}\n" for p in
                  collapse_duplicates(extract_parses(beams[0], text.split()))]
        assert capsys.readouterr().out == "".join(expect), text


@pytest.mark.parametrize("encoder", ["gumbel", "gold"])
def test_parse_refuses_configs_that_are_not_bt(tmp_path, encoder):
    config = tmp_path / "config.txt"
    config.write_text(f"encoder={encoder}\n")
    with pytest.raises(SystemExit, match=repr(encoder)):
        main(["parse", "--config", str(config), "--checkpoint",
              str(tmp_path / "missing.ckpt"), "--input", "[MAX 2 1 ]"])


@pytest.mark.parametrize("text, message", [
    ("", "--input: empty source"),
    ("[MAX 2", "--input: unbalanced brackets"),
    ("[MAX 2 x ]", "--input: unknown token 'x'")])
def test_parse_refuses_a_bad_input(tmp_path, text, message):
    # the input is checked like a row of a split, before the checkpoint
    # is read
    config = tmp_path / "config.txt"
    config.write_text("encoder=bt\n")
    with pytest.raises(SystemExit, match=message) as info:
        main(["parse", "--config", str(config), "--checkpoint",
              str(tmp_path / "missing.ckpt"), "--input", text])
    assert str(info.value).startswith("beamtree parse: ")


@pytest.mark.parametrize("row, message", [
    ("[MAX 1 x ]\t1", "unknown token 'x'"),
    ("[MAX ]\t0", "operator with no arguments")])
def test_train_refuses_a_split_row_before_the_run_dir(tmp_path, row, message):
    data = tmp_path / "data"
    data.mkdir()
    (data / "dev.tsv").write_text("[MAX 2 [MIN 8 3 ] 1 ]\t3\n")
    (data / "train.tsv").write_text(f"[MIN 3 1 ]\t1\n{row}\n")
    with pytest.raises(SystemExit, match=rf"train\.tsv:2: {message}$"):
        main(["train", "--out", str(tmp_path / "run"), "--encoder=gold",
              "--d_e=4", "--d_h=4", "--max_epochs=1", f"--data_dir={data}"])
    assert not (tmp_path / "run").exists()


def test_train_ends_a_diverging_run_with_one_line(tmp_path):
    # lr=1e30 overflows the second step's forward; the command names the
    # step in one `beamtree train:` line instead of printing a traceback
    root = Path(__file__).resolve().parent.parent
    mid = root / "results" / "data-mid"
    data = tmp_path / "data"
    data.mkdir()
    for name, rows in (("train.tsv", 32), ("dev.tsv", 8)):
        lines = (mid / name).read_text().splitlines(keepends=True)[:rows]
        (data / name).write_text("".join(lines))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "beamtree.cli", "train", "--out",
         str(tmp_path / "run"), "--encoder=gold", "--lr=1e30", "--d_e=16",
         "--d_h=16", "--batch_size=8", "--max_epochs=1",
         f"--data_dir={data}"], env=env, capture_output=True, text=True)
    # no numpy warning comes first and no traceback follows
    assert done.returncode == 1
    assert done.stderr == \
        "beamtree train: non-finite forward value at epoch 0 step 1\n"


@pytest.mark.parametrize("command", ["eval", "parse"])
def test_an_overflowing_checkpoint_ends_with_one_line(tmp_path, command):
    # weights scaled by 1e38 stay finite in float32, so the checkpoint loads,
    # but the head's forward overflows
    data = tmp_path / "data"
    data.mkdir()
    for split in ("train", "dev"):
        (data / f"{split}.tsv").write_text("[MAX 2 [MIN 8 3 ] 1 ]\t3\n")
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--encoder=bt", "--beam_size=2",
          "--d_e=4", "--d_h=4", "--max_epochs=1", f"--data_dir={data}"])
    ckpt = run / "best.ckpt"
    weights = load_checkpoint(ckpt)
    for name in ("head.W1", "head.W2"):
        weights[name] = weights[name] * np.float32(1e38)
    save_checkpoint(ckpt, weights)
    args = {"eval": ["--split", str(data / "dev.tsv")],
            "parse": ["--input", "[MAX 2 [MIN 8 3 ] 1 ]"]}[command]
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "beamtree.cli", command, "--config",
         str(run / "config.txt"), "--checkpoint", str(ckpt), *args],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == \
        f"beamtree {command}: non-finite value in forward op\n"


def test_gradcheck_command_passes(capsys):
    main(["gradcheck", "--seed", "1"])
    out = capsys.readouterr().out
    assert "gradcheck passed" in out
    for name in ("grc+scorer", "leaf_transform",
                 "end_to_end_bt_onesoft",
                 "end_to_end_batch_bt_onesoft", "end_to_end_batch_gumbel"):
        assert f"{name}: max rel err" in out


def test_train_rejects_malformed_override(tmp_path):
    with pytest.raises(SystemExit):
        main(["train", "--out", str(tmp_path), "encoder=bt"])


def test_train_refuses_an_override_given_twice(tmp_path):
    with pytest.raises(SystemExit,
                       match="beamtree train: config key 'lr' given twice"):
        main(["train", "--out", str(tmp_path / "run"), "--lr=1", "--lr=2"])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["depth_gen", "lra_style"])
def test_gen_data_refuses_a_retired_split_kind(tmp_path, kind, capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen-data", "--kind", kind, "--out", str(tmp_path / "data")])
    assert info.value.code == 2  # argparse's usage error
    assert f"invalid choice: '{kind}'" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_train_refuses_workers_override(tmp_path):
    # several runs at once is scripts/run_experiments.py --workers
    with pytest.raises(SystemExit, match="unknown config key 'workers'"):
        main(["train", "--out", str(tmp_path), "--workers=2"])


@pytest.mark.parametrize("command, setting, message", [
    ("train", "--max_epochs=0", "max_epochs must be >= 1"),
    ("train", "--bogus=1", "unknown config key 'bogus'"),
    ("train", "--grad_clip=5.0", "unknown config key 'grad_clip'"),
    ("train", "--stochastic_topk=False",
     "unknown config key 'stochastic_topk'"),
    ("eval", "temperature=0.5", "unknown config key 'temperature'"),
    ("eval", "bogus=1", "unknown config key 'bogus'"),
    ("parse", "encoder=transformer", "unknown encoder 'transformer'")])
def test_config_errors_exit_with_one_message(tmp_path, command, setting,
                                             message):
    config = tmp_path / "config.txt"
    config.write_text("" if command == "train" else setting + "\n")
    args = {"train": ["--out", str(tmp_path / "run"), "--config", str(config),
                      setting],
            "eval": ["--config", str(config), "--checkpoint",
                     str(tmp_path / "missing.ckpt"), "--split",
                     str(tmp_path / "missing.tsv")],
            "parse": ["--config", str(config), "--checkpoint",
                      str(tmp_path / "missing.ckpt"), "--input", "[MAX 2 1 ]"]}
    with pytest.raises(SystemExit, match=message):
        main([command, *args[command]])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fault", ["no config", "no checkpoint",
                                   "junk checkpoint", "huge checkpoint",
                                   "non-UTF-8 name", "malformed split",
                                   "empty split"])
def test_file_errors_exit_with_one_message(tmp_path, fault):
    data = tmp_path / "data"
    data.mkdir()
    for split in ("train", "dev"):
        (data / f"{split}.tsv").write_text("[MAX 2 [MIN 8 3 ] 1 ]\t3\n")
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--encoder=gold", "--d_e=4", "--d_h=4",
          "--max_epochs=1", f"--data_dir={data}"])
    config, ckpt, split = run / "config.txt", run / "best.ckpt", data / "dev.tsv"
    if fault == "no config":
        config, message = tmp_path / "nope.txt", "No such file.*nope.txt"
    elif fault == "no checkpoint":
        ckpt, message = tmp_path / "nope.ckpt", "No such file.*nope.ckpt"
    elif fault == "junk checkpoint":
        ckpt.write_bytes(b"junk")
        message = "bad magic bytes"
    elif fault == "huge checkpoint":
        # one tensor declaring (2^32 - 1)^3 elements
        ckpt.write_bytes(b"BTCK" + struct.pack("<III", 1, 1, 1) + b"w"
                         + struct.pack("<4I", 3, *(2**32 - 1,) * 3))
        message = "tensor w declares shape"
    elif fault == "non-UTF-8 name":
        # one (1,) tensor whose one-byte name is 0xff
        ckpt.write_bytes(b"BTCK" + struct.pack("<III", 1, 1, 1) + b"\xff"
                         + struct.pack("<II", 1, 1) + b"\x00" * 4)
        message = r"tensor name b'\\xff' is not UTF-8"
    elif fault == "malformed split":
        split.write_text("[MAX 2 1 ] 2\n")
        message = "dev.tsv:1: "
    else:
        split.write_text("")
        message = "no examples"
    with pytest.raises(SystemExit, match=message) as info:
        main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
              "--split", str(split)])
    assert str(info.value).startswith("beamtree eval: ")


def test_cli_import_loads_no_scipy():
    # the package is numpy-only: a fresh interpreter that imports the CLI
    # (and so every module it reaches) has no scipy module loaded
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, beamtree.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

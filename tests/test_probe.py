"""scripts/probe.py: the output-identity probe and its comparison."""

import importlib.util
import os

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

_spec = importlib.util.spec_from_file_location(
    "probe", os.path.join(ROOT, "scripts", "probe.py"))
P = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(P)


def test_two_probes_in_one_process_give_one_digest():
    first, second = P.probe(), P.probe()
    assert P.digest(first) == P.digest(second)
    assert sorted(first) == sorted(second)
    # 8 variants' losses and gradients; logits, scores and actions of 24
    # rows for each of the 4 evaluated variants
    assert sum(name.endswith("/loss") for name in first) == 8
    assert sum(name.startswith("eval/") for name in first) == 4 * 24 * 3
    assert all(first[f"eval/bt_k5_plain/row{i:02d}/scores"].shape == (5,)
               for i in range(24))


def test_compare_flags_an_array_moved_by_one_ulp(tmp_path, capsys):
    logits = np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)
    moved = logits.copy()
    moved[1, 2] = np.nextafter(moved[1, 2], np.float32(np.inf))
    arrays = {"eval/x/logits": logits, "train/x/loss": np.float64(0.5),
              "eval/x/actions": np.arange(4)}
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **arrays)
    np.savez(b, **{**arrays, "eval/x/logits": moved})
    assert P.main(["--compare", str(a), str(a)]) == 0
    assert "3 of 3 arrays bit-equal" in capsys.readouterr().out
    assert P.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    ulp = float(moved[1, 2]) - float(logits[1, 2])
    assert f"differs eval/x/logits: max |d| {ulp:.3g}, argmax flips 0" \
        in lines
    assert "equal train/x/loss" in lines and "equal eval/x/actions" in lines
    assert lines[-1] == "2 of 3 arrays bit-equal"

"""scripts/run_experiments.py: the results JSON and the run cache.

Every run here is cached, so nothing trains; the data is the committed
reduced-profile split in results/data-mid.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from beamtree.harness import make_config, save_config

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DATA_MID = os.path.abspath(os.path.join(ROOT, "results", "data-mid"))

_spec = importlib.util.spec_from_file_location(
    "run_experiments", os.path.join(ROOT, "scripts", "run_experiments.py"))
R = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(R)


def _cache_run(run_dir, name, seed, dev, test, **changes):
    """A finished run as the reduced profile would leave it."""
    p = R.PROFILES["reduced"]
    overrides, is_beam = R.VARIANTS[name]
    cfg = make_config({
        "d_e": p["d"], "d_h": p["d"], "batch_size": p["batch_size"],
        "max_epochs": p["beam_epochs"] if is_beam else p["cheap_epochs"],
        "patience": p["patience"], "lr": p["lr"], "dropout": p["dropout"],
        "seed": seed, "data_dir": "results/data-mid", "workers": 2,
        **overrides, **changes})
    out = run_dir / f"{name}-s{seed}"
    out.mkdir(parents=True)
    save_config(cfg, out / "config.txt")
    (out / "result.json").write_text(json.dumps(
        {"name": name, "seed": seed, "dev_accuracy": dev,
         "test_accuracy": test, "epochs_run": 1, "wall_seconds": 1.0}))


def _no_training(*args, **kwargs):
    raise AssertionError("a cached run was retrained")


def _main(monkeypatch, tmp_path, *args, data_dir=DATA_MID):
    monkeypatch.setattr(R, "train", _no_training)
    monkeypatch.setattr(sys, "argv", [
        "run_experiments.py", "--profile", "reduced",
        "--out", str(tmp_path / "experiments.json"),
        "--run-dir", str(tmp_path / "runs"), "--data-dir", str(data_dir),
        *args])
    R.main()
    with open(tmp_path / "experiments.json", encoding="utf-8") as f:
        return json.load(f)


def test_only_keeps_medians_of_other_cached_variants(tmp_path, monkeypatch):
    runs = tmp_path / "runs"
    for seed, acc in enumerate((0.5, 0.7, 0.6)):
        _cache_run(runs, "gold_tree", seed, acc, acc - 0.1)
        _cache_run(runs, "bt_k2_plain", seed, acc, acc - 0.2)
    res = _main(monkeypatch, tmp_path, "--only", "bt_k2_plain")
    assert res["medians"]["gold_tree"] == {"dev": 0.6, "test": 0.5,
                                           "n_seeds": 3}
    assert res["medians"]["bt_k2_plain"]["n_seeds"] == 3
    assert len(res["runs"]) == 6


def test_seeds_subset_keeps_other_seeds(tmp_path, monkeypatch):
    for seed in range(3):
        _cache_run(tmp_path / "runs", "recurrent", seed, 0.6, 0.2)
    res = _main(monkeypatch, tmp_path, "--only", "recurrent", "--seeds", "1")
    assert res["medians"]["recurrent"]["n_seeds"] == 3
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_cached_run_with_other_config_is_refused(tmp_path, monkeypatch):
    _cache_run(tmp_path / "runs", "gold_tree", 0, 0.9, 0.8, lr=1e-3)
    with pytest.raises(SystemExit, match="lr=0.001"):
        _main(monkeypatch, tmp_path, "--only", "gold_tree", "--seeds", "0")


def test_cached_run_on_other_data_is_refused(tmp_path, monkeypatch):
    other = tmp_path / "other-data"
    shutil.copytree(DATA_MID, other)
    with open(other / "train.tsv", "a", encoding="utf-8") as f:
        f.write("[MAX 1 2 ]\t2\n")
    _cache_run(tmp_path / "runs", "gold_tree", 0, 0.9, 0.8,
               data_dir=str(other))
    with pytest.raises(SystemExit, match="data_dir"):
        _main(monkeypatch, tmp_path, "--only", "gold_tree", "--seeds", "0")


def test_data_dir_from_other_recipe_is_refused(tmp_path, monkeypatch):
    stale = tmp_path / "stale-data"
    shutil.copytree(DATA_MID, stale)
    meta = (stale / "train.meta").read_text().replace("count=10000",
                                                      "count=2500")
    (stale / "train.meta").write_text(meta)
    with pytest.raises(SystemExit, match="count=2500"):
        _main(monkeypatch, tmp_path, "--only", "gold_tree", "--seeds", "0",
              data_dir=stale)
    assert os.listdir(tmp_path / "runs") == []


def test_reduced_profile_defaults_to_the_data_its_runs_used():
    assert R.DATA_DIRS["reduced"] == "data-mid"
    p = R.PROFILES["reduced"]
    R.ensure_data(DATA_MID, p, 100)
    assert R.run_config("gold_tree", 0, p, DATA_MID, 1).data_dir == \
        "results/data-mid"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# loads the script as the tests above do, then prints the BLAS variables and,
# where the loaded OpenBLAS can be asked, its thread count
_PROBE = """
import ctypes, importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("run_experiments", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
threads = None
try:
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
except OSError:
    libs = set()
for lib in sorted(libs):
    for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads64_"):
        fn = getattr(ctypes.CDLL(lib), name, None)
        if fn is not None:
            threads = fn()
print(json.dumps({"env": {v: os.environ.get(v) for v in sys.argv[2:]},
                  "threads": threads}))
"""


def _probe(**env):
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE,
         os.path.join(ROOT, "scripts", "run_experiments.py"), *BLAS_VARS],
        env={**clean, **env}, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_sweep_pins_one_blas_thread_before_numpy_loads():
    res = _probe()
    assert res["env"] == {v: "1" for v in BLAS_VARS}
    assert res["threads"] in (None, 1)


def test_sweep_keeps_a_blas_thread_count_the_caller_set():
    res = _probe(OPENBLAS_NUM_THREADS="2")
    assert res["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                          "MKL_NUM_THREADS": "1"}

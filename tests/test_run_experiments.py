"""scripts/run_experiments.py: the results JSON, the run cache and
`--workers`.

The cache tests train nothing: every run is cached, and the data is the
committed reduced-profile split in results/data-mid. The `--workers` tests
train gold_tree and recurrent on a tiny profile.
"""

import glob
import hashlib
import importlib.util
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import pytest

from beamtree.harness import make_config, save_config, train

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DATA_MID = os.path.abspath(os.path.join(ROOT, "results", "data-mid"))

_spec = importlib.util.spec_from_file_location(
    "run_experiments", os.path.join(ROOT, "scripts", "run_experiments.py"))
R = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(R)


def _cache_run(run_dir, name, seed, dev, test, **changes):
    """A finished run as the reduced profile would leave it."""
    p = R.PROFILES["reduced"]
    cfg = make_config({
        "d_e": p["d"], "d_h": p["d"], "batch_size": p["batch_size"],
        "max_epochs": p["epochs"], "patience": p["patience"], "lr": p["lr"],
        "dropout": p["dropout"], "seed": seed,
        "data_dir": "results/data-mid", **R.VARIANTS[name], **changes})
    out = run_dir / f"{name}-s{seed}"
    out.mkdir(parents=True)
    save_config(cfg, out / "config.txt")
    (out / "result.json").write_text(json.dumps(
        {"name": name, "seed": seed, "dev_accuracy": dev,
         "test_accuracy": test, "epochs_run": 1, "wall_seconds": 1.0}))


def _no_training(*args, **kwargs):
    raise AssertionError("a cached run was retrained")


def _main(monkeypatch, tmp_path, *args, data_dir=DATA_MID,
          train=_no_training):
    monkeypatch.setattr(R, "train", train)
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


def test_runs_record_the_code_hash_and_stale_runs_are_named(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    runs = tmp_path / "runs"
    code = R.code_sha256()
    for seed, sha in enumerate((code, None, "0" * 64)):
        _cache_run(runs, "gold_tree", seed, 0.6, 0.5)
        if sha is not None:
            path = runs / f"gold_tree-s{seed}" / "result.json"
            path.write_text(json.dumps({**json.loads(path.read_text()),
                                        "code_sha256": sha}))
    res = _main(monkeypatch, tmp_path, "--only", "gold_tree")
    assert [r.get("code_sha256") for r in res["runs"]] == \
        [code, None, "0" * 64]
    stale = [line for line in capsys.readouterr().out.splitlines()
             if "code_sha256" in line]
    assert len(stale) == 1 and stale[0].endswith("gold_tree-s1, gold_tree-s2")
    # the hash covers exactly the package's modules, in sorted order
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "beamtree",
                                              "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    assert code == digest.hexdigest()


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
    R.ensure_data(DATA_MID, p)
    assert R.run_config("gold_tree", 0, p, DATA_MID).data_dir == \
        "results/data-mid"


@pytest.mark.parametrize("profile", sorted(R.PROFILES))
def test_every_variant_trains_to_the_profile_cap(profile):
    # one cap per profile: no variant trains longer or shorter than another
    p = R.PROFILES[profile]
    caps = {name: R.run_config(name, 0, p, DATA_MID).max_epochs
            for name in R.VARIANTS}
    assert len(caps) == 8 and set(caps.values()) == {p["epochs"]}


def test_reduced_profile_regenerates_the_committed_data(tmp_path):
    # today's generator, with the reduced profile and the sweep's data seed,
    # writes the committed split byte for byte
    R.ensure_data(str(tmp_path), R.PROFILES["reduced"])
    names = sorted(os.listdir(DATA_MID))
    assert len(names) == 6  # {train,dev,test}.{tsv,meta}
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(DATA_MID, name), "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read(), name


COMMITTED_RUNS = sorted(
    os.path.basename(d) for d in
    glob.glob(os.path.join(ROOT, "results", "runs-reduced", "*-s*")))


@pytest.mark.parametrize("run", COMMITTED_RUNS)
def test_committed_runs_match_the_reduced_sweep(run):
    # the cache must accept every committed run without retraining
    name, seed = run.rsplit("-s", 1)
    p = R.PROFILES["reduced"]
    R.check_cached(os.path.join(ROOT, "results", "runs-reduced", run),
                   R.run_config(name, int(seed), p, DATA_MID),
                   R.data_sha256(DATA_MID))


def test_all_committed_runs_are_checked():
    assert COMMITTED_RUNS == sorted(f"{name}-s{seed}" for name in R.VARIANTS
                                    for seed in range(3))


def test_committed_results_come_from_one_code_version():
    # the acceptance criteria compare variants, so every run of the reduced
    # sweep must have been trained by the same code. The shared hash is not
    # compared with today's code: an edit under src/ that changes no trained
    # value would otherwise fail this test until the sweep is rerun.
    with open(os.path.join(ROOT, "results", "experiments.json"),
              encoding="utf-8") as f:
        runs = json.load(f)["runs"]
    assert len({r.get("code_sha256") for r in runs}) == 1
    assert runs[0].get("code_sha256")
    assert sorted((r["name"], r["seed"]) for r in runs) == \
        sorted((name, seed) for name in R.VARIANTS for seed in range(3))


# small enough that the four runs of TINY_RUNS train in about a second
TINY = dict(train_count=24, dev_count=6, test_count=6, max_length=12,
            max_depth=2, max_args=3, nest_prob=0.45, d=8, batch_size=8,
            lr=2e-3, dropout=0.05, epochs=2, patience=2)
TINY_RUNS = ("--only", "gold_tree", "recurrent", "--seeds", "0", "1")


def test_workers_train_runs_at_once_into_the_same_files(tmp_path,
                                                        monkeypatch):
    monkeypatch.setitem(R.PROFILES, "reduced", TINY)
    for workers in (1, 2):
        _main(monkeypatch, tmp_path / f"w{workers}", *TINY_RUNS,
              "--workers", str(workers), data_dir=tmp_path / "data",
              train=train)
    for run in ("gold_tree-s0", "gold_tree-s1", "recurrent-s0",
                "recurrent-s1"):
        one, two = (tmp_path / f"w{w}" / "runs" / run for w in (1, 2))
        for name in ("config.txt", "metrics.jsonl", "best.ckpt"):
            assert (one / name).read_bytes() == (two / name).read_bytes()
        res_one, res_two = (json.loads((d / "result.json").read_text())
                            for d in (one, two))
        assert (res_one.pop("workers"), res_two.pop("workers")) == (1, 2)
        del res_one["wall_seconds"], res_two["wall_seconds"]
        assert res_one == res_two
        assert res_one["code_sha256"] == R.code_sha256()


def test_a_source_edit_during_the_sweep_leaves_the_recorded_hash(
        tmp_path, monkeypatch, capsys):
    # the sweep hashes the modules it imported, once: a run that ends after
    # src/ changed on disk records the code that trained it, and is not
    # named stale
    root = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "src", "beamtree"),
                    root / "src" / "beamtree",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (root / "scripts").mkdir()
    shutil.copy(os.path.join(ROOT, "scripts", "run_experiments.py"),
                root / "scripts")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "run_experiments_copy", root / "scripts" / "run_experiments.py")
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    started = copy.code_sha256()
    assert started == R.code_sha256()  # the copy holds this checkout's src/

    def edit_then_train(cfg, *args, **kwargs):
        with open(root / "src" / "beamtree" / "encoders.py", "a",
                  encoding="utf-8") as f:
            f.write("# edited while the sweep runs\n")
        return train(cfg, *args, **kwargs)

    monkeypatch.setitem(copy.PROFILES, "reduced", TINY)
    monkeypatch.setattr(copy, "train", edit_then_train)
    monkeypatch.setattr(sys, "argv", [
        "run_experiments.py", "--profile", "reduced",
        "--out", str(tmp_path / "experiments.json"),
        "--run-dir", str(tmp_path / "runs"),
        "--data-dir", str(tmp_path / "data"),
        "--only", "gold_tree", "--seeds", "0"])
    copy.main()
    assert copy.code_sha256() != started
    result = json.loads(
        (tmp_path / "runs" / "gold_tree-s0" / "result.json").read_text())
    assert result["code_sha256"] == started
    assert "code_sha256" not in capsys.readouterr().out


def test_a_failing_run_stops_the_sweep_naming_it(tmp_path, monkeypatch):
    def train_or_fail(cfg, *args, **kwargs):
        if cfg.encoder == "recurrent" and cfg.seed == 1:
            raise RuntimeError("training failed")
        return train(cfg, *args, **kwargs)

    monkeypatch.setitem(R.PROFILES, "reduced", TINY)
    with pytest.raises(SystemExit, match="recurrent-s1") as exc:
        _main(monkeypatch, tmp_path, *TINY_RUNS, "--workers", "2",
              data_dir=tmp_path / "data", train=train_or_fail)
    assert exc.value.code not in (0, None)
    assert not (tmp_path / "runs" / "recurrent-s1" / "result.json").exists()
    assert not multiprocessing.active_children()


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

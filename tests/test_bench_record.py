"""scripts/bench_record.py on synthetic run records."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
B = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(B)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "blas_threads": 1}


def _record(directory, workload, seed, trace, ex_per_s, correct=True,
            failed=0, rss=70.0, **env):
    data = {"test.tsv": "ab"} if workload == "eval-long" \
        else {"train.tsv": "cd", "dev.tsv": "ef"}
    rec = {"workload": workload, "seed": seed, "trace": trace,
           "correct": correct, "attempted": 10, "failed": failed,
           "environment": {**ENV, "loadavg_start": [0.5, 0.5, 0.5],
                           "cpu_wall_ratio": 0.98, "data_sha256": data,
                           **env},
           "end_to_end": {"ex_per_s": ex_per_s, "peak_rss_mb": rss},
           "end_to_end_raw": {"ex_per_s": ex_per_s * 0.9,
                              "peak_rss_mb": rss},
           "metrics": {"tensor.tape_records_per_ex": 300.0,
                       "tensor.tape_records_per_ex.bt_k3": 0.0,
                       "tensor.tape_records_per_ex.bt_k5_plain": 280.0 + seed,
                       "cells.composed_rows_per_ex": 46.0,
                       "topk.kept_ratio": 0.36,
                       "tensor.backward_ms_per_ex": 6.5}}
    path = directory / f"result-{workload}-s{seed}-trace{trace}.json"
    path.write_text(json.dumps(rec))


def test_fold_medians_traced_counts_and_environment(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, rate in ((1, 50.0), (2, 60.0), (3, 58.0)):
        _record(parent, "train-latent", seed, 0, rate)
        _record(change, "train-latent", seed, 0, rate + 10)
    _record(parent, "train-latent", 12, 1, 1.0)
    _record(change, "train-latent", 12, 1, 1.0)
    _record(change, "eval-long", 1, 0, 20.0)
    out = tmp_path / "BENCH.json"
    B.main(["--parent", str(parent), "--change", str(change),
            "--out", str(out)])
    bench = json.loads(out.read_text())

    assert bench["environment"] == {
        **ENV, "data_sha256": {"train.tsv": "cd", "dev.tsv": "ef",
                               "test.tsv": "ab"}}
    assert len(bench["runs"]) == 9
    assert {r["side"] for r in bench["runs"]} == {"parent", "change"}
    assert bench["runs"][0]["environment"]["cpu_wall_ratio"] == 0.98
    # traced runs stay out of the medians
    assert bench["medians"]["train-latent"]["parent"]["ex_per_s"] == 58.0
    assert bench["medians"]["train-latent"]["change"]["ex_per_s"] == 68.0
    traced = bench["traced"]["train-latent-s12"]["change"]
    assert traced == {"tensor.tape_records_per_ex": 300.0,
                      "tensor.tape_records_per_ex.bt_k5_plain": 292.0,
                      "cells.composed_rows_per_ex": 46.0,
                      "topk.kept_ratio": 0.36}


@pytest.mark.parametrize("env,match", [({"numpy": "1.26.0"}, "environment"),
                                       ({"data_sha256": {"test.tsv": "00"}},
                                        "test.tsv")])
def test_fold_refuses_mixed_environments(tmp_path, env, match):
    _record(tmp_path, "eval-long", 1, 0, 20.0)
    _record(tmp_path, "eval-long", 2, 0, 20.0, **env)
    with pytest.raises(B.RecordError, match=match):
        B.fold({"parent": B.read_records(tmp_path)})


def test_read_records_refuses_an_empty_directory(tmp_path):
    with pytest.raises(B.RecordError):
        B.read_records(tmp_path)


@pytest.mark.parametrize("outcome", [{"correct": False},
                                     {"failed": 2},
                                     {"correct": False, "failed": 1}])
def test_fold_refuses_a_run_that_failed_its_checks(tmp_path, outcome):
    _record(tmp_path, "train-fixed", 1, 0, 20.0)
    _record(tmp_path, "train-fixed", 7, 0, 20.0, **outcome)
    with pytest.raises(B.RecordError, match="change train-fixed seed 7"):
        B.fold({"change": B.read_records(tmp_path)})


def _fold_pairs(tmp_path, change_rate, change_rss):
    """BENCH output of ten untraced seed pairs on train-latent: the parent
    runs 51 to 60 examples/s at 70 MB; `change_rate(seed, parent_rate)`
    and `change_rss` give the change's runs."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(parents=True)
    change.mkdir()
    for seed in range(1, 11):
        _record(parent, "train-latent", seed, 0, 50.0 + seed)
        _record(change, "train-latent", seed, 0,
                change_rate(seed, 50.0 + seed), rss=change_rss)
    _record(parent, "train-latent", 25, 1, 1.0)  # traced: in no pair
    _record(change, "train-latent", 25, 1, 1.0)
    out = tmp_path / "BENCH.json"
    B.main(["--parent", str(parent), "--change", str(change),
            "--out", str(out)])
    return json.loads(out.read_text())


def test_pairs_show_a_claim_and_a_regression_past_its_bound(tmp_path):
    # 9 of 10 pairs won and a median gain of 5.0 over a parent iqr of 4.5:
    # a claim; 80 MB against 70 MB is 14% worse, past peak_rss_mb's 10%
    bench = _fold_pairs(tmp_path, lambda s, r: r - 1 if s == 10 else r + 6,
                        80.0)
    quartiles = bench["quartiles"]["train-latent"]
    assert quartiles["parent"]["ex_per_s"] == [53.25, 55.5, 57.75]
    assert quartiles["change"]["ex_per_s"] == [59.0, 60.5, 62.75]
    assert quartiles["change"]["peak_rss_mb"] == [80.0, 80.0, 80.0]
    assert bench["medians"]["train-latent"]["change"]["ex_per_s"] == 60.5
    pairs = bench["pairs"]["train-latent"]
    # only the end-to-end metrics of BENCHMARK.json the records carry
    assert set(pairs) == {"ex_per_s", "peak_rss_mb"}
    assert pairs["ex_per_s"] == {
        "pairs": 10, "wins": 9, "losses": 1, "ties": 0,
        "ratio": 60.5 / 55.5, "gain": 5.0, "iqr": 4.5, "claim": True,
        "worse_than_bound": False}
    rss = pairs["peak_rss_mb"]
    assert (rss["wins"], rss["losses"], rss["ties"]) == (0, 10, 0)
    assert rss["gain"] == -10.0 and rss["iqr"] == 0.0
    assert rss["claim"] is False and rss["worse_than_bound"] is True


def test_pairs_need_nine_wins_and_a_gain_past_the_parent_iqr(tmp_path):
    # 10 of 10 pairs won by 1.0, within the parent's iqr of 4.5: no claim;
    # 76 MB is within peak_rss_mb's 10% of 70 MB
    bench = _fold_pairs(tmp_path, lambda s, r: r + 1, 76.0)
    pairs = bench["pairs"]["train-latent"]
    assert pairs["ex_per_s"]["wins"] == 10 and pairs["ex_per_s"]["gain"] == 1.0
    assert pairs["ex_per_s"]["claim"] is False
    assert pairs["peak_rss_mb"]["worse_than_bound"] is False
    # 8 of 10 pairs won by a gain past the iqr: still no claim
    bench = _fold_pairs(tmp_path / "b",
                        lambda s, r: r - 1 if s > 8 else r + 9, 70.0)
    pairs = bench["pairs"]["train-latent"]
    assert (pairs["ex_per_s"]["wins"], pairs["ex_per_s"]["losses"]) == (8, 2)
    assert pairs["ex_per_s"]["gain"] > pairs["ex_per_s"]["iqr"]
    assert pairs["ex_per_s"]["claim"] is False
    assert pairs["peak_rss_mb"]["ties"] == 10

"""The benchmark end to end: each workload of bench/run.py, with no timed
seconds, runs its operations and passes its check against
bench/reference.json (about 5 s for the three).

The runs use a copy of bench/ beside links to this checkout's src/ and
results/, so the records a run leaves in .bench_out/ land in a temporary
directory, not among the records of the repository's own benchmark runs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(os.path.join(ROOT, "bench"), root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("src", "results"):
        os.symlink(os.path.join(ROOT, name), root / name)
    return root


@pytest.mark.parametrize("workload", ["train-latent", "train-fixed",
                                      "eval-long"])
def test_bench_workload_passes_its_reference_check(checkout, workload):
    out = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "0"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    last = json.loads(out.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last
    assert last["attempted"] > 0

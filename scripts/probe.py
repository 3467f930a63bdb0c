#!/usr/bin/env python3
"""Output-identity probe: the bits the package computes on fixed inputs.

At the reduced profile's settings (`scripts/run_experiments.py`, d=64)
with model seed 0 it runs

- training: for each of the 8 sweep variants, one
  `harness.batch_grad_sums` on the first 16 rows of
  `results/data-mid/train.tsv` (epoch 0), keeping the summed loss and
  every parameter's gradient;
- a training step: for each of the 8 variants, one `harness.train` with
  `max_epochs=1` in a temp dir, on those 16 rows (one batch, so one
  clipped Adam step) and the first row of `dev.tsv`, keeping every array
  of the checkpoint it writes and each float of its metrics line;
- evaluation: for gumbel_tree and bt k2/k3/k5 (plain), the first 24 rows
  of `results/data-mid/test.tsv` (48 to 71 tokens), each as a batch of
  one through `harness.batch_logits`: its logits, and the scores and
  actions of the final beams it returns.

It writes every array to one .npz and prints the sha256 of their bytes
(each array's name, dtype, shape and bytes, in name order). Two checkouts
that print the same digest compute the same bits on these inputs, and
only there: a change that moves values elsewhere goes unseen. `--compare`
reads two such files and prints, for each array, `equal` when the bits
agree, or its largest absolute difference and the rows whose argmax
moved (the last axis; for a loss or an int array, the entries that
differ); it exits 1 when any array differs or is missing from one file.

The process uses one BLAS thread unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS is already set: it imports
`run_experiments`, which pins them, before numpy.

Usage:
    python3 scripts/probe.py --out probe.npz
    python3 scripts/probe.py --compare parent.npz change.npz
"""

import argparse
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# first: it pins the BLAS threads before numpy loads
import run_experiments as sweep  # noqa: E402
import numpy as np  # noqa: E402
from beamtree import harness  # noqa: E402
from beamtree.checkpoint import load_checkpoint  # noqa: E402
from beamtree.listops import read_tsv  # noqa: E402

DATA = os.path.join(sweep.REPO_ROOT, "results", "data-mid")
EVAL_VARIANTS = ("gumbel_tree", "bt_k2_plain", "bt_k3_plain", "bt_k5_plain")


def _config(name, seed, **settings):
    return sweep.run_config(name, seed,
                            {**sweep.PROFILES["reduced"], **settings}, DATA)


def probe(train_rows=16, test_rows=24, seed=0) -> dict:
    """The probe's arrays by name."""
    arrays = {}
    train = read_tsv(os.path.join(DATA, "train.tsv"))[:train_rows]
    dev = read_tsv(os.path.join(DATA, "dev.tsv"))[:1]
    for name in sweep.VARIANTS:
        model = harness.Model(_config(name, seed))
        grads, loss = harness.batch_grad_sums(model, list(enumerate(train)),
                                              0)
        arrays[f"train/{name}/loss"] = np.float64(loss)
        for param, g in zip(model.named(), grads):
            arrays[f"train/{name}/grad/{param}"] = g.copy()
        with tempfile.TemporaryDirectory() as out:
            ckpt, (line,) = harness.train(_config(name, seed, epochs=1), out,
                                          train, dev, log=lambda *_: None)
            for param, a in load_checkpoint(ckpt).items():
                arrays[f"step/{name}/ckpt/{param}"] = a
        for key, value in line.items():
            if isinstance(value, float):
                arrays[f"step/{name}/metrics/{key}"] = np.float64(value)
    test = read_tsv(os.path.join(DATA, "test.tsv"))[:test_rows]
    for name in EVAL_VARIANTS:
        model = harness.Model(_config(name, seed))
        for i, ex in enumerate(test):
            logits, beams = harness.batch_logits(model, [ex], False, None)
            key = f"eval/{name}/row{i:02d}"
            arrays[f"{key}/logits"] = logits.data[0]
            arrays[f"{key}/scores"] = beams[0].scores.data
            arrays[f"{key}/actions"] = np.array(beams[0].actions)
    return arrays


def digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def compare(a: dict, b: dict) -> list:
    """One line per array of either file; the first word is `equal` for
    every array whose bits agree."""
    lines = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            lines.append(f"missing {name}: only in "
                         f"{'the first' if name in a else 'the second'} file")
            continue
        x, y = np.asarray(a[name]), np.asarray(b[name])
        if x.dtype == y.dtype and x.shape == y.shape and \
                x.tobytes() == y.tobytes():
            lines.append(f"equal {name}")
        elif x.shape != y.shape:
            lines.append(f"differs {name}: shape {x.shape} vs {y.shape}")
        elif x.dtype.kind != "f" or x.ndim == 0:
            lines.append(f"differs {name}: {int(np.sum(x != y))} of "
                         f"{x.size} entries, max |d| "
                         f"{np.max(np.abs(x.astype(float) - y)):.3g}")
        else:
            flips = int(np.sum(x.argmax(-1) != y.argmax(-1)))
            lines.append(f"differs {name}: max |d| "
                         f"{np.max(np.abs(x.astype(float) - y)):.3g}, "
                         f"argmax flips {flips}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the probe's arrays here (.npz)")
    group.add_argument("--compare", nargs=2, metavar="NPZ")
    args = ap.parse_args(argv)
    if args.compare:
        files = [dict(np.load(path)) for path in args.compare]
        lines = compare(*files)
        print("\n".join(lines))
        same = sum(line.startswith("equal ") for line in lines)
        print(f"{same} of {len(lines)} arrays bit-equal")
        return 0 if same == len(lines) else 1
    arrays = probe()
    np.savez(args.out, **arrays)
    print(f"{len(arrays)} arrays, sha256 {digest(arrays)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""beamtree benchmark: one workload per run, through the package's public
entry points `harness.train` and `harness.evaluate_examples`.

    python3 bench/run.py --workload train-latent --seed 1 --seconds 25 --trace 0

A run sets the package up several times (import, data read, configs,
models) and reports the median as `setup_s`. It then runs every operation
once, untimed, on the reference seed's inputs and checks the results
against bench/reference.json. After that it times operations on the
requested seed's inputs for `--seconds` seconds, one caller in a closed loop.
With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced passes over the operations and reports the
per-layer metrics, the tracing overhead and the unattributed share.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` (operations: train() calls or eval examples) and `metrics`. The
exit code is 0 only when every check passed. A record of the run, with its
environment, goes to .bench_out/ in the repository root.
"""

import os

# Pin BLAS threads before numpy loads; the value is recorded with each run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 9
OUT = wl.ROOT / ".bench_out"
CAL_ITERS = 50
# median time of the Speed kernel on the reference machine (2-core Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread)
CAL_REFERENCE_S = 0.02

E2E_UNITS = {"setup_s": "s", "ex_per_s": "1/s", "ms_per_ex_p50": "ms",
             "ms_per_ex_p90": "ms", "peak_rss_mb": "MB"}


def set_up(workload, seed, work_dir):
    """Import the package, read the data, build configs and eval models.
    Returns the package, the operations, and the set-up and data-read times
    in seconds."""
    t0 = time.perf_counter()
    modules = wl.import_package(wl.ROOT / "src")
    t1 = time.perf_counter()
    splits = wl.read_splits(workload, modules["listops"])
    t2 = time.perf_counter()
    package = wl.Package(modules, splits)
    ops = wl.make_ops(workload, package, seed, work_dir)
    return package, ops, time.perf_counter() - t0, t2 - t1


class Speed:
    """Machine speed, from a fixed numpy kernel run between operations.

    The machine's speed drifts in phases of seconds (other tenants, clock
    changes), which moves every timing by up to a third. Each operation is
    timed between two runs of the kernel, and its wall time is scaled by
    CAL_REFERENCE_S over their mean, giving seconds at the reference speed.
    The kernel mixes a small forward-and-backward loop in the style of the
    package's tape (tiny matmuls, elementwise ops, closures) with a larger
    matmul. It does not touch the package, so no change to the package
    moves it. Raw wall times are kept as well."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._xs = [rng.random((n, 128), dtype=np.float32)
                    for n in (1, 3, 7, 12, 20)]
        self._w = rng.random((128, 64), dtype=np.float32)
        self._a = rng.random((8, 128), dtype=np.float32)
        self._b = rng.random((128, 256), dtype=np.float32)
        self.samples = []
        self.sample()

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(CAL_ITERS):
            tape = []
            for x in self._xs:
                h = np.tanh(x @ self._w)
                n = (h - h.mean(axis=-1, keepdims=True)) / \
                    np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
                tape.append(lambda g, h=h: g * (1.0 - h * h))
            for vjp in reversed(tape):
                vjp(n[:1]) @ self._w.T
            for _ in range(10):
                float(np.tanh(self._a @ self._b).sum())
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self) -> float:
        """Factor to reference speed for the interval since the last sample."""
        before = self.samples[-1]
        return CAL_REFERENCE_S / (0.5 * (before + self.sample()))


class Timings:
    """Scaled and raw wall time of every run of each operation, and its
    first result."""

    def __init__(self, ops, speed):
        self.ops = ops
        self.speed = speed
        self.walls = [[] for _ in ops]
        self.raw = [[] for _ in ops]
        self.results = [None] * len(ops)

    def run(self, j, checker, tracer=None):
        op = self.ops[j]
        if tracer is not None:
            tracer.begin_op(op.variant)
        t0 = time.perf_counter()
        result = checker.run(op, j)
        wall = time.perf_counter() - t0
        self.raw[j].append(wall)
        self.walls[j].append(wall * self.speed.scale())
        if self.results[j] is None:
            self.results[j] = result

    def run_pass(self, checker, tracer=None):
        for j in range(len(self.ops)):
            self.run(j, checker, tracer)

    def pass_seconds(self, walls=None) -> float:
        """One pass over the operations, from each one's median time."""
        return sum(statistics.median(w) for w in walls or self.walls)

    def total_raw_seconds(self) -> float:
        return sum(sum(w) for w in self.raw)

    def per_example_ms(self, walls=None) -> list:
        """Each operation's median time per example: one pass's latencies."""
        return [1000.0 * statistics.median(ws) / op.examples
                for op, ws in zip(self.ops, walls or self.walls)]


def measure(ops, checker, seconds, speed):
    """Closed loop over the operations in order for `seconds`, completing at
    least one pass."""
    timings = Timings(ops, speed)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        timings.run(i % len(ops), checker)
        i += 1
    return timings


def measure_traced(ops, checker, seconds, speed, tracer):
    """Alternate untraced and traced passes for `seconds`, at least one
    each; whole passes keep the per-example counts exact."""
    plain, traced = Timings(ops, speed), Timings(ops, speed)
    deadline = time.perf_counter() + seconds
    while not traced.walls[0] or time.perf_counter() < deadline:
        plain.run_pass(checker)
        tracer.install()
        try:
            traced.run_pass(checker, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def end_to_end(timings, setup_s, raw=False) -> dict:
    """End-to-end metrics, at the reference speed unless `raw`."""
    walls = timings.raw if raw else timings.walls
    per_ex = timings.per_example_ms(walls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "ex_per_s": sum(op.examples for op in timings.ops)
        / timings.pass_seconds(walls),
        "ms_per_ex_p50": float(np.percentile(per_ex, 50)),
        "ms_per_ex_p90": float(np.percentile(per_ex, 90)),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    try:
        digests = wl.check_data(workload)
    except wl.DataMismatch as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    env = environment()
    env["data_sha256"] = digests
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    speed = Speed()
    try:
        setup_times, raw_setup, read_times = [], [], []
        for _ in range(SETUP_REPS):
            package = ops = None
            gc.collect()  # so no set-up pays for collecting an earlier one
            package, ops, seconds, read_s = set_up(workload, args.seed,
                                                   work_dir)
            factor = speed.scale()
            raw_setup.append(seconds)
            setup_times.append(seconds * factor)
            read_times.append(read_s * factor)
        setup_s = statistics.median(setup_times)
        read_ms = 1000.0 * statistics.median(read_times)

        checker = wl.Checker()
        harness = package.modules["harness"]
        ref_ops = wl.make_ops(workload, package, wl.REFERENCE_SEED, work_dir)
        observed = wl.reference_pass(workload, ref_ops, checker, harness)
        wl.compare_reference(observed, wl.load_reference(workload), checker)

        wall0, cpu0 = time.perf_counter(), time.process_time()
        if args.trace:
            tracer = spans.Tracer(package.modules)
            timings, traced = measure_traced(ops, checker, args.seconds,
                                             speed, tracer)
        else:
            timings = measure(ops, checker, args.seconds, speed)
        env["cpu_wall_ratio"] = (time.process_time() - cpu0) / \
            (time.perf_counter() - wall0)
        env["loadavg_end"] = os.getloadavg()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["speed_kernel_s"] = {
        "median": statistics.median(speed.samples),
        "min": min(speed.samples), "max": max(speed.samples),
        "samples": len(speed.samples)}

    e2e = end_to_end(timings, setup_s)
    e2e_raw = end_to_end(timings, statistics.median(raw_setup), raw=True)
    if args.trace:
        overhead = 100.0 * (traced.pass_seconds() / timings.pass_seconds() - 1)
        raw_s = traced.total_raw_seconds()
        metrics = tracer.per_layer(
            raw_s, overhead, read_ms,
            scale=sum(sum(w) for w in traced.walls) / raw_s)
        units = spans.LAYER_UNITS
        tracer.write(OUT / f"spans-{workload.name}.jsonl.gz", wall0)
    else:
        metrics, units = e2e, E2E_UNITS
    results = [r for r in timings.results if r is not None]
    loss = wl.summary_loss(workload, results) if results else float("nan")

    correct = checker.failed == 0
    samples = sum(len(w) for w in timings.walls)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "correct": correct,
              "attempted": checker.attempted, "failed": checker.failed,
              "errors": checker.errors, "end_to_end": e2e,
              "end_to_end_raw": e2e_raw, "loss": loss,
              "operations": [
                  {"key": op.key, "examples": op.examples, "runs": len(w),
                   "median_s": statistics.median(w),
                   "raw_median_s": statistics.median(r)}
                  for op, w, r in zip(ops, timings.walls, timings.raw)],
              "metrics": metrics}
    with open(OUT / f"result-{workload.name}-s{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for message in checker.errors:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# environment: " + json.dumps(env))
    print(f"# failed_ratio = {checker.failed}/{checker.attempted} operations"
          f" = {checker.failed / max(checker.attempted, 1):.6g}")
    what = "mean final train_loss over variants" if workload.kind == "train" \
        else "mean eval cross-entropy"
    print(f"# loss = {loss:.6g} nat ({what}; checked, not bounded)")
    print(f"# latency percentiles over {len(ops)} operations, each the "
          f"median of its runs ({samples} runs); times are at the reference "
          f"speed, raw: " + " ".join(
              f"{k}={v:.6g}{E2E_UNITS[k]}" for k, v in e2e_raw.items()))
    if args.trace:
        print("# untraced in this run: " + " ".join(
            f"{k}={v:.6g}{E2E_UNITS[k]}" for k, v in e2e.items()))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

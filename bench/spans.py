"""Tracing for the beamtree benchmark, done from outside the package.

`Tracer.install` replaces each traced function by a wrapper at the name its
caller looks it up under at call time (for example `encoders.grc_compose`,
which the encoders call, or the `Tape.backward` class attribute), and
`uninstall` puts the originals back. The wrappers record one span per call
(name, start, end, parent span, operation id, example id, variant) and a
few counts read from the call's arguments or result. Spans stay in memory;
`write` stores them when the run ends and `per_layer` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

# (module, attribute looked up at call time, span name). The span is named
# after the module that defines the function, which is the layer it measures.
TRACED = (
    ("harness", "train", "harness.train"),
    ("harness", "evaluate_examples", "harness.evaluate_examples"),
    ("harness", "forward_logits", "harness.forward_logits"),
    ("harness", "classify", "harness.classify"),
    ("harness", "leaf_transform_seq", "cells.leaf_transform_seq"),
    ("harness", "gold_tree_listops", "trees.gold_tree_listops"),
    ("harness", "encode_recurrent", "encoders.encode_recurrent"),
    ("harness", "encode_fixed_tree", "encoders.encode_fixed_tree"),
    ("harness", "encode_easy_first_gumbel",
     "encoders.encode_easy_first_gumbel"),
    ("harness", "encode_bt_cell", "encoders.encode_bt_cell"),
    ("harness", "clip_grad_norm", "tensor.clip_grad_norm"),
    ("harness", "adam_step", "tensor.adam_step"),
    ("harness", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("Tape", "backward", "tensor.Tape.backward"),
    ("encoders", "grc_compose", "cells.grc_compose"),
    ("encoders", "score", "cells.score"),
    ("encoders", "plain_topk", "topk.plain_topk"),
    ("encoders", "truncate", "topk.truncate"),
    ("encoders", "merge_beams", "topk.merge_beams"),
)

TRAIN_VARIANTS = ("gold_tree", "recurrent", "gumbel_tree", "bt_k2_onesoft",
                  "bt_k2_plain", "bt_k3_onesoft", "bt_k3_plain", "bt_k5_plain")
EVAL_VARIANTS = ("bt_k3", "bt_k5")

# per-layer metric -> unit; every traced run reports all of them, with 0 for
# a layer the workload does not reach. Layer times are in ms per example
# forwarded, per optimizer step, or per call.
_TIMES = ("tensor.backward_ms_per_ex", "tensor.adam_ms_per_step",
          "tensor.clip_ms_per_step", "cells.compose_ms_per_ex",
          "cells.score_ms_per_ex", "cells.leaf_ms_per_ex",
          "encoders.total_ms_per_ex", "encoders.self_ms_per_ex",
          "topk.branch_ms_per_ex", "topk.truncate_ms_per_ex",
          "topk.merge_ms_per_ex", "harness.forward_ms_per_ex",
          "harness.head_ms_per_ex", "harness.step_self_ms",
          "harness.dev_eval_ms", "checkpoint.save_ms", "trees.gold_ms_per_ex")
LAYER_UNITS = {name: "ms" for name in _TIMES}
LAYER_UNITS.update({
    "tensor.tape_records_per_ex": "count",
    "cells.composed_rows_per_ex": "count",
    "topk.kept_ratio": "ratio",
    "checkpoint.bytes": "bytes",
    "listops.read_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
})
for _v in TRAIN_VARIANTS + EVAL_VARIANTS:
    LAYER_UNITS[f"tensor.tape_records_per_ex.{_v}"] = "count"
    LAYER_UNITS[f"cells.composed_rows_per_ex.{_v}"] = "count"
    LAYER_UNITS[f"encoders.total_ms_per_ex.{_v}"] = "ms"

ENCODER_SPANS = {name for _m, _a, name in TRACED
                 if name.startswith("encoders.")}


class Tracer:
    """Spans and counts of the traced calls of one run."""

    def __init__(self, modules: dict):
        """`modules` maps the first field of `TRACED` to the live module or
        class objects of the imported package."""
        self.modules = modules
        self.spans = []  # (name, start, end, parent, op, ex, variant)
        self.counts = defaultdict(int)  # (counter, variant) -> total
        self.op = -1
        self.ex = -1
        self.variant = ""
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, variant: str):
        """Start an operation; its spans share its id. A span's example id
        is the index, within the operation, of the example most recently
        forwarded when the span started; -1 before the first."""
        self.op += 1
        self.ex = -1
        self.variant = variant

    def _count(self, name, args, result):
        v = self.variant
        if name == "tensor.Tape.backward":
            self.counts["tape_records", v] += len(args[0].records)
        elif name == "cells.grc_compose":
            left = args[0].data
            rows = left.shape[0] if left.ndim == 2 else 1
            self.counts["composed_rows", v] += rows
        elif name == "topk.truncate":
            self.counts["beams_pooled", v] += len(args[0])
            self.counts["beams_kept", v] += len(result)
        elif name == "checkpoint.save_checkpoint":
            self.counts["checkpoint_bytes", v] += os.path.getsize(args[0])

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if name == "harness.forward_logits":
                tracer.ex += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            ex = tracer.ex
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op,
                                       ex, tracer.variant)
            tracer._count(name, args, result)
            return result

        return traced

    def install(self):
        for owner_name, attr, name in TRACED:
            owner = self.modules[owner_name]
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path, t0: float):
        """Spans as gzipped JSON lines, times in seconds from `t0`."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write(json.dumps(["name", "start", "end", "parent", "op", "ex",
                                "variant"]) + "\n")
            for name, start, end, parent, op, ex, variant in self.spans:
                f.write(json.dumps([name, round(start - t0, 7),
                                    round(end - t0, 7), parent, op, ex,
                                    variant]) + "\n")

    def per_layer(self, traced_wall_s: float, overhead_pct: float,
                  read_ms: float, scale: float) -> dict:
        """Every metric of `LAYER_UNITS`. `traced_wall_s` is the raw wall
        time of the traced operations as the benchmark timed them, and
        `scale` the factor that brought it to the reference speed; span
        times are scaled by it too."""
        total = defaultdict(float)  # span name -> summed duration, s
        self_time = defaultdict(float)  # span name -> summed self time, s
        calls = defaultdict(int)
        enc_total = defaultdict(float)  # variant -> encoder time
        fwd = defaultdict(int)  # variant -> examples forwarded
        bwd = defaultdict(int)  # variant -> backward passes
        dev_eval = 0.0
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        encoder_children = 0.0
        root_covered = 0.0
        for i, (name, start, end, parent, _op, _ex, variant) in \
                enumerate(self.spans):
            dur = end - start
            total[name] += dur
            self_time[name] += dur - child[i]
            calls[name] += 1
            if parent < 0:
                root_covered += child[i]
            elif name in ENCODER_SPANS:
                enc_total[variant] += dur
                encoder_children += child[i]
            if name == "harness.forward_logits":
                fwd[variant] += 1
            elif name == "tensor.Tape.backward":
                bwd[variant] += 1
            elif name == "harness.evaluate_examples" and parent >= 0:
                dev_eval += dur

        def per(x, n, factor=1.0):
            return x * factor / n if n else 0.0

        def ms(seconds, n):
            return per(seconds, n, 1000.0 * scale)

        n_fwd = sum(fwd.values())
        n_bwd = sum(bwd.values())
        steps = calls["tensor.adam_step"]
        counts = defaultdict(int)
        for (counter, _v), value in self.counts.items():
            counts[counter] += value
        enc_all = sum(total[n] for n in ENCODER_SPANS)
        m = {
            "tensor.backward_ms_per_ex": ms(total["tensor.Tape.backward"], n_bwd),
            "tensor.adam_ms_per_step": ms(total["tensor.adam_step"], steps),
            "tensor.clip_ms_per_step": ms(total["tensor.clip_grad_norm"], steps),
            "cells.compose_ms_per_ex": ms(total["cells.grc_compose"], n_fwd),
            "cells.score_ms_per_ex": ms(total["cells.score"], n_fwd),
            "cells.leaf_ms_per_ex": ms(total["cells.leaf_transform_seq"], n_fwd),
            "encoders.total_ms_per_ex": ms(enc_all, n_fwd),
            "encoders.self_ms_per_ex": ms(enc_all - encoder_children, n_fwd),
            "topk.branch_ms_per_ex": ms(total["topk.plain_topk"], n_fwd),
            "topk.truncate_ms_per_ex": ms(total["topk.truncate"], n_fwd),
            "topk.merge_ms_per_ex": ms(total["topk.merge_beams"], n_fwd),
            "harness.forward_ms_per_ex": ms(total["harness.forward_logits"],
                                            n_fwd),
            "harness.head_ms_per_ex": ms(total["harness.classify"], n_fwd),
            "harness.step_self_ms": ms(self_time["harness.train"], steps),
            "harness.dev_eval_ms": ms(dev_eval, calls["harness.train"]),
            "checkpoint.save_ms": ms(total["checkpoint.save_checkpoint"],
                                     calls["checkpoint.save_checkpoint"]),
            "trees.gold_ms_per_ex": ms(total["trees.gold_tree_listops"], n_fwd),
            "tensor.tape_records_per_ex": per(counts["tape_records"], n_bwd),
            "cells.composed_rows_per_ex": per(counts["composed_rows"], n_fwd),
            "topk.kept_ratio": per(counts["beams_kept"], counts["beams_pooled"]),
            "checkpoint.bytes": per(counts["checkpoint_bytes"],
                                    calls["checkpoint.save_checkpoint"]),
            "listops.read_ms": read_ms,
            "trace.overhead_pct": overhead_pct,
            # wall time of the traced operations that no span below the
            # operation's own root span covers
            "trace.unattributed_pct": per(traced_wall_s - root_covered,
                                          traced_wall_s, 100.0),
        }
        for v in TRAIN_VARIANTS + EVAL_VARIANTS:
            m[f"tensor.tape_records_per_ex.{v}"] = \
                per(self.counts["tape_records", v], bwd[v])
            m[f"cells.composed_rows_per_ex.{v}"] = \
                per(self.counts["composed_rows", v], fwd[v])
            m[f"encoders.total_ms_per_ex.{v}"] = ms(enc_total[v], fwd[v])
        assert set(m) == set(LAYER_UNITS)
        return m

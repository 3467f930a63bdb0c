"""The benchmark's tracer (bench/spans.py) against the package: every
function it wraps must still be looked up under the name it patches, or
its per-layer metrics read 0 without an error."""

import importlib.util
from pathlib import Path

import pytest

from beamtree import encoders, harness
from beamtree.harness import Model, evaluate_examples, make_config
from beamtree.listops import GenConfig, generate
from beamtree.tensor import Tape

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULES = {"harness": harness, "encoders": encoders, "Tape": Tape}


def test_every_traced_attribute_resolves(spans):
    for owner, attr, name in spans.TRACED:
        assert callable(getattr(MODULES[owner], attr, None)), name


def test_tracer_attributes_bt_eval_to_each_layer(spans):
    cfg = make_config({"encoder": "bt", "beam_size": "2", "d_e": "8",
                       "d_h": "8", "dropout": "0.0", "seed": "0"})
    examples = generate(GenConfig(max_length=12, max_depth=2, max_args=3,
                                  count=2, seed=0))
    tracer = spans.Tracer(MODULES)
    tracer.install()
    try:
        tracer.begin_op("bt_k2")
        harness.evaluate_examples(Model(cfg), examples)
    finally:
        tracer.uninstall()
    assert harness.evaluate_examples is evaluate_examples
    names = {span[0] for span in tracer.spans}
    for name in ("harness.evaluate_examples", "encoders.encode_bt_cell",
                 "cells.grc_compose", "cells.score", "topk.plain_topk",
                 "topk.truncate", "topk.merge_beams"):
        assert name in names, name
    assert tracer.counts["composed_rows", "bt_k2"] > 0
    assert tracer.counts["beams_pooled", "bt_k2"] > 0


def test_tracer_counts_the_rows_the_search_composes(spans, monkeypatch):
    # the tracer reads a compose's rows from the first argument of
    # `grc_compose`, one row per pair; in evaluation the search's node
    # table holds the leaves and the composed parents alone
    cfg = make_config({"encoder": "bt", "beam_size": "3", "d_e": "8",
                       "d_h": "8", "dropout": "0.0", "seed": "0"})
    examples = generate(GenConfig(max_length=14, max_depth=2, max_args=4,
                                  count=4, seed=3))
    appended = []
    finish = encoders._BeamBatch.finish

    def counted(search):
        appended.append(search.nodes.size - sum(search.lengths))
        return finish(search)

    monkeypatch.setattr(encoders._BeamBatch, "finish", counted)
    tracer = spans.Tracer(MODULES)
    tracer.install()
    try:
        tracer.begin_op("bt_k3")
        harness.evaluate_examples(Model(cfg), examples)
    finally:
        tracer.uninstall()
    assert len(appended) == len(examples)
    assert tracer.counts["composed_rows", "bt_k3"] == sum(appended) > 0


def test_tracer_counts_truncation_alike_for_plain_and_onesoft(spans):
    # the tracer counts the length of `truncate`'s first argument and of its
    # result; both operators keep k beams of the same pools
    examples = [ex for ex in generate(GenConfig(
        max_length=16, max_depth=2, max_args=4, count=8, seed=1))
        if len(ex.source.split()) >= 6][:3]
    assert examples
    counts = {}
    for topk in ("plain", "onesoft"):
        cfg = make_config({"encoder": "bt", "beam_size": "3", "topk": topk,
                           "d_e": "8", "d_h": "8", "dropout": "0.0",
                           "seed": "0"})
        model = Model(cfg)
        tracer = spans.Tracer(MODULES)
        tracer.install()
        try:
            tracer.begin_op(topk)
            for ex in examples:
                # training without an rng: OneSoft relaxes, nothing is drawn
                harness.forward_logits(model, ex, True, None)
        finally:
            tracer.uninstall()
        counts[topk] = (tracer.counts["beams_pooled", topk],
                        tracer.counts["beams_kept", topk])
    pooled, kept = counts["plain"]
    assert counts["onesoft"] == counts["plain"]
    assert 0 < kept < pooled


def test_tracer_sees_gumbel_composition_in_train(spans, tmp_path):
    # the easy-first encoder runs the beam-tree loop with one beam; its
    # compositions must still be counted under its own span, or the
    # benchmark's gumbel_tree metrics read 0
    cfg = make_config({"encoder": "gumbel", "d_e": "8", "d_h": "8",
                       "dropout": "0.0", "max_epochs": "1",
                       "batch_size": "2", "seed": "0"})
    examples = [ex for ex in generate(GenConfig(
        max_length=12, max_depth=2, max_args=3, count=8, seed=2))
        if len(ex.source.split()) >= 4][:3]
    tracer = spans.Tracer(MODULES)
    tracer.install()
    try:
        tracer.begin_op("gumbel_tree")
        harness.train(cfg, tmp_path / "run", examples[:2], examples[2:],
                      log=lambda *_: None)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "encoders.encode_easy_first_gumbel" in names

    def under_easy_first(i):
        while i >= 0:
            if tracer.spans[i][0] == "encoders.encode_easy_first_gumbel":
                return True
            i = tracer.spans[i][3]
        return False

    assert any(name == "cells.grc_compose" and under_easy_first(i)
               for i, name in enumerate(names))
    metrics = tracer.per_layer(1.0, 0.0, 0.0, 1.0)
    assert metrics["cells.composed_rows_per_ex.gumbel_tree"] > 0
    assert metrics["encoders.total_ms_per_ex.gumbel_tree"] > 0


@pytest.mark.parametrize("encoder,variant,expected", [
    ("gold", "gold_tree", ("trees.gold_tree_listops",
                           "encoders.encode_fixed_tree")),
    ("recurrent", "recurrent", ("encoders.encode_recurrent",)),
])
def test_tracer_sees_the_fixed_tree_encoders_in_train(spans, tmp_path,
                                                      encoder, variant,
                                                      expected):
    # the tracer patches these names on `harness`; a training path that
    # stopped calling them there would read 0 in the benchmark's gold and
    # recurrent metrics without an error
    cfg = make_config({"encoder": encoder, "d_e": "8", "d_h": "8",
                       "dropout": "0.0", "max_epochs": "1",
                       "batch_size": "2", "seed": "0"})
    examples = generate(GenConfig(max_length=12, max_depth=2, max_args=3,
                                  count=3, seed=2))
    tracer = spans.Tracer(MODULES)
    tracer.install()
    try:
        tracer.begin_op(variant)
        harness.train(cfg, tmp_path / "run", examples[:2], examples[2:],
                      log=lambda *_: None)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in expected:
        assert name in names, name
    metrics = tracer.per_layer(1.0, 0.0, 0.0, 1.0)
    assert metrics[f"cells.composed_rows_per_ex.{variant}"] > 0
    assert metrics[f"encoders.total_ms_per_ex.{variant}"] > 0
    if encoder == "gold":
        assert metrics["trees.gold_ms_per_ex"] > 0

import gc
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import stack_machine_eval

from beamtree.cli import main
from beamtree.listops import (VOCAB, GenConfig, ListOpsError,
                              build_splits, eval_listops, generate,
                              gold_tree_listops, parse, read_tsv,
                              split_recipes, tokenize, write_tsv)


def test_eval_basic_ops():
    assert eval_listops("[MAX 2 9 4 ]") == 9
    assert eval_listops("[MIN 2 9 4 ]") == 2
    assert eval_listops("[SM 5 7 ]") == 2
    assert eval_listops("[MED 1 5 9 ]") == 5


def test_eval_nested():
    assert eval_listops("[SM [MAX 1 2 ] [MIN 8 3 ] ]") == 5
    assert eval_listops("[MAX [MAX [MAX 7 ] ] ]") == 7


def test_eval_leaves_no_reference_cycle():
    # a self-referencing parse closure left 6 unreachable objects per call
    gc.collect()
    gc.disable()
    try:
        eval_listops("[SM [MAX 1 2 ] [MIN 8 3 ] ]")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_med_even_arity_sides():
    # an even arity takes the lower middle element
    assert eval_listops("[MED 1 2 3 4 ]") == 2
    assert eval_listops("[MED 4 3 ]") == 3


# every malformed source is refused with one message by every entry point:
# the one parse names the first fault it meets
MALFORMED = [
    ("", "empty source"),
    ("[FOO 2 ]", "unknown token '[FOO'"),
    ("[MAX x ]", "unknown token 'x'"),
    ("[MAX 12 ]", "unknown token '12'"),
    ("[MAX ]", "operator with no arguments"),
    ("[SM 1 [MIN ] ]", "operator with no arguments"),
    ("]", "unbalanced brackets"),
    ("[MAX 1 2", "unbalanced brackets"),
    ("[MAX 1 [MIN 2 ]", "unbalanced brackets"),
    ("[MAX 2 ] 3", "tokens after the top-level expression"),
    ("[MAX 2 ] ]", "tokens after the top-level expression"),
    ("4 ]", "tokens after the top-level expression"),
    ("3 4", "tokens after the top-level expression"),
]


@pytest.mark.parametrize("source, message", MALFORMED,
                         ids=[repr(s) for s, _ in MALFORMED])
def test_every_entry_point_refuses_a_malformed_source_alike(tmp_path, source,
                                                             message):
    message = re.escape(message)
    with pytest.raises(ListOpsError, match=f"^{message}$"):
        eval_listops(source)
    with pytest.raises(ListOpsError, match=f"^{message}$"):
        gold_tree_listops(source.split())
    path = tmp_path / "x.tsv"
    path.write_text(f"[MIN 3 1 ]\t1\n{source}\t1\n")
    with pytest.raises(ListOpsError, match=f"^{re.escape(str(path))}:2: "
                       f"{message}$"):
        read_tsv(path)
    config = tmp_path / "config.txt"
    config.write_text("encoder=bt\n")
    with pytest.raises(SystemExit,
                       match=f"^beamtree parse: --input: {message}$"):
        main(["parse", "--config", str(config), "--checkpoint",
              str(tmp_path / "missing.ckpt"), "--input", source])


def test_interpreters_agree_on_generated_corpus():
    cfg = GenConfig(max_length=60, max_depth=5, max_args=5,
                    count=300, seed=42)
    for ex in generate(cfg):
        assert ex.label == stack_machine_eval(ex.source)
        assert 0 <= ex.label <= 9


_digits = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8)


@given(_digits)
def test_metamorphic_max_min_med_sm(args):
    body = " ".join(map(str, args))
    assert eval_listops(f"[MAX {body} ]") == max(args)
    assert eval_listops(f"[MIN {body} ]") == min(args)
    assert eval_listops(f"[SM {body} ]") == sum(args) % 10
    assert eval_listops(f"[MED {body} ]") == sorted(args)[(len(args) - 1) // 2]


@given(_digits, st.randoms(use_true_random=False))
def test_metamorphic_permutation_invariance(args, rnd):
    shuffled = list(args)
    rnd.shuffle(shuffled)
    for op in ("MAX", "MIN", "MED", "SM"):
        a = eval_listops(f"[{op} {' '.join(map(str, args))} ]")
        b = eval_listops(f"[{op} {' '.join(map(str, shuffled))} ]")
        assert a == b


@given(st.integers(min_value=0, max_value=9))
def test_metamorphic_singleton_identity(d):
    for op in ("MAX", "MIN", "MED"):
        assert eval_listops(f"[{op} {d} ]") == d


def test_vocab_size_and_round_trip():
    assert len(VOCAB) == 15
    src = "[SM 1 [MIN 4 5 ] 2 ]"
    assert " ".join(VOCAB[i] for i in tokenize(src)) == src


def test_tokenize_rejects_unknown():
    with pytest.raises(ListOpsError):
        tokenize("[MAX 10 ]")


def test_measurements():
    value, actions, depth, counts = parse("[SM 1 [MIN 4 5 ] 2 ]".split())
    assert (value, actions) == (7, [0, 1, 1, 1, 0, 0, 0])
    assert depth == 2
    assert counts == [2, 3]  # MIN closes first; SM has args 1, [MIN..], 2


def test_generate_deterministic_and_bounded():
    cfg = GenConfig(max_length=40, max_depth=4, max_args=3,
                    count=50, seed=7)
    a = generate(cfg)
    b = generate(cfg)
    assert [x.source for x in a] == [x.source for x in b]
    assert len({x.source for x in a}) == 50
    for ex in a:
        assert ex.length <= 40
        assert ex.depth <= 4
        assert 1 <= ex.max_args <= 3


def test_generate_respects_exclude():
    cfg = GenConfig(max_length=40, count=20, seed=7)
    first = generate(cfg)
    second = generate(cfg, exclude={x.source for x in first})
    assert not ({x.source for x in first} & {x.source for x in second})


def test_tsv_round_trip(tmp_path):
    cfg = GenConfig(max_length=30, count=10, seed=3)
    examples = generate(cfg)
    path = tmp_path / "x.tsv"
    write_tsv(path, examples)
    back = read_tsv(path)
    assert [(e.source, e.label) for e in back] == \
        [(e.source, e.label) for e in examples]


@pytest.mark.parametrize("row, message", [
    ("[MAX 2 9 ] 9", "expected source<TAB>integer label"),
    ("[MAX 2 9 ]\t9\t1", "expected source<TAB>integer label"),
    ("[MAX 2 9 ]\tnine", "expected source<TAB>integer label"),
    ("[MAX 2 9 ]\t", "expected source<TAB>integer label"),
    ("[MAX 1 ] 2\t2", "tokens after the top-level expression$"),
    ("3 4\t3", "tokens after the top-level expression$"),
    ("] 3\t3", "unbalanced brackets$"),
    ("[MAX 1 [MIN 2 ]\t1", "unbalanced brackets$"),
    ("\t3", "empty source$"),
    ("[MAX 2 9 ]\t-1", "label -1 is not a digit 0-9$"),
    ("[MAX 2 9 ]\t10", "label 10 is not a digit 0-9$"),
    ("[MAX 1 x ]\t1", "unknown token 'x'$"),
    ("[MAX 12 ]\t1", "unknown token '12'$"),
    ("[MAX ]\t0", "operator with no arguments$"),
    ("[SM 1 [MIN ] ]\t1", "operator with no arguments$"),
    ("[MAX 2 9 ]\t2", "label 2 is not the expression's value 9$")],
    ids=["no-tab", "two-tabs", "word-label", "empty-label", "trailing-digit",
         "two-digits", "stray-close", "unclosed", "empty-source",
         "label-minus-1", "label-10", "unknown-token", "two-digit-token",
         "empty-operator", "empty-inner-operator", "label-not-value"])
def test_read_tsv_names_file_and_line_of_a_malformed_row(tmp_path, row,
                                                         message):
    path = tmp_path / "x.tsv"
    path.write_text("[MIN 3 1 ]\t1\n\n" + row + "\n")
    with pytest.raises(ListOpsError, match=rf"x\.tsv:3: {message}"):
        read_tsv(path)


def test_read_tsv_accepts_a_one_digit_source(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("3\t3\n[SM 1 [MIN 4 5 ] 2 ]\t7\n")
    one, nested = read_tsv(path)
    assert eval_listops(one.source) == one.label
    assert (one.length, one.depth, one.max_args) == (1, 0, 0)
    assert (nested.length, nested.depth, nested.max_args) == (8, 2, 3)


def test_build_splits_length_gen_certified(tmp_path):
    train_cfg = GenConfig(max_length=30, max_depth=3, max_args=3)
    splits = build_splits(tmp_path, split_recipes(
        "length_gen", train_cfg, seed=5, train_count=40, dev_count=10,
        test_count=10))
    data = {name: read_tsv(path) for name, path in splits.items()}
    sources = {name: {e.source for e in exs} for name, exs in data.items()}
    assert not (sources["train"] & sources["test"])
    assert not (sources["train"] & sources["dev"])
    assert not (sources["dev"] & sources["test"])
    assert max(e.length for e in data["train"]) <= 30
    assert min(e.length for e in data["test"]) > 30
    for exs in data.values():
        for e in exs:
            assert e.label == stack_machine_eval(e.source)
    assert (tmp_path / "train.meta").exists()


def test_build_splits_arg_gen(tmp_path):
    train_cfg = GenConfig(max_length=30, max_depth=3, max_args=3)
    splits = build_splits(tmp_path, split_recipes(
        "arg_gen", train_cfg, seed=6, train_count=20, dev_count=5,
        test_count=5))
    test = read_tsv(splits["test"])
    assert all(e.max_args >= 6 for e in test)
    train = read_tsv(splits["train"])
    assert all(e.max_args <= 3 for e in train)


@pytest.mark.parametrize("kind", ["depth_gen", "lra_style"])
def test_build_splits_refuses_a_retired_kind(tmp_path, kind):
    with pytest.raises(ListOpsError, match=f"unknown split kind '{kind}'"):
        build_splits(tmp_path / "data", split_recipes(
            kind, GenConfig(), seed=0, train_count=1, dev_count=1,
            test_count=1))
    assert not (tmp_path / "data").exists()


def test_generate_refuses_bounds_with_too_few_sources():
    # one operator over two digits: 4 x 10 x 10 = 400 distinct sources.
    # Asking for 401 used to draw repeats forever, so it runs in a child
    # with a timeout
    few = GenConfig(max_length=4, max_depth=1, max_args=2)
    assert len(generate(replace(few, count=400))) == 400
    code = ("from beamtree.listops import GenConfig, ListOpsError, generate\n"
            "try:\n"
            "    generate(GenConfig(max_length=4, max_depth=1, max_args=2,\n"
            "                       count=401))\n"
            "except ListOpsError as e:\n"
            "    print(e)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(
        "found only 400 new distinct sources of 401")


def test_gen_config_validation():
    # a recipe is checked when it is made
    with pytest.raises(ListOpsError, match="count must be >= 1"):
        GenConfig(count=0)
    with pytest.raises(ListOpsError, match="seed must be >= 0"):
        GenConfig(seed=-1)
    with pytest.raises(ListOpsError, match="max_args must be >= 2"):
        GenConfig(max_args=1)
    with pytest.raises(ListOpsError):
        GenConfig(nest_prob=1.5)
    with pytest.raises(ListOpsError):
        GenConfig(max_length=2)
    with pytest.raises(ListOpsError, match="count must be >= 1"):
        replace(GenConfig(), count=0)
    # an arity the generator never draws would spin through every attempt
    for exact in (1, 6):
        with pytest.raises(ListOpsError, match=r"require_exact_args must be "
                           r"in \[2, max_args\]"):
            GenConfig(max_length=30, max_depth=3, max_args=3,
                      require_exact_args=exact)
    # an arity whose smallest expression (operator, that many digits and
    # the close bracket) is longer than max_length is refused before any
    # draw
    with pytest.raises(ListOpsError, match="require_exact_args 5 needs 7 "
                       "tokens, more than max_length 6"):
        GenConfig(max_length=6, max_args=5,
                  require_exact_args=5, count=1)
    GenConfig(max_length=7, max_args=5, require_exact_args=5)

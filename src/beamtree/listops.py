"""ListOps: expression generator, one parse for an expression's value,
gold merge actions, depth and argument counts, tokenizer, and
generalization-split builders (length / argument-count), with the split
recipe of each sweep profile."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

CLASSES = 10  # every value, and so every label, is a digit 0-9
CLOSE = "]"
# the operator each opening token applies; MED of an even arity takes the
# lower middle element
_OPEN = {"[MAX": max, "[MIN": min,
         "[MED": lambda args: sorted(args)[(len(args) - 1) // 2],
         "[SM": lambda args: sum(args) % 10}
VOCAB = [*_OPEN, CLOSE] + [str(d) for d in range(CLASSES)]
TOKEN_TO_ID = {t: i for i, t in enumerate(VOCAB)}
_DIGITS = {str(d): d for d in range(CLASSES)}
# candidates _make_example draws, and repeated sources generate draws in a
# row, before giving up
_MAX_ATTEMPTS = 100_000
MIN_ARGS = 2  # the fewest arguments the generator gives an operator


class ListOpsError(Exception):
    pass


@dataclass(frozen=True)
class GenConfig:
    """A generator recipe, checked once when it is made."""

    max_length: int = 100
    max_depth: int = 6
    max_args: int = 5
    nest_prob: float = 0.4
    count: int = 1000
    seed: int = 0
    min_length: int = 1
    # when set, every emitted sample must contain an operator with exactly
    # this many arguments (used by the argument-generalization split)
    require_exact_args: int | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ListOpsError("count must be >= 1")
        if self.seed < 0:
            raise ListOpsError("seed must be >= 0")
        if self.max_args < MIN_ARGS:
            raise ListOpsError(f"max_args must be >= {MIN_ARGS}")
        if self.max_depth < 1:
            raise ListOpsError("max_depth must be >= 1")
        if not 0.0 <= self.nest_prob <= 1.0:
            raise ListOpsError("nest_prob must be in [0, 1]")
        if self.max_length < MIN_ARGS + 2:
            raise ListOpsError("max_length too small for a minimal expression")
        if self.min_length > self.max_length:
            raise ListOpsError("min_length exceeds max_length")
        exact = self.require_exact_args
        if exact is not None and not MIN_ARGS <= exact <= self.max_args:
            raise ListOpsError(f"require_exact_args must be in "
                               f"[{MIN_ARGS}, max_args]")
        # its smallest expression: the operator, that many digits and ]
        if exact is not None and exact + 2 > self.max_length:
            raise ListOpsError(f"require_exact_args {exact} needs {exact + 2} "
                               f"tokens, more than max_length "
                               f"{self.max_length}")


@dataclass(slots=True)
class Example:
    source: str
    label: int
    length: int
    depth: int
    max_args: int


def tokenize(source: str) -> list:
    ids = []
    for tok in source.split():
        if tok not in TOKEN_TO_ID:
            raise ListOpsError(f"unknown token {tok!r}")
        ids.append(TOKEN_TO_ID[tok])
    return ids


def eval_listops(source: str) -> int:
    """Oracle value: MAX/MIN extrema, MED median (even arity takes the
    lower middle element), SM sum modulo 10."""
    return parse(source.split())[0]


def gold_tree_listops(tokens) -> list:
    """Gold merge actions of a ListOps token sequence, in the form
    `trees.replay_actions` folds: per operator scope, a left-branching
    chain over (operator, args..., close-bracket), with nested scopes
    composed first."""
    return parse(tokens)[1]


def parse(tokens) -> tuple:
    """(value, gold merge actions, maximum operator nesting, argument count
    of every operator) of an expression, in one pass over its tokens; a
    lone digit has depth 0 and no operators. The items of the replay are
    one per open scope, so a token inside d scopes merges into the scope at
    item d - 1. Raises ListOpsError for an empty sequence, a token outside
    the vocabulary, unbalanced brackets, an operator with no arguments or
    tokens after the expression, naming the first fault met."""
    if not tokens:
        raise ListOpsError("empty source")
    stack, actions, counts = [], [], []  # stack: (operator, args) per scope
    depth, value = 0, None
    for tok in tokens:
        if value is not None:
            raise ListOpsError("tokens after the top-level expression")
        op = _OPEN.get(tok)
        if op is not None:
            stack.append((op, []))
            depth = max(depth, len(stack))
            continue
        val = _DIGITS.get(tok)
        if val is None:
            if tok != CLOSE:
                raise ListOpsError(f"unknown token {tok!r}")
            if not stack:
                raise ListOpsError("unbalanced brackets")
            op, args = stack.pop()
            if not args:
                raise ListOpsError("operator with no arguments")
            counts.append(len(args))
            actions.append(len(stack))
            val = op(args)
        if stack:  # a digit, or the scope just closed, is one argument
            stack[-1][1].append(val)
            actions.append(len(stack) - 1)
        else:
            value = val
    if stack:
        raise ListOpsError("unbalanced brackets")
    return value, actions, depth, counts


def read_example(source: str, label: int, parsed=None) -> Example:
    """The Example of one expression and its label, read through `parse`
    (or from `parsed`, its result). Refuses a label that is not the
    expression's value."""
    tokens = source.split()
    value, _actions, depth, counts = parse(tokens) if parsed is None else parsed
    if label != value:
        raise ListOpsError(f"label {label} is not the expression's value "
                           f"{value}")
    return Example(source=source, label=label, length=len(tokens),
                   depth=depth, max_args=max(counts, default=0))


def _gen_operator(rng: np.random.Generator, cfg: GenConfig, depth: int) -> list:
    tokens = [VOCAB[int(rng.integers(0, len(_OPEN)))]]  # an opening token
    arity = int(rng.integers(MIN_ARGS, cfg.max_args + 1))
    p_nest = cfg.nest_prob * max(0.0, 1.0 - depth / cfg.max_depth)
    for _ in range(arity):
        if rng.random() < p_nest:
            tokens.extend(_gen_operator(rng, cfg, depth + 1))
        else:
            tokens.append(str(int(rng.integers(0, 10))))
    tokens.append(CLOSE)
    return tokens


def _make_example(rng: np.random.Generator, cfg: GenConfig) -> Example:
    for _ in range(_MAX_ATTEMPTS):
        tokens = _gen_operator(rng, cfg, depth=1)
        if not (cfg.min_length <= len(tokens) <= cfg.max_length):
            continue
        parsed = parse(tokens)
        value, _actions, _depth, counts = parsed
        if cfg.require_exact_args is not None and \
                cfg.require_exact_args not in counts:
            continue
        return read_example(" ".join(tokens), value, parsed)
    raise ListOpsError("could not satisfy generation bounds; config may be "
                       "unsatisfiable or too tight")


def generate(cfg: GenConfig, exclude: set | None = None) -> list:
    """Draw `cfg.count` examples within the configured bounds; deterministic
    under `cfg.seed`. Sources in `exclude` (and duplicates) are resampled;
    `_MAX_ATTEMPTS` resamples in a row mean the bounds hold too few distinct
    sources, and raise ListOpsError."""
    seen = set() if exclude is None else set(exclude)
    out = []
    stream = 0
    repeats = 0
    while len(out) < cfg.count:
        rng = np.random.default_rng([cfg.seed, stream])
        stream += 1
        ex = _make_example(rng, cfg)
        if ex.source in seen:
            repeats += 1
            if repeats == _MAX_ATTEMPTS:
                raise ListOpsError(
                    f"found only {len(out)} new distinct sources of "
                    f"{cfg.count} within the bounds: {_MAX_ATTEMPTS} draws "
                    f"in a row repeated one")
            continue
        repeats = 0
        seen.add(ex.source)
        out.append(ex)
    return out


def write_tsv(path, examples):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(f"{ex.source}\t{ex.label}\n")


def read_tsv(path) -> list:
    """Examples of a `source<TAB>label` file; blank lines are skipped. Every
    row is read through `parse`, so its tokens, brackets and argument lists
    are checked, and its label must be the expression's value."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                source, label = line.split("\t")
                label = int(label)
            except ValueError:
                raise ListOpsError(f"{path}:{lineno}: expected source<TAB>"
                                   f"integer label, got {line!r}") from None
            if not 0 <= label < CLASSES:
                raise ListOpsError(f"{path}:{lineno}: label {label} is not "
                                   f"a digit 0-{CLASSES - 1}")
            try:
                out.append(read_example(source, label))
            except ListOpsError as e:
                raise ListOpsError(f"{path}:{lineno}: {e}") from None
    return out


def recipe_meta(cfg: GenConfig) -> dict:
    """The keys of a recipe as its split's .meta file renders them, in
    order."""
    # med_even: MED of an even arity takes the lower middle element (_OPEN)
    values = {**vars(cfg), "min_args": MIN_ARGS, "med_even": "lower"}
    return {k: str(values[k]) for k in (
        "count", "seed", "max_length", "min_length", "max_depth", "min_args",
        "max_args", "nest_prob", "med_even", "require_exact_args")}


def _write_meta(path, cfg: GenConfig, examples):
    """The recipe's keys, then the lengths, depth and arity the examples
    reached."""
    realized = {
        "realized_length_min": min(ex.length for ex in examples),
        "realized_length_max": max(ex.length for ex in examples),
        "realized_depth_max": max(ex.depth for ex in examples),
        "realized_args_max": max(ex.max_args for ex in examples)}
    with open(path, "w", encoding="utf-8") as f:
        for k, v in {**recipe_meta(cfg), **realized}.items():
            f.write(f"{k}={v}\n")


SPLIT_KINDS = ("length_gen", "arg_gen")


def split_recipes(kind: str, train_cfg: GenConfig, *, seed: int,
                  train_count: int, dev_count: int, test_count: int) -> dict:
    """The train, dev and test recipes of one generalization split, drawn
    from seeds `seed`, `seed + 1` and `seed + 2`; each is checked as it is
    made, before `build_splits` writes anything.

    Train and dev follow `train_cfg`; the test recipe is derived from it:
    for length_gen, lengths 1.6x-2.4x the train bound with deeper nesting,
    for arg_gen, an operator of twice the train arity in every row.
    """
    if kind not in SPLIT_KINDS:
        raise ListOpsError(f"unknown split kind {kind!r}")
    if kind == "length_gen":
        shift = dict(min_length=int(1.6 * train_cfg.max_length),
                     max_length=int(2.4 * train_cfg.max_length),
                     max_depth=train_cfg.max_depth + 2, nest_prob=0.6)
    else:  # arg_gen
        target = train_cfg.max_args * 2
        shift = dict(max_args=target, max_length=train_cfg.max_length * 3,
                     require_exact_args=target)
    return {"train": replace(train_cfg, count=train_count, seed=seed),
            "dev": replace(train_cfg, count=dev_count, seed=seed + 1),
            "test": replace(train_cfg, count=test_count, seed=seed + 2,
                            **shift)}


# the generator seed of every profile's split
DATA_SEED = 100

# the data of each profile: its split sizes and its train recipe, from
# which `split_recipes` derives dev and test
PROFILES = {
    "reduced": dict(train_count=10000, dev_count=500, test_count=500,
                    max_length=30, max_depth=3, max_args=3, nest_prob=0.45),
    "full": dict(train_count=20000, dev_count=2000, test_count=2000,
                 max_length=50, max_depth=4, max_args=3, nest_prob=0.45),
}


def profile_recipes(p: dict, kind: str = "length_gen") -> dict:
    """The split recipes of a profile, drawn from DATA_SEED: `p` holds the
    keys of a `PROFILES` entry, and any others are ignored."""
    train_cfg = GenConfig(max_length=p["max_length"], max_depth=p["max_depth"],
                          max_args=p["max_args"], nest_prob=p["nest_prob"])
    return split_recipes(kind, train_cfg, seed=DATA_SEED,
                         train_count=p["train_count"],
                         dev_count=p["dev_count"], test_count=p["test_count"])


def build_splits(out_dir, recipes: dict) -> dict:
    """Write each split of `recipes` (name -> GenConfig, in order) to
    <name>.tsv and <name>.meta under `out_dir`, and return name -> TSV path.
    No two splits share a source string."""
    os.makedirs(out_dir, exist_ok=True)
    seen: set = set()
    splits = {}
    for name, cfg in recipes.items():
        examples = generate(cfg, exclude=seen)
        seen.update(ex.source for ex in examples)
        tsv = os.path.join(out_dir, f"{name}.tsv")
        write_tsv(tsv, examples)
        _write_meta(os.path.join(out_dir, f"{name}.meta"), cfg, examples)
        splits[name] = tsv
    return splits

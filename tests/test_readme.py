"""README.md against the files it describes: the layout block, the run
config paragraph, the results table and the CLI block, whose train
command is a run of the sweep."""

import importlib.util
import json
import os
import re
import shlex
from dataclasses import fields

from beamtree.cli import build_parser
from beamtree.harness import RunConfig, make_config, parse_kv

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_layout_names_every_module_of_the_package():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    # the package's modules are the block's lines indented under
    # src/beamtree/
    listed = re.findall(r"^  (\S+\.py)\s", block, re.MULTILINE)
    modules = [name for name in os.listdir(os.path.join(ROOT, "src",
                                                        "beamtree"))
               if name.endswith(".py") and name != "__init__.py"]
    assert "src/beamtree/" in block
    assert sorted(listed) == sorted(modules)
    assert len(listed) == len(set(listed))


def test_run_config_paragraph_names_every_field():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    paragraph = readme.split("A run config is", 1)[1].split("\n\n", 1)[0]
    count = int(re.search(r"with (\d+) keys", paragraph).group(1))
    named = set(re.findall(r"`(\w+)`", paragraph))
    keys = [f.name for f in fields(RunConfig)]
    assert count == len(keys)
    assert [k for k in keys if k not in named] == []


def test_results_table_holds_the_committed_medians():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Results", 1)[1].split("\n## ", 1)[0]
    with open(os.path.join(ROOT, "results", "experiments.json"),
              encoding="utf-8") as f:
        medians = json.load(f)["medians"]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] in medians:
            rows[cells[0]] = {"dev": float(cells[1]), "test": float(cells[2]),
                              "n_seeds": int(cells[3])}
    assert rows == medians


def _cli_commands():
    """The argument lists of the `beamtree` commands in README's CLI block,
    with continuation lines joined."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        block = f.read().split("## CLI", 1)[1].split("```")[1]
    text = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("beamtree ")]


def test_cli_block_commands_parse():
    # a retired option in README fails here
    commands = _cli_commands()
    assert [argv[0] for argv in commands] == \
        ["gen-data", "train", "eval", "parse", "gradcheck"]
    keys = {f.name for f in fields(RunConfig)}
    for argv in commands:
        _args, extra = build_parser().parse_known_args(argv)
        if argv[0] == "train":  # its leftovers are --key=value overrides
            extra = [a for a in extra if not (
                m := re.fullmatch(r"--(\w+)=.+", a)) or m[1] not in keys]
        assert extra == [], argv


def test_cli_block_trains_what_the_sweep_trains():
    # the quick start's model is the reduced profile's bt_k3_onesoft on
    # seed 0, on whatever data_dir it names
    spec = importlib.util.spec_from_file_location(
        "run_experiments", os.path.join(ROOT, "scripts",
                                        "run_experiments.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    argv = next(a for a in _cli_commands() if a[0] == "train")
    _args, overrides = build_parser().parse_known_args(argv)
    readme = make_config(parse_kv(item[2:] for item in overrides))
    run = sweep.run_config("bt_k3_onesoft", 0, sweep.PROFILES["reduced"],
                           readme.data_dir)
    differ = [f.name for f in fields(RunConfig) if f.name != "data_dir"
              and getattr(readme, f.name) != getattr(run, f.name)]
    assert differ == []

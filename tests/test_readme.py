"""README.md against the files it describes: the layout block, the run
config paragraph and the results table."""

import json
import os
import re
from dataclasses import fields

from beamtree.harness import RunConfig

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

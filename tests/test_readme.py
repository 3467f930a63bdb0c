"""README.md's layout block against the files it describes."""

import os
import re

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

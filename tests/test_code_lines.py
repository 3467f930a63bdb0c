"""scripts/code_lines.py on a synthetic source file."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "scripts", "code_lines.py"))
C = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(C)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring
        over two lines."""
        return (x +
                1)


TEXT = """a string value
is code on every line"""
'''


def test_counts_code_lines_per_file_directory_and_total(tmp_path, capsys):
    # SOURCE: import, class, def, return over two lines, TEXT over two lines
    (tmp_path / "src").mkdir()
    (tmp_path / "scripts").mkdir()
    (tmp_path / "src" / "a.py").write_text(SOURCE)
    (tmp_path / "scripts" / "b.py").write_text("x = 1\n\ny = 2\n")
    C.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     7  src/a.py", "     7  src/ total",
        "     2  scripts/b.py", "     2  scripts/ total", "     9  total"]

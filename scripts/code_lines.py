#!/usr/bin/env python3
"""Count the code lines of the Python files under src/ and scripts/.

A code line holds part of a token; docstrings, comments and blank lines
do not count. Docstrings are found with `ast` (the first statement of a
module, class or function, when it is a string), so a string that is a
value still counts. Prints the count per file, per directory and in total.

Usage:
    python3 scripts/code_lines.py [ROOT]    # ROOT defaults to the repo
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

DIRS = ("src", "scripts")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree) -> list:
    return [((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
            for node in ast.walk(tree)
            if isinstance(node, SCOPES)
            and ast.get_docstring(node, clean=False) is not None
            for doc in node.body[:1]]


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    docs = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or any(a <= tok.start < b for a, b in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?",
                    default=Path(__file__).resolve().parent.parent, type=Path)
    args = ap.parse_args(argv)
    total = 0
    for d in DIRS:
        subtotal = 0
        for path in sorted((args.root / d).rglob("*.py")):
            n = code_lines(path.read_text(encoding="utf-8"))
            print(f"{n:6d}  {path.relative_to(args.root)}")
            subtotal += n
        print(f"{subtotal:6d}  {d}/ total")
        total += subtotal
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()

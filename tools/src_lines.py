"""Count the lines of each module under ``src/`` by kind: code, docstring,
comment-only and blank.

Usage, from the repository root::

    python3 tools/src_lines.py [DIR]

``DIR`` defaults to the repository's ``src/``.  A line is a docstring line
when it lies inside the string that opens a module, class or function body
(found with ``ast``); otherwise a code line when it holds a token other than
a comment (found with ``tokenize``; a multi-line string or bracket counts on
every line it spans); otherwise comment-only when it holds a comment; and
blank when it holds nothing.  The four kinds add up to each file's line
count.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of ``source`` per kind, and their total."""
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    docs = docstring_lines(ast.parse(source))
    total = len(source.splitlines())
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, total + 1):
        if line in docs:
            counts["docstring"] += 1
        elif line in code:
            counts["code"] += 1
        elif line in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return {"lines": total, **counts}


def count_tree(root: str) -> dict[str, dict[str, int]]:
    """Counts per ``.py`` file under ``root``, keyed by relative path."""
    out = {}
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                out[os.path.relpath(path, root)] = count(fh.read())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    parser.add_argument("root", nargs="?", default=default, help="directory to count (default: src/)")
    args = parser.parse_args(argv)
    counts = count_tree(args.root)
    columns = ("lines",) + KINDS
    totals = {column: sum(c[column] for c in counts.values()) for column in columns}
    width = max(map(len, list(counts) + ["total"]))
    print(f"{'module':<{width}} " + " ".join(f"{column:>9}" for column in columns))
    for name, row in {**counts, "total": totals}.items():
        print(f"{name:<{width}} " + " ".join(f"{row[column]:>9,}" for column in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count code lines of Python source files.

    python3 tools/code_lines.py [PATH ...]

Prints the code lines of each ``.py`` file under the given files and
directories (by default ``src/braidgate``, from the root of a braidgate
checkout), then their total. A line counts when it holds a token other than
a comment, a blank or continued line's newline, an indent or a dedent, and
that token is not part of a module, class or function docstring. So a
multi-line string that is not a docstring counts every line it spans, and
so does each continuation line of a bracketed expression.

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The start positions, (line, column), of every docstring in ``tree``."""
    return {(node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(tree)
            if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None}


def code_lines(source: str) -> int:
    """The number of code lines of Python ``source``."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["src/braidgate"])
    args = ap.parse_args(argv)
    files = []
    for path in map(pathlib.Path, args.paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Count the lines of a Python package that are code: every line outside
docstrings, comments and blank lines.

    python tools/count_code_lines.py src/hardycert

prints one line per module and the total.  A line is code when a token
other than a comment or a line break starts on it or spans it; the lines of
every module, class and function docstring, found from the syntax tree, are
then taken out.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

#: The nodes that can carry a docstring.
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by each docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` outside docstrings, comments and
    blank lines."""
    source = path.read_bytes()
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, filename=str(path))))


def main(argv: list[str]) -> int:
    """Print the counts of the package directory in ``argv``; a file, a
    missing path or a directory with no ``.py`` file below it is refused
    with status 2, so a mistyped path never reads as an empty package."""
    paths = sorted(Path(argv[0]).rglob("*.py")) if len(argv) == 1 and Path(argv[0]).is_dir() else []
    if not paths:
        print("usage: count_code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

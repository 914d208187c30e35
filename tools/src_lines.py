"""Count the lines of a Python source tree: total, and code lines.

A code line holds a token other than a comment, a newline or an
indentation change, and lies outside every module, class and function
docstring.  A token that spans lines (a multi-line string) makes each of its
lines a code line.

Usage: python tools/src_lines.py [DIR]   (default: src/sasakit)
Prints "<total> <code>".
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/sasakit")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text())
        total, code = total + t, code + c
    print(total, code)
    return 0


if __name__ == "__main__":
    sys.exit(main())

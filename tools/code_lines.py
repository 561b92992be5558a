"""Count the code lines of a Python package.

    python3 tools/code_lines.py src/cbpv_quant

A line counts when it holds a token other than a comment or a line break,
and it is not part of a module, class or function docstring.  Blank lines,
comment-only lines and docstrings do not count; every line of a multi-line
statement does, and so does every line of a string that is not a docstring.
Prints one line per module, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers covered by the module's, classes' and functions' docstrings."""
    out: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_line_numbers(source: str) -> set[int]:
    """The numbers of the lines of `source` that count as code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(source)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package", help="a directory of Python modules")
    args = ap.parse_args(argv)
    total = 0
    for name in sorted(os.listdir(args.package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(args.package, name), encoding="utf-8") as fh:
            n = len(code_line_numbers(fh.read()))
        total += n
        print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines and the defaulted parameters of each src/alphacir
module, and their totals.

A code line holds at least one token that is not a comment; blank lines,
comments and docstrings (the leading string of a module, class or
function) are left out.  A defaulted parameter is a parameter of a def
(a method included, a lambda not) that has a default value: each option
a caller may leave unset.  Run as python3 scripts/code_lines.py.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alphacir"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + _DEFS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def defaulted_params(source: str) -> int:
    """The number of def parameters with a default in one module's source,
    positional and keyword-only."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, _DEFS))


def main() -> None:
    lines = defaults = 0
    print(f"{'module':16s} {'lines':>5s} {'defaults':>8s}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        n, d = code_lines(source), defaulted_params(source)
        lines, defaults = lines + n, defaults + d
        print(f"{path.name:16s} {n:5d} {d:8d}")
    print(f"{'total':16s} {lines:5d} {defaults:8d}")


if __name__ == "__main__":
    main()

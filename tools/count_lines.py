"""Line counts of the modlift package, module by module.

    python tools/count_lines.py

prints each module of src/modlift with its physical lines and its code
lines, then the totals.  Code lines are the lines that hold a token other
than a comment, outside docstrings: blank lines, comment lines and the
lines of module, class and function docstrings do not count.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modlift"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of source with a token other than a comment, outside docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    total_physical = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        physical, code = len(source.splitlines()), code_lines(source)
        total_physical += physical
        total_code += code
        print(f"{path.name:<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {total_physical:>6} {total_code:>6}")


if __name__ == "__main__":
    main()

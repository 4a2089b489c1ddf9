"""Print the size of the stegostream package: `wc -l` lines and code-only
lines per module, then the totals.

A code-only line holds a token other than a comment or a docstring (the
string that opens a module, class or function body), found with Python's
`tokenize` and `ast`. A token that spans lines, such as a triple-quoted
string that is not a docstring, counts every line it spans.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the repository's src/stegostream.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of `path` holding a token that is not a comment or a docstring."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in _LAYOUT:
                continue
            spanned = range(token.start[0], token.end[0] + 1)
            if not docstrings.issuperset(spanned):
                lines.update(spanned)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "stegostream"
    total_wc = total_code = 0
    for path in sorted(package.glob("*.py")):
        wc = path.read_bytes().count(b"\n")
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print(f"{path.name:<14} wc={wc:5d} code={code:5d}")
    print(f"{'total':<14} wc={total_wc:5d} code={total_code:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

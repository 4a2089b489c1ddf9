"""Print the size of the stegostream package: `wc -l` lines and code-only
lines per module, then the totals.

A code-only line holds a token other than a comment or a docstring (the
string that opens a module, class or function body), found with Python's
`tokenize` and `ast`. A token that spans lines, such as a triple-quoted
string that is not a docstring, counts every line it spans.

    python3 tools/code_lines.py [PACKAGE_DIR] [--against REV]

PACKAGE_DIR defaults to the repository's src/stegostream. With --against,
the package as it is at git revision REV (read with `git show`) is
counted too, and its totals and the change from them follow.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def code_lines(source: bytes) -> int:
    """Lines of the module `source` holding a token that is not a comment
    or a docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in _LAYOUT:
            continue
        spanned = range(token.start[0], token.end[0] + 1)
        if not docstrings.issuperset(spanned):
            lines.update(spanned)
    return len(lines)


def _modules(package: Path, rev: str | None) -> dict[str, bytes]:
    """The package's top-level modules by file name, as they are on disk,
    or at git revision `rev`."""
    if rev is None:
        return {path.name: path.read_bytes() for path in package.glob("*.py")}

    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=package, check=True,
                              capture_output=True).stdout

    names = git("ls-tree", "--name-only", rev, "--", ".").decode().splitlines()
    return {name: git("show", f"{rev}:./{name}") for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the package's lines.")
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "stegostream")
    parser.add_argument("--against", metavar="REV",
                        help="also count the package at this git revision")
    args = parser.parse_args(argv)
    total_wc = total_code = 0
    for name, source in sorted(_modules(args.package, None).items()):
        wc = source.count(b"\n")
        code = code_lines(source)
        total_wc += wc
        total_code += code
        print(f"{name:<14} wc={wc:5d} code={code:5d}")
    print(f"{'total':<14} wc={total_wc:5d} code={total_code:5d}")
    if args.against:
        before = _modules(args.package, args.against).values()
        before_wc = sum(source.count(b"\n") for source in before)
        before_code = sum(code_lines(source) for source in before)
        print(f"{args.against:<14} wc={before_wc:5d} code={before_code:5d}")
        print(f"{'change':<14} wc={total_wc - before_wc:+5d} code={total_code - before_code:+5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

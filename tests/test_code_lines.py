import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

Q = '"' * 3
# (line, is code): docstrings, comments and blank lines are not code; a
# string that is not a docstring is, on every line it spans
FIXTURE = [
    (f"{Q}Module docstring,", False),
    (f"on two lines.{Q}", False),
    ("", False),
    ("# a comment", False),
    ("import os  # a trailing comment", True),
    ("", False),
    ("", False),
    ("class Thing:", True),
    (f"    {Q}Class docstring.{Q}", False),
    ("", False),
    ("    value = (1 +", True),
    ("             2)", True),
    ("", False),
    ("    async def method(self):", True),
    (f"        {Q}Method", False),
    (f"        docstring.{Q}", False),
    ("        # a comment inside", False),
    (f"        text = {Q}not a", True),
    (f"docstring{Q}", True),
    ("        return text", True),
    ("", False),
    ("", False),
    ("def function():", True),
    ("    'One-line docstring.'", False),
    ("    'a second string is code'", True),
    ("    return os.sep", True),
]


def _write(path: Path, lines) -> Path:
    path.write_text("".join(f"{line}\n" for line, _ in lines), encoding="utf-8")
    return path


def test_counts_exactly_the_code_lines(tmp_path):
    path = _write(tmp_path / "fixture.py", FIXTURE)
    assert code_lines.code_lines(path) == sum(code for _, code in FIXTURE) == 11


def test_totals_are_the_sums_of_the_modules(tmp_path, capsys):
    _write(tmp_path / "a.py", FIXTURE)
    _write(tmp_path / "b.py", FIXTURE[:9])
    assert code_lines.main([str(tmp_path)]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        name, wc, code = re.fullmatch(r"(\S+) +wc= *(\d+) code= *(\d+)", line).groups()
        rows[name] = (int(wc), int(code))
    assert rows == {"a.py": (len(FIXTURE), 11), "b.py": (9, 2), "total": (len(FIXTURE) + 9, 13)}

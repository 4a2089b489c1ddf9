import importlib.util
import re
import subprocess
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
    assert code_lines.code_lines(path.read_bytes()) == sum(code for _, code in FIXTURE) == 11


def _rows(out: str) -> dict[str, tuple[int, int]]:
    rows = {}
    for line in out.splitlines():
        name, wc, code = re.fullmatch(r"(\S+) +wc= *([-+]?\d+) code= *([-+]?\d+)", line).groups()
        rows[name] = (int(wc), int(code))
    return rows


def test_totals_are_the_sums_of_the_modules(tmp_path, capsys):
    _write(tmp_path / "a.py", FIXTURE)
    _write(tmp_path / "b.py", FIXTURE[:9])
    assert code_lines.main([str(tmp_path)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows == {"a.py": (len(FIXTURE), 11), "b.py": (9, 2), "total": (len(FIXTURE) + 9, 13)}


def test_against_counts_the_package_at_a_revision(tmp_path, capsys):
    # the package sits below the top of its repository, next to a module
    # outside it, and changes after the commit: a.py shrinks, b.py is new
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    _write(package / "a.py", FIXTURE)
    _write(package / "notes.txt", FIXTURE)
    _write(tmp_path / "src" / "outside.py", FIXTURE)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    _write(package / "a.py", FIXTURE[:9])
    _write(package / "b.py", FIXTURE[:13])
    assert code_lines.main([str(package), "--against", "HEAD"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows == {"a.py": (9, 2), "b.py": (13, 4), "total": (22, 6),
                    "HEAD": (len(FIXTURE), 11), "change": (22 - len(FIXTURE), 6 - 11)}

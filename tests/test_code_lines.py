"""Tests for ``scripts/code_lines.py``, the code-line count the project's
size figures cite."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: Nine code lines: the import, ``X = {``, its two entries and ``}``, the
#: ``def``, the two lines of ``return (...)`` and the class line with its
#: body.  The docstrings, the comments and the blank lines do not count;
#: a string that is not a docstring does.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line
X = {
    "a": 1,

    "b": """not a docstring""",
}


def f():
    """Function docstring."""
    return (
        os.sep)


class C: pass
'''


def test_counts_the_fixture():
    assert code_lines.code_lines(FIXTURE) == 9
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 15}


def test_main_prints_per_file_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["1", "b.py"], ["9", "pkg/a.py"], ["10", "total"],
    ]

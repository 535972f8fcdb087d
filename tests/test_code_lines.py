import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        text = """a string that is not a docstring
        counts every line"""
        return math.pi, text
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the assignment, return
    assert code_lines.code_lines(SOURCE) == 6


def test_every_module_is_counted(capsys):
    assert code_lines.main() == 0
    rows = capsys.readouterr().out.splitlines()
    names = [row.split()[1] for row in rows]
    assert names[-1] == "total"
    assert "solver.py" in names and "preference.py" in names
    assert sum(int(row.split()[0]) for row in rows[:-1]) == int(rows[-1].split()[0])

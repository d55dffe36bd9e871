import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Seven code lines: the import, the class and def lines, the two lines of the
# string that is no docstring, and the two lines of the return.
SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class K:
    """Class docstring."""

    def f(self, x):
        """Function docstring.

        With a blank line inside."""
        text = """not a docstring:
a string over two lines"""
        return (text,
                math.pi)
'''


def test_counts_code_and_skips_comments_docstrings_and_blank_lines():
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.code_lines("") == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = [x,\n     x]\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "a                     7", "b                     3", "total                10", ""]

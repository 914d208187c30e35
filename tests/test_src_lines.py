"""tools/src_lines.py counts physical lines and code lines: a code line holds
a token other than a comment, a newline or an indentation change, outside
every module, class and function docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SNIPPET = '''"""Module doc.

More.
"""
import os  # a trailing comment is on a code line

# a comment alone is not


class A:
    """Class doc."""

    def f(self):
        """Function
        doc."""
        x = """a string
that is code"""
        return x
'''


def test_counts_a_fixed_snippet():
    # code: the import, class, def, both lines of x = """...""" and the return
    assert src_lines.count(SNIPPET) == (18, 6)


def test_a_docstring_is_only_the_first_statement():
    assert src_lines.count('"""doc"""\n"""not a docstring"""\nx = 1\n') == (3, 2)


def test_main_sums_a_tree(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "20 7\n"

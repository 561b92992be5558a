"""The code-line rule of tools/code_lines.py, pinned on a small sample."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# each line that counts ends in "# code" or sits inside a multi-line token
# or bracket opened on such a line
SAMPLE = '''\
"""A module docstring
over two lines."""

import os  # code
# a comment line


class A:  # code
    """A class docstring."""

    def f(self, x):  # code
        """A function docstring,

        with a blank line inside it."""
        s = """a string that is
not a docstring"""  # code
        "a string statement after the first is no docstring"  # code
        return os.path.join(  # code
            x,

            s,
        )
'''


def test_code_line_rule_on_a_sample():
    lines = code_lines.code_line_numbers(SAMPLE)
    # the blank line inside the call's brackets does not count
    assert lines == {4, 8, 11, 15, 16, 17, 18, 19, 21, 22}


def test_counter_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["    10  a.py", "     1  b.py", "    11  total", ""]

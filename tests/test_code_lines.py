"""What ``tools/code_lines.py`` counts as a code line."""

import importlib.util
import pathlib

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", PATH)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts with its code

# a comment line


class Shape:
    """A class docstring."""

    def area(self, r):
        """A function docstring
        over three
        lines."""
        text = """a string
        that is not a docstring"""
        total = (r
                 + 1)
        return math.pi * total \\
            * len(text)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, def, the string's two lines, the sum's two lines and the
    # return's two lines
    assert code_lines.code_lines(SOURCE) == 9


def test_the_command_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'sub' / 'b.py'}", "    10  total"]

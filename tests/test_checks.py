from checks import code_lines

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    y = """a string,
not a docstring"""
    return (x +
            len(y))


class C:
    """Class
    docstring."""

    z = 1
'''


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    """Eight lines of the snippet are code: the import, def, both lines of
    the string assigned to y, both lines of the return, class and z = 1."""
    (tmp_path / "a.py").write_text(SNIPPET)
    assert code_lines(tmp_path / "a.py") == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("y = 2\n")
    assert code_lines(tmp_path) == 9


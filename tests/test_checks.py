import os
import subprocess
import sys
from pathlib import Path

from checks import code_lines

ROOT = Path(__file__).resolve().parents[1]

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



def test_checks_script_prints_code_lines_per_file_and_the_total():
    """python3 tests/checks.py src/bhl prints code_lines of each module and
    then their total, which is code_lines of the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "tests/checks.py", "src/bhl"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    counts = {name: int(n) for n, name in (line.split() for line in out)}
    total = counts.pop("total")
    modules = sorted((ROOT / "src/bhl").rglob("*.py"))
    assert list(counts) == [str(f.relative_to(ROOT)) for f in modules]
    assert total == sum(counts.values()) == code_lines(ROOT / "src/bhl")

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_counts_code_only():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


def f(x):
    """One-line docstring."""
    # a comment line
    text = """
# not a comment

"""
    return (x,
            text)


class C:
    """Docstring."""

    y = 1
'''
    # import, def, text = (and the three lines of its string), return
    # (two lines), class, y = 1.
    assert code_lines.code_lines(source) == 10


def test_src_counts_every_module(capsys):
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith("total")
    assert sum(counts[:-1]) == counts[-1] > 0
    assert any(line.endswith("perm_core.py") for line in lines)

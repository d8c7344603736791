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


def _blocks(capsys):
    """The printed src/ block and tests/ block, each ending in its total."""
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    split = next(k for k, line in enumerate(lines) if line.endswith("  total")) + 1
    return lines[:split], lines[split:]


def _check_block(block, label, folder):
    counts = [int(line.split()[0]) for line in block]
    assert block[-1].split(None, 1)[1] == label
    assert sum(counts[:-1]) == counts[-1] > 0
    assert all(line.split()[1].startswith(folder) for line in block[:-1])


def test_src_counts_every_module(capsys):
    src, _ = _blocks(capsys)
    _check_block(src, "total", "src/")
    assert any(line.endswith("perm_core.py") for line in src)


def test_tests_follow_src(capsys):
    _, tests = _blocks(capsys)
    _check_block(tests, "tests total", "tests/")
    assert len(tests) == len(list(TOOL.parent.parent.glob("tests/*.py"))) + 1
    assert any(line.endswith("conftest.py") for line in tests)

"""tools/code_lines.py: the one counter of code lines, pinned to its rule."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a code line with a trailing comment


def base():
    """A function docstring."""
    # a comment line

    return os.sep
'''


def test_only_lines_that_hold_code_count():
    """Docstrings, comment lines and blank lines do not count; a line of code
    with a trailing comment does. Here that leaves `import os`, `def base()`
    and `return os.sep`."""
    assert code_lines.code_lines(SOURCE) == 3

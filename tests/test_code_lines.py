"""The code-line count of ``tools/code_lines.py``, on a small source."""

import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

_SOURCE = '''"""Module docstring,
over two lines."""
# a comment

import os


def scale(x):
    """Function docstring."""
    # another comment
    total = (x
             + os.sep
             + "text")  # a trailing comment

    return total
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "module.py").write_text(_SOURCE)
    result = subprocess.run(
        [sys.executable, str(_SCRIPT), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    # import, def, the three lines of the expression and return
    assert result.stdout == f"6 {tmp_path / 'module.py'}\n6 total\n"

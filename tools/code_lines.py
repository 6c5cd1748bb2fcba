"""Count the code lines of each Python module in a directory.

A line counts when it holds a token other than ``COMMENT``, ``NL``,
``NEWLINE``, ``INDENT``, ``DEDENT`` or ``ENDMARKER``; a token that spans
several lines counts each of them.  A string statement at the start of a
file, or right after ``INDENT``, ``NEWLINE`` or ``DEDENT``, is a docstring
and is skipped.  So blank lines, comments and docstrings do not count, and
imports and ``__all__`` do.

Usage, from the repo root::

    python3 tools/code_lines.py [directory]    # src/ridgeiv by default

It prints one ``<count> <file>`` line per module, sorted by file name, then
``<total> total``.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
_BEFORE_DOCSTRING = {tokenize.INDENT, tokenize.NEWLINE, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    lines: set[int] = set()
    previous = None  # the last token that is not a comment or NL
    with open(path, encoding="utf-8") as fh:
        for token in tokenize.generate_tokens(fh.readline):
            if token.type in (tokenize.COMMENT, tokenize.NL):
                continue
            docstring = token.type == tokenize.STRING and (
                previous is None or previous.type in _BEFORE_DOCSTRING
            )
            if token.type not in _NOT_CODE and not docstring:
                lines.update(range(token.start[0], token.end[0] + 1))
            previous = token
    return len(lines)


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/ridgeiv")
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count code, docstring/comment and blank lines per module, with Python's
tokenizer.

A line is code if any token on it (or spanning it) is code; otherwise it is
docstring/comment if a comment or a docstring touches it; otherwise it is
blank.  A docstring is a string token that makes up a statement on its own.

    python3 tools/linecount.py [directory]   # default: src
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> tuple:
    """(code, docstring/comment, blank) lines of one module's source."""
    code, doc = set(), set()
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        before = tokens[i - 1].type if i else tokenize.NEWLINE
        after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
        statement = before in _LAYOUT and after in (tokenize.NEWLINE, tokenize.ENDMARKER)
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and statement):
            doc.update(lines)
        else:
            code.update(lines)
    total = len(text.splitlines())
    doc -= code
    return len(code), len(doc), total - len(code) - len(doc)


def main(argv=None) -> int:
    root = pathlib.Path((argv or sys.argv[1:] or ["src"])[0])
    sums = [0, 0, 0]
    print(f"{'module':40s} {'code':>6s} {'doc':>6s} {'blank':>6s}")
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text())
        sums = [s + c for s, c in zip(sums, counts)]
        print(f"{str(path.relative_to(root)):40s} {counts[0]:6d} {counts[1]:6d} {counts[2]:6d}")
    print(f"{'total':40s} {sums[0]:6d} {sums[1]:6d} {sums[2]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``tools/linecount.py`` sorts each source line into code, docstring/comment
or blank; the line counts quoted for the package are its output."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tools/ is not a package: load the script by its path
_spec = importlib.util.spec_from_file_location("linecount", ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment-only line
def f():
    """Function docstring."""
    text = """a string
assigned to a name"""
    return text
'''


def test_docstrings_and_comment_lines_are_doc_and_an_assigned_string_is_code():
    assert linecount.count('"""Module docstring\nover two lines."""\n') == (0, 2, 0)
    assert linecount.count('def f():\n    """Function docstring."""\n    return 1\n') == (2, 1, 0)
    assert linecount.count("# a comment-only line\nx = 1  # a trailing comment\n") == (1, 1, 0)
    assert linecount.count('text = """a string\nassigned to a name"""\n') == (2, 0, 0)
    # code: import, def, both lines of the assignment, return; doc: the two
    # docstring lines, the function docstring and the comment-only line
    assert linecount.count(SOURCE) == (5, 4, 2)


def test_blank_lines_count_as_blank():
    assert linecount.count("x = 1\n\n   \ny = 2\n") == (2, 0, 2)


def test_the_total_row_is_the_sum_of_the_module_rows(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert linecount.main(["src"]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "code", "doc", "blank"]
    assert len(rows) == len(list((ROOT / "src").rglob("*.py")))
    sums = [sum(int(row.split()[k]) for row in rows) for k in (1, 2, 3)]
    assert total.split() == ["total", *map(str, sums)]

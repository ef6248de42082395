"""The code-line counter in tools/, which the line-count figures quote."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


SOURCE = '''"""Module docstring
over two lines."""

import math

# a comment
X = 1  # a trailing comment keeps its line


def f(x):
    """Function docstring."""

    text = """not a docstring
    but a string value"""
    return math.sqrt(x) + len(text)


class C:
    """Class docstring
    over two lines.
    """
    y = 2
'''


def test_counts_code_lines_only():
    # counted: import, X =, def, the two lines of text =, return,
    # class, y =
    assert load_tool().count_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# c\n", encoding="utf-8")
    assert load_tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["8", "a.py"], ["1", "sub/b.py"], ["9", "total"],
    ]


def test_main_counts_a_single_file(tmp_path, capsys):
    path = tmp_path / "a.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert load_tool().main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["8", "a.py"], ["8", "total"]]


@pytest.mark.parametrize("name", ["missing", "missing.py", "notes.txt"])
def test_main_refuses_what_it_cannot_count(tmp_path, capsys, name):
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert load_tool().main([str(tmp_path / name)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert name in err

"""The code-line count of tools/code_lines.py, on a fixed snippet."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SNIPPET = '''\
"""A module docstring
over two lines."""

# a comment
import os  # code with a comment


def f(x):
    """A function docstring."""
    y = (x +
         1)
    return y


class C:
    """A class docstring
    over two lines."""

    TEXT = """a string that is
not a docstring"""
'''


def test_counts_code_lines_but_no_blank_comment_or_docstring_line(tmp_path,
                                                                   capsys):
    # import; def; y = (x + / 1); return; class; TEXT = over two lines
    assert code_lines.code_lines(_SNIPPET) == 8
    f = tmp_path / "snippet.py"
    f.write_text(_SNIPPET, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"     8  {f}\n     8  total\n"

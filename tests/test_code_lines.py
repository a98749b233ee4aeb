"""scripts/code_lines.py, the size report of the package, on a small
source string."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "scripts"
    / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring."""

import os  # a comment


def f(a, b=1, *args, c, d=None, **kw):
    """Docstring."""
    return lambda x=0: a


class C:
    def m(self, x=(1,
                   2)):
        pass

    async def n(self, *, y=3):
        return y
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, def f, return, class, def m (two lines), pass, def n, return
    assert code_lines.code_lines(SOURCE) == 9


def test_defaulted_params_count_def_defaults_only():
    # b and d of f (d's default is None, c has none), x of m, y of n; the
    # lambda's x is not counted
    assert code_lines.defaulted_params(SOURCE) == 4

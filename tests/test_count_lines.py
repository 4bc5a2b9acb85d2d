import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
X = (1,
     2)  # trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """not a
        docstring"""
'''
    # two lines of X, class, def, and two lines of the returned string
    assert load_tool().code_lines(source) == 6

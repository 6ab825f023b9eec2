import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_skips_blanks_comments_and_docstrings():
    """Code lines are the lines of tokens other than comments, outside
    docstrings; a multi-line string that is no docstring counts."""
    source = ('"""Module doc."""\n'
              '\n'
              'import os  # a trailing comment\n'
              '# a comment line\n'
              'class C:\n'
              '    """Class doc."""\n'
              '    def f(self):\n'
              '        """Function\n'
              '        doc."""\n'
              '        s = """not a\n'
              '        docstring"""\n'
              '        return s\n')
    assert _src_lines().count(source) == {"total": 12, "code": 6}


def test_src_lines_prints_each_module_and_the_sums():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(ROOT)],
                         check=True, capture_output=True, text=True).stdout
    counts = json.loads(out)
    modules = sorted(p.name for p in (ROOT / "src" / "umstparse").glob("*.py"))
    assert list(counts) == modules + ["total"]
    for key in ("total", "code"):
        assert counts["total"][key] == sum(counts[m][key] for m in modules)

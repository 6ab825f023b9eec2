import argparse
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

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


def _perf_ab():
    spec = importlib.util.spec_from_file_location("perf_ab", ROOT / "tools" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric(better, bound=0.05):
    return {"unit": "x", "better": better, "bound": bound}


# sorted: 98 99 99 100 100 100 100 101 101 102; inclusive quartiles
# 99.25 and 100.75, so the interquartile range is 1.5 around a median of 100
PARENT = [100, 99, 101, 98, 100, 102, 99, 100, 101, 100]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_perf_ab_ties_count_for_neither_side(better):
    verdict = _perf_ab().compare(_metric(better), [10, 10, 10, 10], [10, 11, 9, 10])
    assert verdict["wins"] == 1 and verdict["pairs"] == 4


@pytest.mark.parametrize("better, inside, outside", [("higher", 95.01, 94.99),
                                                     ("lower", 104.99, 105.01)])
def test_perf_ab_worse_than_bound_at_the_bound(better, inside, outside):
    compare = _perf_ab().compare
    assert not compare(_metric(better), [100] * 5, [inside] * 5)["worse_than_bound"]
    assert compare(_metric(better), [100] * 5, [outside] * 5)["worse_than_bound"]


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_perf_ab_unresolved_when_the_parent_spreads_past_the_bound(better, sign):
    """A parent whose IQR is 10% of its median leaves a 5% bound
    unresolved, unless every change run beats every parent run."""
    compare = _perf_ab().compare
    wide = [90, 95, 100, 105, 110] * 2
    assert compare(_metric(better), wide, [100] * 10)["unresolved"]
    assert not compare(_metric(better), wide, [100 + sign * 11] * 10)["unresolved"]
    assert not compare(_metric(better), [100] * 10, [100] * 10)["unresolved"]
    assert not compare(_metric(better, bound=0.2), wide, [100] * 10)["unresolved"]


def test_perf_ab_gain_needs_nine_wins_in_ten():
    compare = _perf_ab().compare
    nine = [90] + [p + 5 for p in PARENT[1:]]
    eight = [90, 90] + [p + 5 for p in PARENT[2:]]
    assert compare(_metric("higher"), PARENT, nine)["wins"] == 9
    assert compare(_metric("higher"), PARENT, nine)["gain_claimable"]
    assert compare(_metric("higher"), PARENT, eight)["wins"] == 8
    assert not compare(_metric("higher"), PARENT, eight)["gain_claimable"]


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_perf_ab_gain_needs_a_gap_wider_than_the_parents_iqr(better, sign):
    """Both changes win 9 of 10 pairs (all but the parent's extreme run);
    only a median gap over the parent's IQR of 1.5 counts."""
    compare = _perf_ab().compare
    parent = PARENT if sign > 0 else [200 - p for p in PARENT]
    over = compare(_metric(better), parent, [100 + sign * 1.6] * 10)
    under = compare(_metric(better), parent, [100 + sign * 1.4] * 10)
    assert over["wins"] == under["wins"] == 9
    assert over["gain_claimable"] and not under["gain_claimable"]


def _runs(attempted, failed):
    return [{"report": {"sha256": {}}, "correct": not failed,
             "attempted": attempted, "failed": failed}]


def test_perf_ab_no_gain_with_a_larger_share_of_failures():
    """A change that fails a larger share of its attempted operations than
    the parent claims no gain; an equal share, or fewer failures, still can."""
    perf_ab = _perf_ab()
    better = [p + 5 for p in PARENT]
    for parent, change, more in ((_runs(100, 0), _runs(100, 1), True),
                                 (_runs(100, 1), _runs(200, 3), True),
                                 (_runs(100, 1), _runs(200, 2), False),
                                 (_runs(100, 2), _runs(100, 0), False),
                                 (_runs(0, 0), _runs(0, 0), False)):
        res = perf_ab.summary({"parent": parent, "change": change}, [1])
        assert perf_ab.fails_more(res) == more
        verdict = perf_ab.compare(_metric("higher"), PARENT, better,
                                  more_failures=perf_ab.fails_more(res))
        assert verdict["gain_claimable"] != more


@pytest.mark.parametrize("text, seeds", [("1-3,7", [1, 2, 3, 7]), ("4", [4]),
                                         ("0-1", [0, 1])])
def test_perf_ab_parse_seeds(text, seeds):
    assert _perf_ab().parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["3-1", "", "-1", "a", "1,", "1,10-5", "1,1,2", "1-3,2"])
def test_perf_ab_parse_seeds_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _perf_ab().parse_seeds(text)

"""The claim rule and the guards of ``tools/bench_pairs.py``, and the
count of ``tools/code_lines.py``, each imported by path (``tools/`` is
no package)."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
code_lines = _tool("code_lines")

# ten parent runs 1.00, 1.01, ..., 1.09: median 1.045, quartiles 1.0225
# and 1.0675, so the parent's interquartile range is 0.045
PARENT = [1.0 + 0.01 * i for i in range(10)]


def _change(step, losses):
    """Every pair ``step`` lower than the parent's run, except the first
    ``losses`` pairs, which are ``step`` higher."""
    return [p + step if i < losses else p - step
            for i, p in enumerate(PARENT)]


def test_nine_wins_beyond_the_parent_iqr_are_claimed():
    verdict = bench_pairs.judge(PARENT, _change(0.1, 1), lower=True)
    assert verdict["wins"] == 9 and verdict["pairs"] == 10
    assert verdict["parent_iqr"] == pytest.approx(0.045)
    assert verdict["claimed"]


def test_nine_wins_inside_the_parent_iqr_are_not_claimed():
    verdict = bench_pairs.judge(PARENT, _change(0.01, 1), lower=True)
    assert verdict["wins"] == 9
    assert not verdict["claimed"]


def test_eight_wins_beyond_the_parent_iqr_are_not_claimed():
    verdict = bench_pairs.judge(PARENT, _change(0.1, 2), lower=True)
    assert verdict["wins"] == 8
    assert not verdict["claimed"]


@pytest.mark.parametrize("lower", [True, False])
def test_ties_count_for_neither_side(lower):
    verdict = bench_pairs.judge(PARENT, list(PARENT), lower=lower)
    assert verdict["wins"] == 0
    assert not verdict["claimed"]
    # one tie among nine wins leaves nine, not ten
    change = _change(0.1 if lower else -0.1, 0)
    change[0] = PARENT[0]
    assert bench_pairs.judge(PARENT, change, lower=lower)["wins"] == 9


def test_higher_is_better_when_the_metric_says_so():
    higher = [p + 0.1 for p in PARENT]
    assert bench_pairs.judge(PARENT, higher, lower=False)["claimed"]
    verdict = bench_pairs.judge(PARENT, higher, lower=True)
    assert verdict["wins"] == 0 and not verdict["claimed"]


def test_spread_of_one_value_is_that_value():
    assert bench_pairs.spread([0.25]) == (0.25, 0.25, 0.25)


def test_checkouts_at_paths_of_unequal_length_are_refused_before_any_run(
        tmp_path, monkeypatch, capsys):
    def run_once(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "cpu_times", run_once)
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb"),
                          "--workload", "linear-1d", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "differ in length" in capsys.readouterr().err


def test_contention_shares_come_from_the_cpu_line_deltas():
    # user nice system idle iowait irq softirq steal, in clock ticks
    before = [100, 0, 50, 1000, 10, 0, 0, 20]
    after = [160, 0, 70, 1090, 10, 0, 0, 40]
    shares = bench_pairs.contention(before, after)
    assert shares["steal_share"] == pytest.approx(20 / 190)
    assert shares["idle_share"] == pytest.approx(90 / 190)
    assert bench_pairs.contention(None, after) == {}
    assert bench_pairs.contention(before, before) == {}


# every kind of line the count leaves out, and two it keeps that look
# like them: a string that is no docstring, and a call over two lines
TOY = '''"""Module docstring,
over two lines."""

import os  # code, then a comment

# a comment-only line


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        "a bare string, not the first statement"
        return len(
            os.sep)
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    toy = tmp_path / "toy.py"
    toy.write_text(TOY)
    # import, class, def, the bare string and the two lines of the call
    assert code_lines.code_lines(toy) == 6


def test_code_lines_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "a.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.py                 1",
        "toy.py               6",
        "total                7",
    ]

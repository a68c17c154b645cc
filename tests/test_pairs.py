"""bench/pairs.py's reducer, on synthetic numbers: no benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
sys.path.insert(0, str(PATH.parent))    # pairs.py imports its sibling diverge.py
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_quartiles_of_ten_runs():
    assert pairs.quartiles([float(v) for v in range(10, 0, -1)]) == {
        "q1": 3.25, "median": 5.5, "q3": 7.75}
    assert pairs.quartiles([2.0]) == {"q1": 2.0, "median": 2.0, "q3": 2.0}


def test_a_gain_in_nine_of_ten_pairs_beyond_the_parents_iqr_holds():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]
    change = [p + 10.0 for p in parent[:9]] + [parent[9] - 1.0]
    out = pairs.summarize(parent, change, "higher")
    assert out["won"] == 9 and out["pairs"] == 10
    assert out["rule_holds"]
    # the same numbers read as times: the change lost
    lost = pairs.summarize(parent, change, "lower")
    assert lost["won"] == 1 and not lost["rule_holds"]


def test_lower_is_better_for_times():
    parent = [1.40, 1.45, 1.38, 1.42, 1.41, 1.39, 1.43, 1.44, 1.40, 1.41]
    out = pairs.summarize(parent, [t - 0.15 for t in parent], "lower")
    assert out["won"] == 10 and out["rule_holds"]
    assert out["change"]["median"] == pytest.approx(out["parent"]["median"] - 0.15)


@pytest.mark.parametrize("won, shift, holds", [
    (8, 10.0, False),    # a large gap, but two pairs lost
    (10, 1.0, False),    # every pair won, by less than the parent's IQR
])
def test_the_rule_needs_both_the_pairs_and_the_gap(won, shift, holds):
    parent = [100.0, 104.0, 96.0, 102.0, 98.0, 103.0, 97.0, 101.0, 99.0, 100.0]
    change = [p + shift if i < won else p - 1.0 for i, p in enumerate(parent)]
    out = pairs.summarize(parent, change, "higher")
    assert out["won"] == won and out["rule_holds"] is holds

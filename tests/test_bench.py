import pathlib
import runpy

import pytest

SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "bench.py"
SPEC = {
    "end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    ]
}


@pytest.fixture(scope="module")
def compare():
    return runpy.run_path(str(SCRIPT))["compare"]


def runs(**metrics):
    """One synthetic run per position of the value lists."""
    names = list(metrics)
    return [{"metrics": dict(zip(names, values))} for values in zip(*metrics.values())]


def test_compare_counts_wins_in_the_better_direction_and_ties_for_neither(compare):
    parent = runs(pass_s=[1.0, 1.1, 1.2, 1.3, 1.4], ops_per_s=[10, 10, 10, 10, 10])
    change = runs(pass_s=[0.5, 0.6, 1.2, 0.7, 0.8], ops_per_s=[10, 11, 12, 13, 10])
    out = compare(parent, change, SPEC)
    assert [out[name]["change_wins"] for name in ("pass_s", "ops_per_s")] == [4, 3]
    lower = out["pass_s"]
    assert lower["parent"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3})
    assert lower["change"]["median"] == 0.7 and lower["pairs"] == 5
    assert lower["change_over_parent"] == pytest.approx(0.7 / 1.2)
    # both gains beat the parent's interquartile range (0.2 s and 0)
    assert lower["gain_exceeds_parent_iqr"] and out["ops_per_s"]["gain_exceeds_parent_iqr"]
    assert lower["within_bound"] and out["ops_per_s"]["within_bound"]


def test_a_loss_wider_than_the_parent_iqr_is_no_gain(compare):
    # a lower-is-better metric that rose by 1.7 % at 0/10 wins read as a gain
    # while the gap was taken without its sign
    parent = runs(pass_s=[41.90, 41.91, 41.92, 41.92, 41.93], ops_per_s=[10] * 5)
    change = runs(pass_s=[42.60, 42.61, 42.62, 42.62, 42.63], ops_per_s=[9] * 5)
    out = compare(parent, change, SPEC)
    lower, higher = out["pass_s"], out["ops_per_s"]
    assert lower["change_wins"] == higher["change_wins"] == 0
    assert not lower["gain_exceeds_parent_iqr"] and not higher["gain_exceeds_parent_iqr"]
    assert "median_gap_exceeds_parent_iqr" not in lower
    # +1.7 % is inside the 25 % bound; -10 % sits on the higher metric's 10 % bound
    assert lower["within_bound"] and higher["within_bound"]


def test_within_bound_follows_the_better_direction(compare):
    parent = runs(pass_s=[1.0] * 4, ops_per_s=[10] * 4)
    change = runs(pass_s=[1.3] * 4, ops_per_s=[8.9] * 4)
    out = compare(parent, change, SPEC)
    assert not out["pass_s"]["within_bound"]  # 30 % slower, bound 25 %
    assert not out["ops_per_s"]["within_bound"]  # 11 % fewer, bound 10 %
    faster = compare(parent, runs(pass_s=[0.5] * 4, ops_per_s=[20] * 4), SPEC)
    assert faster["pass_s"]["within_bound"] and faster["ops_per_s"]["within_bound"]
    # equal runs: no wins, no gain, within bound
    same = compare(parent, parent, SPEC)["pass_s"]
    assert same["change_wins"] == 0 and not same["gain_exceeds_parent_iqr"]
    assert same["within_bound"]

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


def test_a_parent_spread_wider_than_the_bound_is_unresolved(compare):
    # medians 0.0528 -> 0.0307 s, but the parent's runs span more than the
    # 25 % bound: within bound, yet too spread to tell
    parent = runs(pass_s=[0.030, 0.040, 0.0528, 0.070, 0.090], ops_per_s=[10, 14, 18, 22, 26])
    change = runs(pass_s=[0.020, 0.025, 0.0307, 0.060, 0.080], ops_per_s=[12, 16, 20, 24, 28])
    out = compare(parent, change, SPEC)
    assert out["pass_s"]["within_bound"] and out["pass_s"]["unresolved"]
    assert out["ops_per_s"]["within_bound"] and out["ops_per_s"]["unresolved"]


def test_a_change_that_beats_every_parent_run_is_resolved(compare):
    # the same wide parent, but every change run reads better than every parent run
    parent = runs(pass_s=[0.030, 0.040, 0.0528, 0.070, 0.090], ops_per_s=[10, 14, 18, 22, 26])
    change = runs(pass_s=[0.010, 0.012, 0.015, 0.020, 0.029], ops_per_s=[27, 28, 30, 31, 40])
    out = compare(parent, change, SPEC)
    assert not out["pass_s"]["unresolved"] and not out["ops_per_s"]["unresolved"]
    # a tie with the parent's best run is no win over every run
    tied = compare(parent, runs(pass_s=[0.010, 0.012, 0.015, 0.020, 0.030], ops_per_s=[26] * 5), SPEC)
    assert tied["pass_s"]["unresolved"] and tied["ops_per_s"]["unresolved"]


def test_a_parent_spread_inside_the_bound_is_resolved(compare):
    # a tight parent resolves a loss as well as a gain: 30 % slower is out of bound, not unresolved
    parent = runs(pass_s=[1.0, 1.05, 1.1, 1.15, 1.2], ops_per_s=[10, 10, 10, 10, 10])
    slower = compare(parent, runs(pass_s=[1.4] * 5, ops_per_s=[8] * 5), SPEC)
    assert not slower["pass_s"]["within_bound"] and not slower["pass_s"]["unresolved"]
    assert not slower["ops_per_s"]["within_bound"] and not slower["ops_per_s"]["unresolved"]

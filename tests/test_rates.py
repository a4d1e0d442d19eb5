import itertools
import pathlib
import runpy
import sys
from fractions import Fraction

import pytest

from ppir.errors import ParameterError
from ppir.rates import (
    REGIME_INTERIOR,
    REGIME_MAX_SIDE,
    REGIME_NO_SIDE,
    REGIME_PIR_SI,
    fsi_rate,
    msi_rate_bounds,
    multi_rate,
    rate_report,
    regime_classify,
    usi_capacity,
)


def test_capacity_examples():
    assert usi_capacity((3, 3), (1, 1)) == Fraction(1, 4)
    assert usi_capacity((4, 4, 4), (0, 0, 0)) == Fraction(1, 3)
    assert usi_capacity((3, 3), (2, 2)) == Fraction(1, 2)  # = 1/(f - kappa)


def test_capacity_rejects_mixed_regime():
    with pytest.raises(ParameterError):
        usi_capacity((3, 3), (3, 1))
    with pytest.raises(ParameterError):
        usi_capacity((3,), (1,))


def test_regimes():
    assert regime_classify((4, 4), (0, 0)) == frozenset({REGIME_NO_SIDE})
    assert regime_classify((2, 2), (1, 1)) == frozenset(
        {REGIME_MAX_SIDE, REGIME_PIR_SI}
    )
    assert regime_classify((4, 2), (0, 1)) == frozenset({REGIME_INTERIOR})


def test_msi_bounds_examples():
    assert msi_rate_bounds(6, 3, 3, 1) == (Fraction(1, 3), Fraction(1, 3))
    assert msi_rate_bounds(6, 3, 3, 3)[1] == Fraction(1)
    assert msi_rate_bounds(5, 2, 2, 1) == (Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ParameterError):
        msi_rate_bounds(5, 2, 2, 3)


def test_fsi_rate_values():
    assert fsi_rate(3, 2) == Fraction(1, 2)
    assert fsi_rate(3, 3) == Fraction(1, 1)
    assert fsi_rate(2, 1) == Fraction(1, 2)
    with pytest.raises(ParameterError):
        fsi_rate(2, 0)


def test_multi_rate_values():
    assert multi_rate((4, 4), (1, 1), 2, 1) == Fraction(2, 6)
    assert multi_rate((3, 3), (1, 1), 2, 1) == Fraction(2, 4)
    assert multi_rate((3, 3), (1, 1), 1, 1) == usi_capacity((3, 3), (1, 1))
    with pytest.raises(ParameterError):
        multi_rate((3, 3), (2, 2), 2, 1)
    with pytest.raises(ParameterError):
        multi_rate((3, 3), (1, 1), 1, 3)


def all_instances_up_to(f_max):
    from conftest import compositions

    for f in range(2, f_max + 1):
        for gamma in range(2, f + 1):
            for sizes in compositions(f, gamma):
                for counts in itertools.product(*[range(mu) for mu in sizes]):
                    yield sizes, counts


def test_capacity_bounds_exhaustive_f8():
    for sizes, counts in all_instances_up_to(8):
        gamma = len(sizes)
        f = sum(sizes)
        kappa = sum(counts)
        cap = usi_capacity(sizes, counts)
        assert Fraction(1, f - kappa) <= cap <= Fraction(1, gamma)
        tags = regime_classify(sizes, counts)
        if REGIME_NO_SIDE in tags or REGIME_MAX_SIDE in tags:
            assert cap == Fraction(1, gamma)
        if REGIME_PIR_SI in tags:
            assert cap == Fraction(1, f - kappa)


def test_rate_report_flags():
    report = rate_report((4, 4), (0, 1), identified=1, demand=2, num_desired=1)
    doc = report.to_json()
    assert doc["status"]["capacity"] == "proved"
    assert doc["status"]["fsi_rate"] == "ACHIEVABLE-ONLY"
    assert doc["status"]["multi_rate"] == "ACHIEVABLE-ONLY"
    assert doc["capacity"] == {"num": 1, "den": 3}
    row = report.csv_row()
    assert row["capacity"] == "1/3"
    assert row["class_sizes"] == "4x4"


def test_rate_table_prints_one_row_per_grid_instance(monkeypatch, capsys):
    from ppir.harness import grid_instances

    script = pathlib.Path(__file__).parents[1] / "scripts" / "rate_table.py"
    main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(
        sys, "argv", ["rate_table.py", "--num-classes", "2", "--max-class-size", "3"]
    )
    main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "class_sizes,side_counts,capacity,ppir_rate,pir_si_rate,regimes"
    grid = grid_instances({"num_classes": [2], "max_class_size": 3}, (1,), 1)
    assert len(rows) == len(grid) == 21
    assert [row.split(",")[:2] for row in rows] == [
        ["x".join(map(str, p.class_sizes)), "x".join(map(str, p.side_counts))] for p in grid
    ]
    assert rows[0] == "1x1,0x0,1/2,1/2,1/2,max-side-info|no-side-info|pir-si-equivalent"


def test_rate_table_exits_141_quietly_on_a_closed_pipe():
    # `rate_table.py ... | head -2` used to end in a BrokenPipeError traceback, exit 1
    from conftest import run_script_into_closed_pipe

    proc = run_script_into_closed_pipe("rate_table.py", "--num-classes", "2", "--max-class-size", "3")
    assert (proc.returncode, proc.stderr) == (141, b"")

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ppir.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_capacity_command(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--class-sizes", "3,3", "--side-counts", "1,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["capacity"] == {"num": 1, "den": 4}
    assert doc["status"]["capacity"] == "proved"


def test_capacity_command_msi_regime(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--class-sizes", "2,3", "--side-counts", "2,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "mixed-side-information"
    assert doc["status"] == "CONJECTURE"
    assert doc["identified"] == 1


def test_oracle_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--class-sizes", "2,2",
        "--side-counts", "1,1",
        "--q", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower_bound"] == 2
    assert doc["upper_bound"] == 2
    assert doc["bruteforce"]["min_length"] == 2
    assert doc["bruteforce_matches_bound"]
    assert doc["certificate"]["ok"]


def test_oracle_reports_search_work_on_stderr(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--class-sizes", "1,1,1", "--side-counts", "0,0,0", "--q", "2"
    )
    assert code == 0
    doc = json.loads(out)
    # lengths 1 and 2 exhausted (7 + 21 candidates), the witness first at length 3;
    # no one column decodes three units after the empty prefix, nor two more
    # after one column, so that prefix and the three single-point orbits are
    # pruned and the witness is the only candidate checked
    assert doc["bruteforce"]["examined"] == 7 + 21 + 1
    assert "checked" not in doc["bruteforce"] and "pruned" not in doc["bruteforce"]
    assert err == "search: checked 1 of 29 candidates, pruned 4 prefixes, 3 group elements\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--t", "0", "--t must be at least 1, got 0"),
        ("--l-max", "0", "--l-max must be at least 1, got 0"),
        ("--l-max", "-2", "--l-max must be at least 1, got -2"),
        ("--budget", "-1", "--budget must be at least 0, got -1"),
    ],
)
def test_oracle_flags_that_describe_no_search_are_config_errors(capsys, flag, value, message):
    code, out, err = run_cli(
        capsys, "oracle", "--class-sizes", "2,2", "--side-counts", "1,1", "--q", "3", flag, value
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_audit_command_pass_and_mutant(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--class-sizes", "4,2",
        "--side-counts", "0,1",
        "--mode", "exact",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--class-sizes", "4,2",
        "--side-counts", "0,1",
        "--mode", "exact",
        "--mutant", "class-tag",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--mode", "statistical", "--trials", "0"), "error: --trials must be at least 32, got 0\n"),
        (("--q", "4"), "error: --q: q=4 is below 5, the longest code the usi scheme "
                       "needs for this instance\n"),
        (("--cap", "-5"), "error: --cap must be at least 1, got -5\n"),
        (("--mode", "statistical", "--cap", "0"), "error: --cap must be at least 1, got 0\n"),
        (("--mode", "statistical", "--trials", "16"), "error: --trials must be at least 32, got 16\n"),
    ],
)
def test_audit_flags_the_audit_cannot_run_are_config_errors(capsys, flags, message):
    code, out, err = run_cli(
        capsys, "audit", "--class-sizes", "3,3", "--side-counts", "1,1", *flags
    )
    assert code == 2 and out == ""
    assert err == message


@pytest.mark.parametrize("mutant", ("class-biased-selection", "side-parity-drop", "class-tag"))
def test_statistical_audit_at_its_least_trials_fails_every_mutant(capsys, mutant):
    # 16 trials, one per block, printed "verdict": "pass" for every mutant
    argv = ("audit", "--class-sizes", "4,2", "--side-counts", "0,1", "--mode", "statistical")
    code, out, _ = run_cli(capsys, *argv, "--trials", "32", "--mutant", mutant)
    assert code == 1 and json.loads(out)["verdict"] == "fail"
    code, out, _ = run_cli(capsys, *argv, "--trials", "32")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_exact_audit_reports_its_work_on_stderr(capsys):
    argv = ("audit", "--class-sizes", "4,2", "--side-counts", "0,1")
    code, out, err = run_cli(capsys, *argv, "--cap", "100")
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert err == (
        "audit: work 16 of cap 100, 4 (v, S) pairs, 1 answer lists counted, 4 distinct answers\n"
    )
    code, out, err = run_cli(capsys, *argv, "--mutant", "class-tag")
    assert code == 1
    assert err == (
        "audit: work 16 of cap 50000, 4 (v, S) pairs, 4 answer lists counted, "
        "8 distinct answers\n"
    )
    # the statistical audit asks the honest server once per distinct query of
    # a block, an overriding one on every trial
    stat = ("--mode", "statistical", "--trials", "32")
    code, out, err = run_cli(capsys, *argv, *stat)
    assert code == 0
    assert err == "audit: 32 trials in 16 blocks, 30 distinct (v, S) draws, 16 server asks\n"
    code, out, err = run_cli(capsys, *argv, *stat, "--mutant", "class-tag")
    assert code == 1
    assert err == "audit: 32 trials in 16 blocks, 30 distinct (v, S) draws, 32 server asks\n"


def test_audit_over_its_cap_is_a_config_error_on_stderr(capsys):
    # (5,5)/(2,2) needs 200 enumerations: past --cap 10 nothing reaches stdout
    code, out, err = run_cli(
        capsys, "audit", "--class-sizes", "5,5", "--side-counts", "2,2", "--cap", "10"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: exact audit needs 200 enumerations (cap 10)")
    assert err.count("\n") == 1


def test_oracle_keeps_a_field_below_the_scheme_code(capsys):
    # the scheme's [5, 3] codes need q >= 5, but the converse search over GF(2) is legitimate
    code, out, _ = run_cli(
        capsys, "oracle", "--class-sizes", "3,3", "--side-counts", "1,1", "--q", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["q"] == 2 and doc["bruteforce"]["min_length"] == 4


@pytest.mark.parametrize("extra", [(), ("--l-max", "4", "--budget", "100000")])
def test_oracle_exits_1_when_its_search_refutes_the_upper_bound(capsys, extra):
    # over GF(2) no code of length 3 serves (1,5)/(0,3), so the generic upper
    # bound 3, which needs q >= 12, fails; with the budget the search stops
    # at length 4 after exhausting lengths 1-3
    code, out, err = run_cli(
        capsys, "oracle", "--class-sizes", "1,5", "--side-counts", "0,3", "--q", "2", *extra
    )
    assert code == 1
    doc = json.loads(out)
    assert sorted(doc) == [
        "bruteforce", "generic_min_field_size", "instance", "lower_bound", "upper_bound"
    ]
    assert doc["upper_bound"] == 3 and doc["bruteforce"]["exhausted_lengths"] == [1, 2, 3]
    assert ("skipped" in doc["bruteforce"]) == bool(extra)
    assert err.splitlines()[-1] == (
        "upper bound 3 refuted over GF(2): the generic upper bound needs q >= 12"
    )


def test_audit_command_unknown_mutant(capsys):
    code, _, err = run_cli(
        capsys,
        "audit",
        "--class-sizes", "4,2",
        "--side-counts", "0,1",
        "--mutant", "nonsense",
    )
    assert code == 2
    assert "unknown mutant" in err


def test_run_command(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 5\ntrials: 3\nformat: both\n"
        "instances:\n  - class_sizes: [3, 3]\n    side_counts: [1, 1]\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", str(config), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["all_passed"]


def test_run_command_names_failed_checks_on_stderr(tmp_path, capsys, monkeypatch):
    from conftest import flip_first_decoded_symbol

    flip_first_decoded_symbol(monkeypatch, 5)
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 5\ntrials: 2\n"
        "instances:\n  - class_sizes: [3, 3]\n    side_counts: [1, 1]\n    q: 5\n"
    )
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", str(config), "--out", str(out_dir))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("failed: c3x3-s1x1-L1-q5 trial 0 (seed ")
    assert lines[0].endswith("): bit_exact")
    assert "failed_checks" not in (out_dir / "report.json").read_text()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "-3", "--trials must be an integer >= 0, got -3"),
        ("--seed", "-1", "--seed must be an integer >= 0, got -1"),
        ("--budget", "0", "--budget must be an integer >= 1, got 0"),
    ],
)
def test_run_command_checks_flags_like_the_config_keys(tmp_path, capsys, flag, value, message):
    # each flag was applied after the config was checked, so `--trials -3`
    # ran and reported "trials": -3 where `trials: -3` is refused
    config = tmp_path / "config.yaml"
    config.write_text(
        "trials: 1\ninstances:\n  - class_sizes: [3, 3]\n    side_counts: [1, 1]\n"
    )
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "run", str(config), flag, value, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()
    code, _, _ = run_cli(capsys, "run", str(config), "--trials", "0", "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "report.json").read_text())["config"]["trials"] == 0


def _one_instance_config(tmp_path, extra=""):
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 5\ntrials: 2\n" + extra
        + "instances:\n  - class_sizes: [3, 3]\n    side_counts: [1, 1]\n    q: 5\n"
    )
    return config


def test_run_command_without_out_prints_the_report(tmp_path, capsys):
    from ppir.harness import report_csv

    config = _one_instance_config(tmp_path)
    code, out, _ = run_cli(capsys, "run", str(config))
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] and report["config"]["instances"] == ["c3x3-s1x1-L1-q5"]
    code, csv_out, _ = run_cli(capsys, "run", str(config), "--format", "csv")
    assert code == 0 and csv_out == report_csv(report)


def test_run_command_format_flag_overrides_the_config(tmp_path, capsys):
    config = _one_instance_config(tmp_path, "format: json\n")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", str(config), "--format", "both", "--out", str(out_dir))
    assert code == 0
    assert out.splitlines() == [f"wrote {out_dir / 'report.json'}", f"wrote {out_dir / 'report.csv'}"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.csv", "report.json"]


def test_run_command_reports_an_exact_audit_over_its_cap_as_skipped(tmp_path, capsys):
    config = _one_instance_config(tmp_path, "audit: exact\naudit_cap: 1\n")
    code, out, _ = run_cli(capsys, "run", str(config))
    assert code == 0
    (summary,) = json.loads(out)["instances"]
    assert summary["audit"] == {
        "skipped": "exact audit needs 18 enumerations (cap 1); fall back to audit_statistical"
    }


def test_run_command_reports_an_oracle_over_its_cap_as_skipped(tmp_path, capsys):
    # 924^3 side sets pass the oracle's cap: that section keeps its bounds and
    # says why it stopped, and the other instance's oracle still runs
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 5\ntrials: 1\noracle:\n  enabled: true\ninstances:\n"
        "  - class_sizes: [3, 3]\n    side_counts: [1, 1]\n"
        "  - class_sizes: [12, 12, 12]\n    side_counts: [6, 6, 6]\n"
    )
    code, out, err = run_cli(capsys, "run", str(config))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["all_passed"] is True
    small, large = report["instances"]
    assert small["oracle"]["certificate_ok"] and "skipped" not in small["oracle"]
    assert large["oracle"] == {
        "lower_bound": 18,
        "upper_bound": 18,
        "sandwich_ok": True,
        "skipped": "788889024 side sets exceed cap 100000",
    }


def test_oracle_over_its_family_cap_is_a_config_error_on_stderr(capsys):
    argv = ("oracle", "--class-sizes", "12,12,12", "--side-counts", "6,6,6")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: 788889024 side sets exceed cap 100000\n")
    code, out, _ = run_cli(capsys, *argv, "--skip-search")  # the bounds list no side set
    assert code == 0 and json.loads(out)["lower_bound"] == 18


def test_run_command_without_records_keeps_the_failing_ones(tmp_path, capsys, monkeypatch):
    from conftest import flip_first_decoded_symbol

    flip_first_decoded_symbol(monkeypatch, 5)
    config = _one_instance_config(tmp_path, "include_records: false\n")
    code, out, _ = run_cli(capsys, "run", str(config))
    assert code == 1
    (summary,) = json.loads(out)["instances"]
    assert "records" not in summary and summary["failures"] == 2
    assert [r["index"] for r in summary["failing_records"]] == [0, 1]
    assert not any(r["success"] for r in summary["failing_records"])


def test_run_command_config_error(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    for text in (
        "instances:\n  - class_sizes: [2]\n    side_counts: [0]\n",
        "instances: [\n",  # not YAML
        "",  # no mapping
        b"\xff\xfe",  # UTF-16 byte-order mark, no document
        b"trials: \x80\n",  # not UTF-8
    ):
        if isinstance(text, bytes):
            config.write_bytes(text)
        else:
            config.write_text(text)
        code, _, err = run_cli(capsys, "run", str(config))
        assert code == 2
        assert err.startswith("error:")
    code, _, err = run_cli(capsys, "run", str(tmp_path / "missing.yaml"))
    assert code == 2 and err.startswith("error: cannot read config")


def test_replay_command(tmp_path, capsys):
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3), (1, 1), seed=2)
    query = usi_query(0, side)
    answer = usi_answer(query, store, 3)
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(answer_to_json(answer)))
    (tmp_path / "s.json").write_text(json.dumps(side_to_json(side, values)))
    code, out, _ = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["new_from_class"] == [2, 2]


def test_replay_command_fsi(tmp_path, capsys):
    # an fsi query, its answer and a side document keyed by position
    from conftest import make_world
    from ppir.model import positional_side_info
    from ppir.protocol import fsi_answer, fsi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, _ = make_world((2, 2, 2), (1, 1, 0), q=7, seed=0)
    side = positional_side_info(layout, side)
    values = {(i, p): store.messages[layout.class_members[i][p]] for i, p in side.label_set}
    query = fsi_query(2, side, params.class_sizes, 5)
    argv = ["replay"]
    for flag, doc in (
        ("--query", query_to_json(query)),
        ("--answer", answer_to_json(fsi_answer(query, store))),
        ("--side", side_to_json(side, values)),
    ):
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(doc))
        argv += [flag, str(path)]
    code, out, _ = run_cli(capsys, *argv, "--desired", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["new_from_class"][2] == 1
    want = [
        {"label": [i, p], "symbols": list(store.messages[layout.class_members[i][p]])}
        for i, p in enumerate(query.picks)
        if (i, p) not in values
    ]
    assert doc["decoded"] == want
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: fsi replay needs the desired class\n")
    held = query.known_flags.index(True)  # a class whose pick the side document holds
    code, out, err = run_cli(capsys, *argv, "--desired", str(held))
    assert (code, out, err) == (2, "", f"error: fsi pick for class {held} was not new\n")


def test_replay_command_desired_out_of_range(tmp_path, capsys):
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3, 3), (1, 1, 1), seed=2)
    query = usi_query(0, side)
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(answer_to_json(usi_answer(query, store, 3))))
    (tmp_path / "s.json").write_text(json.dumps(side_to_json(side, values)))
    for desired in ("7", "-1"):
        code, out, err = run_cli(
            capsys,
            "replay",
            "--query", str(tmp_path / "q.json"),
            "--answer", str(tmp_path / "a.json"),
            "--side", str(tmp_path / "s.json"),
            "--desired", desired,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_replay_command_inconsistent_answer(tmp_path, capsys):
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3), (1, 1), seed=2)
    query = usi_query(0, side)
    doc = answer_to_json(usi_answer(query, store, 3))
    doc["payloads"].append(doc["payloads"][1])  # class 1 twice
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "s.json").write_text(json.dumps(side_to_json(side, values)))
    code, out, err = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert code == 2 and out == ""
    assert "class 1 twice" in err and "Traceback" not in err


def test_replay_command_extra_parity_row(tmp_path, capsys):
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3), (1, 1), seed=2)
    query = usi_query(0, side)
    doc = answer_to_json(usi_answer(query, store, 3))
    rows = doc["payloads"][0]["symbols"]
    rows.append(rows[0])  # one row past the [5, 3] header's two
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "s.json").write_text(json.dumps(side_to_json(side, values)))
    code, out, err = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert code == 2 and out == ""
    assert "carries 3 rows" in err and "Traceback" not in err


@pytest.mark.parametrize("defect", ["row-longer-than-msg_len", "parity-identifier-repeated"])
def test_replay_command_rejects_malformed_answer_headers(tmp_path, capsys, defect):
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3), (1, 1), seed=2)
    query = usi_query(0, side)
    doc = answer_to_json(usi_answer(query, store, 3))
    if defect == "row-longer-than-msg_len":
        doc["payloads"][1]["symbols"][0].append(0)
    else:
        order = doc["payloads"][1]["identifier_order"]
        order[1] = order[0]
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "s.json").write_text(json.dumps(side_to_json(side, values)))
    code, out, err = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: payload 1 ") and "Traceback" not in err


def test_replay_command_malformed_side(tmp_path, capsys):
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3), (1, 1), seed=2)
    query = usi_query(0, side)
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(answer_to_json(usi_answer(query, store, 3))))

    def short_messages(doc):
        doc["messages"] = doc["messages"][:1]

    def repeated_label(doc):
        doc["labels"][1] = doc["labels"][0]

    def wrong_counts(doc):
        doc["per_class_counts"] = [2, 0]

    for mutate, reason in (
        (short_messages, "1 messages for 2 labels"),
        (repeated_label, "repeats a label"),
        (wrong_counts, "contradict"),
    ):
        doc = side_to_json(side, values)
        mutate(doc)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys,
            "replay",
            "--query", str(tmp_path / "q.json"),
            "--answer", str(tmp_path / "a.json"),
            "--side", str(tmp_path / "s.json"),
        )
        assert code == 2 and out == ""
        assert reason in err and "Traceback" not in err


@pytest.mark.parametrize("symbol", [True, 0.7, "0"])
@pytest.mark.parametrize("document", ["answer", "side"])
def test_replay_command_rejects_non_integer_symbols(tmp_path, capsys, document, symbol):
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3), (1, 1), seed=2)
    query = usi_query(0, side)
    answer_doc = answer_to_json(usi_answer(query, store, 3))
    side_doc = side_to_json(side, values)
    if document == "answer":
        answer_doc["payloads"][0]["symbols"][0][0] = symbol
    else:
        side_doc["messages"][0][0] = symbol
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(answer_doc))
    (tmp_path / "s.json").write_text(json.dumps(side_doc))
    code, out, err = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert code == 2 and out == ""
    assert "integer symbols only" in err and "Traceback" not in err


def test_replay_command_rejects_query_counts_that_contradict_the_side(tmp_path, capsys):
    # the usi decode never read the query's counts: this decoded with exit 0
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world((3, 3), (1, 1), msg_len=2, q=5, seed=2)
    query = usi_query(0, side)
    doc = query_to_json(query)
    assert doc["side_counts"] == [1, 1]
    doc["side_counts"] = [0, 1]
    (tmp_path / "q.json").write_text(json.dumps(doc))
    (tmp_path / "a.json").write_text(json.dumps(answer_to_json(usi_answer(query, store, 3))))
    (tmp_path / "s.json").write_text(json.dumps(side_to_json(side, values)))
    code, out, err = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: query side_counts [0, 1] contradict the side document's per_class_counts [1, 1]\n"
    )


def _replay_with(tmp_path, capsys, mutate, class_sizes=(3, 3), side_counts=(1, 1), q=None):
    """Run replay on a seeded usi round whose answer document mutate() has changed."""
    from conftest import make_world
    from ppir.protocol import usi_answer, usi_query
    from ppir.wire import answer_to_json, query_to_json, side_to_json

    params, layout, store, side, values = make_world(class_sizes, side_counts, seed=2, q=q)
    query = usi_query(0, side)
    doc = answer_to_json(usi_answer(query, store, 3))
    mutate(doc)
    (tmp_path / "q.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "s.json").write_text(json.dumps(side_to_json(side, values)))
    return run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )


@pytest.mark.parametrize("field", ["class_id", "code_length", "q", "msg_len"])
def test_replay_command_rejects_non_integer_headers(tmp_path, capsys, field):
    # int() read true and 0.7 as 1 and 0; two such class_ids decoded with exit 0
    def mutate(doc):
        if field in ("q", "msg_len"):
            doc[field] = 0.7 if field == "msg_len" else True
        else:
            for payload, value in zip(doc["payloads"], (True, 0.7)):
                payload[field] = value

    code, out, err = _replay_with(tmp_path, capsys, mutate)
    assert code == 2 and out == ""
    assert f"{field} must be an integer" in err and "Traceback" not in err


def test_replay_command_rejects_uncoded_symbols_outside_the_field(tmp_path, capsys):
    # both classes of (5, 5)/(1, 1) go uncoded; 999 over GF(2) used to print as a symbol
    def mutate(doc):
        assert doc["q"] == 2 and doc["payloads"][1]["mode"] == "uncoded"
        doc["payloads"][1]["symbols"][0][0] = 999

    code, out, err = _replay_with(tmp_path, capsys, mutate, (5, 5), (1, 1), q=2)
    assert code == 2 and out == ""
    assert "uncoded symbol outside [0, 2)" in err and "Traceback" not in err


def test_replay_command_rejects_an_answer_q_that_is_no_field_order(tmp_path, capsys):
    # an all-uncoded answer is never decoded, so "q": 6 used to replay with exit 0
    def mutate(doc):
        assert [p["mode"] for p in doc["payloads"]] == ["uncoded", "uncoded"]
        doc["q"] = 6

    code, out, err = _replay_with(tmp_path, capsys, mutate, (5, 5), (1, 1), q=2)
    assert code == 2 and out == ""
    assert err == "error: answer header q: q=6 is neither prime nor a power of two\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--class-sizes", "3,3", "--side-counts", "1,1", "--q", "6"),
        ("oracle", "--class-sizes", "2,2", "--side-counts", "1,1", "--q", "6"),
        ("oracle", "--class-sizes", "2,2", "--side-counts", "1,1", "--q", "9"),
    ],
)
def test_flag_q_that_is_no_field_order_is_a_config_error(capsys, argv):
    # used to print "error: q=6 is neither prime nor a power of two" with exit 1
    code, out, err = run_cli(capsys, *argv)
    q = argv[-1]
    assert code == 2 and out == ""
    assert err == f"error: --q: q={q} is neither prime nor a power of two\n"


@pytest.mark.parametrize("command, extra", [("oracle", ("--skip-search",)), ("audit", ())])
def test_flag_q_zero_is_a_config_error(capsys, command, extra):
    # --q 0 used to fall back to the automatic field size and exit 0
    argv = (command, "--class-sizes", "2,2", "--side-counts", "1,1", "--q", "0", *extra)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --q: field order must be an integer >= 2, got 0\n"


def test_run_command_q_that_is_no_field_order_is_config_error(tmp_path, capsys):
    config = tmp_path / "q6.yaml"
    config.write_text(
        "trials: 3\ninstances:\n  - class_sizes: [3, 3]\n    side_counts: [1, 1]\n    q: 6\n"
    )
    code, out, err = run_cli(capsys, "run", str(config))
    assert code == 2 and out == ""
    assert err == "error: instances[0].q: q=6 is neither prime nor a power of two\n"


def test_run_command_fsi_default_field_size(tmp_path, capsys):
    # q used to default to 3, too small for the [5, 3] joint code
    config = tmp_path / "fsi.yaml"
    config.write_text(
        "scheme: fsi\ntrials: 5\n"
        "instances:\n  - class_sizes: [2, 2, 2]\n    side_counts: [1, 1, 0]\n"
    )
    code, out, err = run_cli(capsys, "run", str(config), "--out", str(tmp_path / "out"))
    assert code == 0, err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["all_passed"]
    assert report["instances"][0]["q"] == 5


def test_replay_command_bad_file(tmp_path, capsys):
    (tmp_path / "a.json").write_text("{}")
    (tmp_path / "s.json").write_text("{}")
    for query in (json.dumps({"format": "wrong"}), "{not json", b"\xff\xfe"):
        if isinstance(query, bytes):
            (tmp_path / "q.json").write_bytes(query)
        else:
            (tmp_path / "q.json").write_text(query)
        code, _, err = run_cli(
            capsys,
            "replay",
            "--query", str(tmp_path / "q.json"),
            "--answer", str(tmp_path / "a.json"),
            "--side", str(tmp_path / "s.json"),
        )
        assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "missing.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert code == 2 and err.startswith("error: cannot read")


def test_run_command_demand_above_unheld_count_is_config_error(tmp_path, capsys):
    # class 2 of (2,2,2)/(0,0,1) has one unheld message; demand 2 used to fail
    # mid-run with exit 1, the code for a failed check
    config = tmp_path / "musi.yaml"
    config.write_text(
        "scheme: musi\ndemand: 2\ntrials: 3\n"
        "instances:\n  - class_sizes: [2, 2, 2]\n    side_counts: [0, 0, 1]\n"
    )
    code, out, err = run_cli(capsys, "run", str(config))
    assert code == 2 and out == ""
    assert err.startswith("error: instances[0]: class 2") and "Traceback" not in err


def test_run_command_explicit_q_below_code_length_is_config_error(tmp_path, capsys):
    # class 0 of (5,5)/(2,1) needs an [8, 5] code; q = 7 used to load and stop
    # mid-run with exit 1, the code for a failed check
    config = tmp_path / "small_q.yaml"
    config.write_text(
        "trials: 3\n"
        "instances:\n  - class_sizes: [5, 5]\n    side_counts: [2, 1]\n    q: 7\n"
    )
    code, out, err = run_cli(capsys, "run", str(config))
    assert code == 2 and out == ""
    assert err.startswith("error: instances[0].q: q=7 is below 8") and "Traceback" not in err


def test_escaped_exception_is_an_internal_error(monkeypatch, capsys):
    from ppir import rates

    def broken(*args, **kwargs):
        raise RuntimeError("rate table corrupted")

    monkeypatch.setattr(rates, "rate_report", broken)
    code, out, err = run_cli(
        capsys, "capacity", "--class-sizes", "3,3", "--side-counts", "1,1"
    )
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: rate table corrupted\n"


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, capsys, monkeypatch):
    with open(tmp_path / "stdout", "wb") as target:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
            code = main(["capacity", "--class-sizes", "3,3", "--side-counts", "1,1"])
        os.write(target.fileno(), b"flushed at exit")  # now lands in devnull
    assert code == 141
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


def test_closed_stdout_pipe_is_quiet_through_the_exit_flush():
    # a pipe whose read end is closed before the command starts: the report
    # is flushed at the end of main, so the broken pipe is caught there
    # instead of in the interpreter's own flush at exit
    import ppir

    src = str(pathlib.Path(ppir.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ppir.cli", "capacity", "--class-sizes", "3,3", "--side-counts", "1,1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("capacity", "--class-sizes", "3,3", "--side-counts", "1,1,1"),
         "side_counts must have one entry per class"),
        (("capacity", "--class-sizes", "3,3", "--side-counts", "5,1"), "class fully held"),
        (("oracle", "--class-sizes", "3", "--side-counts", "1", "--skip-search"),
         "at least two classes are required"),
        (("oracle", "--class-sizes", "3,3", "--side-counts", "1,1", "--t", "3", "--skip-search"),
         "demand must lie in [1, num_classes]"),
        (("audit", "--class-sizes", "3,3", "--side-counts", "1"),
         "side_counts must have one entry per class"),
    ],
)
def test_impossible_instance_flags_are_input_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_malformed_int_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["capacity", "--class-sizes", "3,x", "--side-counts", "1,1"])
    assert info.value.code == 2
    assert "invalid int_list value: '3,x'" in capsys.readouterr().err


def test_oracle_refuses_a_message_length(capsys):
    # nothing the oracle prints reads one, and --msg-len 0 used to exit 2
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--class-sizes", "2,2", "--side-counts", "1,1", "--msg-len", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --msg-len 1" in capsys.readouterr().err

import json

import pytest

from conftest import make_world
from ppir.errors import ConfigError, ProtocolViolationError
from ppir.harness import (
    auto_field_size,
    config_from_dict,
    instance_id,
    load_config,
    replay,
    report_csv,
    run_experiment,
    run_trial,
    trial_seed,
    write_report,
)
from ppir.model import held_messages, sample_side_info
from ppir.protocol import decode_answer, usi_answer, usi_query
from ppir.wire import answer_to_json, query_to_json, side_to_json


def test_auto_field_size():
    assert auto_field_size((4, 4), (0, 0)) == 2  # all uncoded
    assert auto_field_size((3, 3), (1, 1)) == 5  # [5,3] codes
    assert auto_field_size((5, 5), (2, 2)) == 11  # [8,5] codes
    assert auto_field_size((4, 4), (1, 1), demand=2) == 7


def test_trial_seeds_are_stable_and_distinct():
    a = trial_seed(1, "x", 0)
    assert a == trial_seed(1, "x", 0)
    assert a != trial_seed(1, "x", 1)
    assert a != trial_seed(2, "x", 0)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"instances": [{"class_sizes": [2], "side_counts": [0]}]})
    with pytest.raises(ConfigError):
        config_from_dict({"instances": [], "unknown_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({})  # no instances
    with pytest.raises(ConfigError):
        config_from_dict(
            {"instances": [{"class_sizes": [2, 2], "side_counts": [0]}]}
        )


def test_config_refuses_mixed_side_information():
    with pytest.raises(ConfigError, match="mixed-side-information"):
        config_from_dict(
            {"instances": [{"class_sizes": [2, 3], "side_counts": [2, 1]}]}
        )


def test_config_grid_expansion():
    config = config_from_dict(
        {"grid": {"num_classes": [2], "max_class_size": 2}, "trials": 1}
    )
    shapes = {(p.class_sizes, p.side_counts) for p in config.instances}
    assert ((1, 1), (0, 0)) in shapes
    assert ((2, 2), (1, 1)) in shapes
    assert len(shapes) == 6  # pairs over {(1,0),(2,0),(2,1)} up to relabeling
    # the acceptance grid the tests and scripts share must never shrink
    config = config_from_dict(
        {"grid": {"num_classes": [2, 3], "max_class_size": 5, "msg_len": [1, 4]}}
    )
    ids = [instance_id(p) for p in config.instances]
    assert len(set(ids)) == len(ids) == 1600
    for msg_len in (1, 4):
        assert sum(1 for p in config.instances if p.msg_len == msg_len) == 800


def test_run_trial_usi_success():
    from ppir.model import InstanceParams

    params = InstanceParams((3, 3), (1, 1), msg_len=2, q=5)
    record = run_trial(params, 99, "usi", 1, 1)
    assert record.success
    assert record.download_symbols == 8
    assert all(n >= 1 for n in record.new_from_class)


def test_run_experiment_report_and_reproducibility(tmp_path):
    doc = {
        "seed": 7,
        "trials": 5,
        "instances": [
            {"class_sizes": [3, 3], "side_counts": [1, 1]},
            {"class_sizes": [4, 2], "side_counts": [0, 1]},
        ],
    }
    report1, ok1 = run_experiment(config_from_dict(doc))
    report2, ok2 = run_experiment(config_from_dict(doc))
    assert ok1 and ok2
    assert json.dumps(report1, sort_keys=True) == json.dumps(report2, sort_keys=True)
    for inst in report1["instances"]:
        assert inst["failures"] == 0
        assert inst["rate_equals_capacity"]
        assert inst["rates"] == [inst["capacity"]]
    paths = write_report(report1, tmp_path, ("json", "csv"))
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()
    csv_text = report_csv(report1)
    assert "rate_equals_capacity" in csv_text.splitlines()[0]
    assert "3x3" in csv_text


def test_run_experiment_trials_zero_oracle_only():
    doc = {
        "trials": 0,
        "instances": [{"class_sizes": [2, 2], "side_counts": [1, 1]}],
        "oracle": {"enabled": True, "l_max": 2},
    }
    report, ok = run_experiment(config_from_dict(doc))
    assert ok
    section = report["instances"][0]["oracle"]
    assert section["lower_bound"] == 2
    assert section["upper_bound"] == 2
    assert section["bruteforce"]["min_length"] == 2
    assert section["certificate_ok"]
    assert report["instances"][0]["records"] == []


def test_run_experiment_fsi_and_musi():
    fsi_doc = {
        "scheme": "fsi",
        "trials": 10,
        "instances": [{"class_sizes": [3, 3], "side_counts": [1, 1], "q": 7}],
    }
    report, ok = run_experiment(config_from_dict(fsi_doc))
    assert ok
    musi_doc = {
        "scheme": "musi",
        "demand": 2,
        "trials": 10,
        "instances": [{"class_sizes": [4, 4], "side_counts": [1, 1], "q": 7}],
    }
    report, ok = run_experiment(config_from_dict(musi_doc))
    assert ok
    assert report["instances"][0]["download_symbols"] == [6]


def test_run_experiment_audit_section():
    doc = {
        "trials": 2,
        "audit": "exact",
        "instances": [{"class_sizes": [2, 2], "side_counts": [1, 1]}],
    }
    report, ok = run_experiment(config_from_dict(doc))
    assert ok
    assert report["instances"][0]["audit"]["verdict"] == "pass"


def test_load_config_yaml(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "seed: 3\ntrials: 2\ninstances:\n"
        "  - class_sizes: [3, 3]\n    side_counts: [1, 1]\n"
    )
    config = load_config(path)
    assert config.master_seed == 3
    assert instance_id(config.instances[0]) == "c3x3-s1x1-L1-q5"


def _write_trial_files(tmp_path, seed=5):
    params, layout, store, side, values = make_world((3, 3), (1, 1), seed=seed)
    query = usi_query(0, side)
    answer = usi_answer(query, store, seed + 1)
    (tmp_path / "query.json").write_text(json.dumps(query_to_json(query)))
    (tmp_path / "answer.json").write_text(json.dumps(answer_to_json(answer)))
    (tmp_path / "side.json").write_text(json.dumps(side_to_json(side, values)))
    return params, layout, store, side, values, query, answer


def test_replay_round_trip(tmp_path):
    _, _, store, side, values, query, answer = _write_trial_files(tmp_path)
    direct = decode_answer(answer, side, values)
    replayed = replay(
        tmp_path / "query.json", tmp_path / "answer.json", tmp_path / "side.json"
    )
    assert replayed == direct


def _cut_symbols(doc):
    doc["payloads"][0]["symbols"] = doc["payloads"][0]["symbols"][:1]


def _drop_last_payload(doc):
    doc["payloads"] = doc["payloads"][:-1]


def test_replay_truncated_payload(tmp_path):
    for truncate in (_cut_symbols, _drop_last_payload):
        _write_trial_files(tmp_path)
        doc = json.loads((tmp_path / "answer.json").read_text())
        truncate(doc)
        (tmp_path / "answer.json").write_text(json.dumps(doc))
        with pytest.raises(ProtocolViolationError):
            replay(tmp_path / "query.json", tmp_path / "answer.json", tmp_path / "side.json")


def test_replay_against_other_side_same_counts(tmp_path):
    params, layout, store, side, values, query, answer = _write_trial_files(tmp_path)
    other = sample_side_info(layout, 12345)
    other_values = held_messages(store, other)
    (tmp_path / "side.json").write_text(json.dumps(side_to_json(other, other_values)))
    result = replay(
        tmp_path / "query.json", tmp_path / "answer.json", tmp_path / "side.json"
    )
    assert all(n >= 1 for n in result.new_from_class)

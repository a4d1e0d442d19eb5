import json

import pytest

from conftest import flip_first_decoded_symbol, make_world
from ppir.errors import ConfigError, ProtocolViolationError
from ppir.harness import (
    auto_field_size,
    config_from_dict,
    grid_instances,
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
    # fsi also needs the [2*Gamma - eta + 1, Gamma] joint code
    assert auto_field_size((2, 2, 2), (1, 1, 0)) == 3
    assert auto_field_size((2, 2, 2), (1, 1, 0), scheme="fsi") == 5  # [5, 3]
    assert auto_field_size((4, 2), (1, 0), scheme="fsi") == 5  # [4, 2]
    assert auto_field_size((4, 4, 4), (0, 0, 0), scheme="fsi") == 7  # eta = 1: [6, 3]
    # where the class codes already need more, q does not move
    assert auto_field_size((5, 5), (2, 2), scheme="fsi") == 11


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


_VALID = {"instances": [{"class_sizes": [3, 3], "side_counts": [1, 1]}]}


def _with(path, value):
    """A copy of _VALID with the key at path (a tuple of keys and indices) set."""
    doc = json.loads(json.dumps(_VALID))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _without(path):
    doc = _with(path, None)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    del node[last]
    return doc


_GRID = {"num_classes": [2], "max_class_size": 2}

# one rejected config per validation rule; the third column is the key path
# the error message names
_REJECTED = [
    ("root not a mapping", [_VALID], "config"),
    ("unknown top-level key", _with(("unknown_key",), 1), "unknown_key"),
    ("seed type", _with(("seed",), "7"), "seed"),
    ("seed minimum", _with(("seed",), -1), "seed"),
    ("scheme enum", _with(("scheme",), "pir"), "scheme"),
    ("demand type", _with(("demand",), "2"), "demand"),
    ("demand minimum", _with(("demand",), 0), "demand"),
    ("num_desired minimum", _with(("num_desired",), 0), "num_desired"),
    ("trials type", _with(("trials",), [1]), "trials"),
    ("trials minimum", _with(("trials",), -1), "trials"),
    ("msg_len minimum", _with(("msg_len",), 0), "msg_len"),
    ("instances type", _with(("instances",), {"class_sizes": [3, 3]}), "instances"),
    ("instance type", _with(("instances", 0), [3, 3]), "instances[0]"),
    ("instance unknown key", _with(("instances", 0, "size"), 3), "instances[0].size"),
    ("instance missing class_sizes", _without(("instances", 0, "class_sizes")), "instances[0].class_sizes"),
    ("instance missing side_counts", _without(("instances", 0, "side_counts")), "instances[0].side_counts"),
    ("class_sizes type", _with(("instances", 0, "class_sizes"), "3,3"), "instances[0].class_sizes"),
    ("class_sizes minItems", _with(("instances", 0, "class_sizes"), [3]), "instances[0].class_sizes"),
    ("class size type", _with(("instances", 0, "class_sizes", 1), "3"), "instances[0].class_sizes[1]"),
    ("class size minimum", _with(("instances", 0, "class_sizes", 1), 0), "instances[0].class_sizes[1]"),
    ("side_counts type", _with(("instances", 0, "side_counts"), 1), "instances[0].side_counts"),
    ("side count minimum", _with(("instances", 0, "side_counts", 0), -1), "instances[0].side_counts[0]"),
    ("q type", _with(("instances", 0, "q"), "5"), "instances[0].q"),
    ("q bool", _with(("instances", 0, "q"), True), "instances[0].q"),
    ("q minimum", _with(("instances", 0, "q"), 1), "instances[0].q"),
    ("instance msg_len minimum", _with(("instances", 0, "msg_len"), 0), "instances[0].msg_len"),
    ("grid type", _with(("grid",), [2, 3]), "grid"),
    ("grid unknown key", _with(("grid",), {**_GRID, "q": 5}), "grid.q"),
    ("grid missing num_classes", _with(("grid",), {"max_class_size": 2}), "grid.num_classes"),
    ("grid missing max_class_size", _with(("grid",), {"num_classes": [2]}), "grid.max_class_size"),
    ("grid num_classes type", _with(("grid",), {**_GRID, "num_classes": 2}), "grid.num_classes"),
    ("grid num_classes minimum", _with(("grid",), {**_GRID, "num_classes": [2, 1]}), "grid.num_classes[1]"),
    ("grid max_class_size minimum", _with(("grid",), {**_GRID, "max_class_size": 0}), "grid.max_class_size"),
    ("grid msg_len type", _with(("grid",), {**_GRID, "msg_len": 1}), "grid.msg_len"),
    ("grid msg_len minimum", _with(("grid",), {**_GRID, "msg_len": [0]}), "grid.msg_len[0]"),
    ("oracle type", _with(("oracle",), True), "oracle"),
    ("oracle unknown key", _with(("oracle",), {"enable": True}), "oracle.enable"),
    ("oracle enabled type", _with(("oracle",), {"enabled": 1}), "oracle.enabled"),
    ("oracle budget minimum", _with(("oracle",), {"budget": 0}), "oracle.budget"),
    ("oracle l_max minimum", _with(("oracle",), {"l_max": 0}), "oracle.l_max"),
    ("audit enum", _with(("audit",), "full"), "audit"),
    ("audit_trials minimum", _with(("audit_trials",), 0), "audit_trials"),
    ("audit_cap minimum", _with(("audit_cap",), 0), "audit_cap"),
    ("output type", _with(("output",), 3), "output"),
    ("format enum", _with(("format",), "xml"), "format"),
    ("include_records type", _with(("include_records",), "yes"), "include_records"),
    # integral floats: a schema "integer" used to accept them
    ("seed float", _with(("seed",), 1.0), "seed"),
    ("trials float", _with(("trials",), 2.0), "trials"),
    ("msg_len float", _with(("msg_len",), 2.0), "msg_len"),
    ("demand float", _with(("demand",), 1.0), "demand"),
    ("class size float", _with(("instances", 0, "class_sizes", 0), 3.0), "instances[0].class_sizes[0]"),
    ("side count float", _with(("instances", 0, "side_counts", 1), 1.0), "instances[0].side_counts[1]"),
    ("q float", _with(("instances", 0, "q"), 5.0), "instances[0].q"),
    ("grid max_class_size float", _with(("grid",), {**_GRID, "max_class_size": 2.0}), "grid.max_class_size"),
    ("oracle budget float", _with(("oracle",), {"budget": 1e6}), "oracle.budget"),
    ("audit_cap float", _with(("audit_cap",), 5e4), "audit_cap"),
]


@pytest.mark.parametrize("doc", [d for _, d, _ in _REJECTED], ids=[n for n, _, _ in _REJECTED])
def test_config_rejects_each_schema_rule(doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc)


@pytest.mark.parametrize("doc,path", [(d, p) for _, d, p in _REJECTED], ids=[n for n, _, _ in _REJECTED])
def test_config_error_names_the_key_path(doc, path):
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    assert str(info.value).startswith(path + " ")


def test_config_rejects_demand_above_unheld_count():
    # (2,2,2)/(0,0,1) leaves one unheld message in class 2: the run used to fail
    # in usi_answer with UnsupportedParametersError
    doc = _with(("instances", 0), {"class_sizes": [2, 2, 2], "side_counts": [0, 0, 1]})
    # fsi too: its oracle section sends a usi answer at the configured demand
    for scheme in ("usi", "musi", "fsi"):
        with pytest.raises(ConfigError, match=r"instances\[0\]: class 2 .* demand 2"):
            config_from_dict({**doc, "scheme": scheme, "demand": 2})
        assert config_from_dict({**doc, "scheme": scheme, "demand": 1}).demand == 1


def test_explicit_and_grid_instances_share_the_demand_rule():
    # the grid leaves out exactly the instances an explicit list rejects
    grid = {"num_classes": [2], "max_class_size": 3}
    for scheme in ("usi", "fsi"):
        kept = config_from_dict({"scheme": scheme, "demand": 2, "grid": grid}).instances
        for params in grid_instances(grid, [1], 1, scheme):
            item = {"class_sizes": list(params.class_sizes),
                    "side_counts": list(params.side_counts)}
            doc = {"scheme": scheme, "demand": 2, "instances": [item]}
            short = any(mu - k < 2 for mu, k in zip(params.class_sizes, params.side_counts))
            if short:
                with pytest.raises(ConfigError, match="below demand 2"):
                    config_from_dict(doc)
            else:
                explicit = config_from_dict(doc).instances[0]
                assert explicit in kept
        assert all(
            min(mu - k for mu, k in zip(p.class_sizes, p.side_counts)) >= 2 for p in kept
        )


def test_config_rejects_more_desired_classes_than_classes():
    doc = {**_VALID, "scheme": "musi", "num_desired": 3}
    with pytest.raises(ConfigError, match="num_desired 3 exceeds the 2 classes"):
        config_from_dict(doc)
    assert config_from_dict({**doc, "num_desired": 2}).num_desired == 2


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


def test_run_trial_names_failed_checks(monkeypatch):
    from ppir.model import InstanceParams

    params = InstanceParams((3, 3), (1, 1), msg_len=2, q=5)
    honest = run_trial(params, 99, "usi", 1, 1)
    assert honest.success and honest.failed_checks == ()
    flip_first_decoded_symbol(monkeypatch, params.q)
    record = run_trial(params, 99, "usi", 1, 1)
    assert record.failed_checks == ("bit_exact",)
    assert not record.success
    # the check names stay out of the record's JSON, so out of report.json
    assert set(record.to_json()) == set(honest.to_json())
    assert {k: v for k, v in record.to_json().items() if k != "success"} == {
        k: v for k, v in honest.to_json().items() if k != "success"
    }


def test_run_experiment_prints_failing_records_to_stderr(monkeypatch, capsys):
    doc = {"seed": 3, "trials": 4, "instances": [{"class_sizes": [3, 3], "side_counts": [1, 1]}]}
    config = config_from_dict(doc)
    report, ok = run_experiment(config)
    assert ok and capsys.readouterr().err == ""
    flip_first_decoded_symbol(monkeypatch, config.instances[0].q)
    report, ok = run_experiment(config)
    assert not ok
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" (seed ")[0] for line in lines] == [
        f"failed: c3x3-s1x1-L1-q5 trial {t}" for t in range(4)
    ]
    assert all(line.endswith("): bit_exact") for line in lines)
    assert report["instances"][0]["failures"] == 4


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


def test_run_experiment_fsi_audit_is_the_query_audit():
    # an fsi run audits fsi_query, not the usi server it never uses
    doc = {
        "scheme": "fsi",
        "trials": 2,
        "audit": "exact",
        "instances": [{"class_sizes": [3, 2], "side_counts": [1, 0]}],
    }
    report, ok = run_experiment(config_from_dict(doc))
    assert ok
    section = report["instances"][0]["audit"]
    assert section["server"] == "fsi-user"
    assert section["scope"] == "query-marginal-v-invariance"
    assert section["verdict"] == "pass"


def test_config_rejects_fsi_statistical_audit():
    doc = {
        "scheme": "fsi",
        "audit": "statistical",
        "instances": [{"class_sizes": [3, 2], "side_counts": [1, 0]}],
    }
    with pytest.raises(ConfigError, match="no statistical audit"):
        config_from_dict(doc)


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

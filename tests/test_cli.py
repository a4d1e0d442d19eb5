import json

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


def test_run_command_config_error(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("instances:\n  - class_sizes: [2]\n    side_counts: [0]\n")
    code, _, err = run_cli(capsys, "run", str(config))
    assert code == 2
    assert "error" in err


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
        assert code != 0 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_replay_command_bad_file(tmp_path, capsys):
    (tmp_path / "q.json").write_text(json.dumps({"format": "wrong"}))
    (tmp_path / "a.json").write_text("{}")
    (tmp_path / "s.json").write_text("{}")
    code, _, err = run_cli(
        capsys,
        "replay",
        "--query", str(tmp_path / "q.json"),
        "--answer", str(tmp_path / "a.json"),
        "--side", str(tmp_path / "s.json"),
    )
    assert code == 2

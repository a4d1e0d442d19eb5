"""Byte-identity guard: output digests recorded at commit 069def6.

The other tests check that a report is the same run to run; these check that
it is the same across commits.  Each case runs a small config through
`ppir run`, or one CLI command, and compares the sha256 of the bytes it
writes, with its exit code, to the digest recorded at 069def6.  A change
that moves any of these bytes must say why and record new digests.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest
import yaml

from ppir import model, protocol, wire
from ppir.cli import main
from ppir.model import InstanceParams

RUNS = {
    "usi-oracle-exact": {
        "seed": 11,
        "trials": 12,
        "instances": [
            {"class_sizes": [2, 2], "side_counts": [1, 1]},
            {"class_sizes": [3, 2], "side_counts": [1, 0]},
            {"class_sizes": [3, 2, 2], "side_counts": [1, 0, 1], "msg_len": 3},
        ],
        "oracle": {"enabled": True, "l_max": 4},
        "audit": "exact",
        "format": "both",
    },
    "musi": {
        "seed": 12,
        "trials": 12,
        "scheme": "musi",
        "demand": 2,
        "num_desired": 2,
        "msg_len": 2,
        "instances": [
            {"class_sizes": [4, 3], "side_counts": [1, 0]},
            {"class_sizes": [5, 4, 3], "side_counts": [1, 2, 0]},
        ],
        "oracle": {"enabled": True},
        "audit": "exact",
    },
    "fsi": {
        "seed": 13,
        "trials": 12,
        "scheme": "fsi",
        "instances": [
            {"class_sizes": [3, 3], "side_counts": [1, 0]},
            {"class_sizes": [2, 3, 2], "side_counts": [1, 1, 0], "msg_len": 2},
        ],
        "oracle": {"enabled": True, "l_max": 3},
        "audit": "exact",
    },
    "usi-statistical": {
        "seed": 14,
        "trials": 4,
        "instances": [{"class_sizes": [4, 3], "side_counts": [1, 1]}],
        "audit": "statistical",
        "audit_trials": 400,
        "include_records": False,
    },
}

COMMANDS = {
    "capacity": ["capacity", "--class-sizes", "3,4,2", "--side-counts", "1,1,0"],
    "capacity-fsi-multi": [
        "capacity", "--class-sizes", "5,4", "--side-counts", "1,2",
        "--identified", "2", "--demand", "2", "--num-desired", "2",
    ],
    "capacity-mixed": ["capacity", "--class-sizes", "2,3", "--side-counts", "2,1"],
    "capacity-infeasible-demand": [
        "capacity", "--class-sizes", "3,3", "--side-counts", "1,1", "--demand", "3",
    ],
    "oracle": ["oracle", "--class-sizes", "2,2", "--side-counts", "1,1", "--q", "3"],
    "oracle-partial-demand": [
        "oracle", "--class-sizes", "3,2", "--side-counts", "1,0", "--t", "1",
    ],
    "oracle-over-budget": [
        "oracle", "--class-sizes", "3,3", "--side-counts", "1,1", "--budget", "1000",
    ],
    "audit-exact": ["audit", "--class-sizes", "3,2", "--side-counts", "1,0"],
    "audit-mutant": [
        "audit", "--class-sizes", "4,2", "--side-counts", "0,1", "--mutant", "side-parity-drop",
    ],
    "audit-statistical": [
        "audit", "--class-sizes", "4,3", "--side-counts", "1,1",
        "--mode", "statistical", "--trials", "400", "--seed", "5",
    ],
}

RECORDED = {
    "usi-oracle-exact": (
        0,
        "report.csv:99866aa0f144f1eda078c9771666e1cba1dee9e608b2fb24eed428688cb0a395",
        "report.json:fe07444dc4776893518e8f323f39af3559020b807a5a66f4f600394a5e5b1bf6",
    ),
    "musi": (0, "report.json:a9b3c40bd09dea5aed701d71e77988d7cd5038ded452fa84b91d5a2adb66ffb0"),
    "fsi": (0, "report.json:0babe1dbc79e68302f0ebb8d24fe4312e1c23a7708c72fe4b0eb8a88f8b4a101"),
    "usi-statistical": (
        0, "report.json:d955f0c353c233d0a5afee6ac76c1f15da569c547581981069e40919ac3ff855"
    ),
    "capacity": (0, "e95e8262e8bec9cf7a9bc10cbef46a474289dfe21beaa9edbbe506627cc40e1d"),
    "capacity-fsi-multi": (0, "d84e82e893dc11d1c410c719be5b15d80ea57227e2b02aa7f058879f5403cd7f"),
    "capacity-mixed": (0, "ccc311dc2a08d884ddccb2f5e103c3e6d46225a7c359cb872f418653f27f2ebd"),
    # exit 2 and nothing on stdout
    "capacity-infeasible-demand": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    "oracle": (0, "11e64b60132ef3efa2f38fa18cc8c9547f13ee22a39fe5a561bf5ffbd9041c40"),
    "oracle-partial-demand": (0, "906a312474f8cdd6c85850a0927e1bcb967c8f7a033b0a94064830dcdb586e4d"),
    "oracle-over-budget": (0, "b02d0f451253554882c39cbbe425848b57827b3150581ce8099ec0091c05866e"),
    "audit-exact": (0, "2d7d53d8d1f29fdbc5b01367614023e8b03ca2ec56a6950b2a9187dc3125f857"),
    "audit-mutant": (1, "a70f0879caff47cb41c8e3b115b886347d03c9c023b72663c9aa930e6257c870"),
    "audit-statistical": (0, "bafc1e483845d29c56d933ee80bc67b826c7e5a7930ae3e9c5fd7ec07fbaf308"),
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def digests(tmp_path) -> dict:
    """name -> (exit code, sha256 of each output), for every case above."""
    out = {}
    for name, config in RUNS.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(config))
        report_dir = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):  # "wrote <path>" lines
            code = main(["run", str(path), "--out", str(report_dir)])
        files = sorted(report_dir.iterdir())
        out[name] = (code, *(f"{f.name}:{_sha(f.read_bytes())}" for f in files))
    for name, argv in COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        out[name] = (code, _sha(stdout.getvalue().encode()))
    return out


def test_outputs_match_the_recorded_digests(tmp_path):
    got = digests(tmp_path)
    assert set(got) == set(RECORDED)
    for name, want in RECORDED.items():
        assert got[name] == want, name


# Long-message rounds reach the packed MDS kernel (msg_len >= 16), which the
# runs above (msg_len <= 3) never do.  name -> (class sizes, side counts, q,
# msg_len, scheme, demand); digests recorded at c322fdc.
LONG_ROUNDS = {
    "usi-30-20-q257": ((20, 20, 3), (10, 10, 0), 257, 2000, "usi", 1),
    "usi-30-20-q65536": ((20, 20, 3), (10, 10, 0), 65536, 1000, "usi", 1),
    "usi-8-5-q256": ((5, 5), (2, 2), 256, 4000, "usi", 1),
    "musi-30-20-q257": ((20, 20, 3), (10, 10, 0), 257, 2000, "musi", 2),
    "fsi-13-8-q257": ((3,) * 8, (1, 1, 1, 1, 0, 0, 0, 0), 257, 2000, "fsi", 1),
}
LONG_ROUND_COUNT = 3

LONG_RECORDED = {
    "usi-30-20-q257": (
        "answers:af791c5d9e906f66d1f06162f0434b6276fb9f94e560c91da29abbfb192be07c",
        "decoded:dffd4ad0d710ca3fc3d62c2a66c77818bcd37a7ba23dff3df87d087348e10a0b",
    ),
    "usi-30-20-q65536": (
        "answers:e3d37efcd7d0fa080ca413750f77d5e1ebb369189d6928be3cc20fefcb47bc38",
        "decoded:afa25b4e1f4e1c5614444f99df48fbcbdcfa7275360a3d071b8d0137bd77d99a",
    ),
    "usi-8-5-q256": (
        "answers:aba425d7eb36b77bd5170531050edcf16be555738cee9fcffa331b63191a11b7",
        "decoded:3878fd4ef94d984ce9d9f10f11bd4d642f5ac3d8803243ea612fa7602263b442",
    ),
    "musi-30-20-q257": (
        "answers:2a1a477c467c204f543b0edd860c90f06146deb360d36edec7a8d71782c8cb33",
        "decoded:25428b6228961dbc105330969b51e875072cac7c5f51b32169245d83e0644e5a",
    ),
    "fsi-13-8-q257": (
        "answers:7d524983034fa79a06774f8db82bf104a6bfe9d724151bbfd61bbd3431cc3109",
        "decoded:ebb627a3bd9dd5cbb31cd9325b3e35f2e0205a2a7a6b296c743fd7c9ee8aa069",
    ),
}


def long_round_digests(name) -> tuple:
    """sha256 of the canonical answer bytes and of the decoded symbols.

    Each round is served, written to the wire, read back and decoded, as a
    user would; the digests run over LONG_ROUND_COUNT seeded rounds.
    """
    sizes, counts, q, length, scheme, demand = LONG_ROUNDS[name]
    params = InstanceParams(sizes, counts, msg_len=length, q=q)
    layout = model.build_layout(params, 41)
    store = model.random_store(layout, 42)
    rng = random.Random(43)
    answers, decoded = hashlib.sha256(), hashlib.sha256()
    for _ in range(LONG_ROUND_COUNT):
        side = model.sample_side_info(layout, rng)
        v = rng.randrange(params.num_classes)
        if scheme == "fsi":
            side = model.positional_side_info(layout, side)
            values = {
                lab: store.messages[layout.class_members[lab[0]][lab[1]]]
                for lab in side.label_set
            }
            query = protocol.fsi_query(v, side, sizes, rng)
            answer = protocol.fsi_answer(query, store)
        else:
            values = model.held_messages(store, side)
            query = protocol.usi_query(v, side, demand=demand)
            answer = protocol.usi_answer(query, store, rng)
        blob = wire.canonical_bytes(wire.answer_to_json(answer))
        side_blob = wire.canonical_bytes(wire.side_to_json(side, values))
        got = wire.answer_from_json(json.loads(blob))
        got_side, got_values = wire.side_from_json(json.loads(side_blob))
        if scheme == "fsi":
            result = protocol.fsi_decode(got, query, got_side, got_values, v)
        else:
            result = protocol.decode_answer(got, got_side, got_values, demand=demand)
        answers.update(blob)
        decoded.update(json.dumps(result.decoded).encode())
    return f"answers:{answers.hexdigest()}", f"decoded:{decoded.hexdigest()}"


@pytest.mark.parametrize("name", sorted(LONG_ROUNDS))
def test_long_message_rounds_match_the_recorded_digests(name):
    assert long_round_digests(name) == LONG_RECORDED[name]

import json

import pytest

from conftest import make_world
from ppir.errors import WireFormatError
from ppir.model import positional_side_info
from ppir.protocol import fsi_answer, fsi_query, usi_answer, usi_query
from ppir.wire import (
    answer_from_json,
    answer_to_json,
    canonical_bytes,
    query_from_json,
    query_to_json,
    side_from_json,
    side_to_json,
)


def test_canonical_bytes_are_stable():
    assert canonical_bytes({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'


def test_query_round_trip_usi():
    _, _, _, side, _ = make_world((3, 3), (1, 1))
    query = usi_query(0, side)
    doc = query_to_json(query)
    assert doc["format"] == "ppir.query/1"
    back = query_from_json(json.loads(json.dumps(doc)))
    assert back == query


def test_query_round_trip_fsi_drops_flags():
    params, layout, store, side, _ = make_world((2, 2), (1, 1), q=7)
    pos_side = positional_side_info(layout, side)
    query = fsi_query(0, pos_side, params.class_sizes, 3)
    doc = query_to_json(query)
    assert "known_flags" not in doc and "picks" in doc
    back = query_from_json(doc)
    assert back.picks == query.picks
    assert back.known_count == query.known_count
    assert back.known_flags is None


def test_answer_round_trip_usi():
    params, _, store, side, _ = make_world((4, 2), (0, 1), msg_len=2)
    answer = usi_answer(usi_query(0, side), store, 4)
    back = answer_from_json(answer_to_json(answer))
    assert back == answer
    assert canonical_bytes(answer_to_json(back)) == canonical_bytes(answer_to_json(answer))


def test_answer_round_trip_fsi():
    params, layout, store, side, _ = make_world((2, 2, 2), (1, 0, 0), q=13)
    pos_side = positional_side_info(layout, side)
    query = fsi_query(1, pos_side, params.class_sizes, 5)
    answer = fsi_answer(query, store)
    back = answer_from_json(answer_to_json(answer))
    assert back == answer


def test_side_round_trip():
    params, layout, store, side, values = make_world((3, 3), (1, 1))
    doc = side_to_json(side, values)
    back_side, back_values = side_from_json(doc)
    assert back_side.label_set == side.label_set
    assert back_side.per_class_counts == side.per_class_counts
    assert back_values == values


def _side_doc():
    _, _, _, side, values = make_world((3, 3), (1, 1))
    return side_to_json(side, values)


def test_side_rejects_message_count_mismatch():
    # one message for two labels used to reach decode_answer as a KeyError
    doc = _side_doc()
    doc["messages"] = doc["messages"][:1]
    with pytest.raises(WireFormatError, match="1 messages for 2 labels"):
        side_from_json(doc)
    doc = _side_doc()
    doc["messages"].append(doc["messages"][0])
    with pytest.raises(WireFormatError, match="3 messages for 2 labels"):
        side_from_json(doc)


def test_side_rejects_repeated_label():
    doc = _side_doc()
    doc["labels"][1] = list(doc["labels"][0])
    with pytest.raises(WireFormatError, match="repeats a label"):
        side_from_json(doc)


def test_side_rejects_counts_contradicting_labels():
    for counts in ([2, 0], [1, 1, 1], [1], [1, -1]):
        doc = _side_doc()
        doc["per_class_counts"] = counts
        with pytest.raises(WireFormatError, match="contradict"):
            side_from_json(doc)
    doc = _side_doc()
    doc["labels"][1][0] = 2  # a class outside per_class_counts
    with pytest.raises(WireFormatError, match="contradict"):
        side_from_json(doc)


def test_format_tag_rejected():
    _, _, store, side, values = make_world((3, 3), (1, 1))
    with pytest.raises(WireFormatError):
        query_from_json({"format": "nope", "scheme": "usi"})
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    doc["format"] = "ppir.answer/999"
    with pytest.raises(WireFormatError):
        answer_from_json(doc)
    bad_side = side_to_json(side, values)
    del bad_side["labels"]
    with pytest.raises(WireFormatError):
        side_from_json(bad_side)


def test_malformed_payload_rejected():
    _, _, store, side, _ = make_world((3, 3), (1, 1))
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    doc["payloads"][0]["mode"] = "mystery"
    with pytest.raises(WireFormatError):
        answer_from_json(doc)



def test_answer_rejects_rows_off_the_msg_len_header():
    _, _, store, side, _ = make_world((3, 3), (1, 1), msg_len=2)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    doc["payloads"][0]["symbols"][1].append(0)  # one row of 3 symbols
    with pytest.raises(WireFormatError, match="row of 3 symbols, the header's msg_len is 2"):
        answer_from_json(doc)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    doc["msg_len"] = 3  # every row now disagrees with the header
    with pytest.raises(WireFormatError, match="msg_len is 3"):
        answer_from_json(doc)
    params, layout, store, side, _ = make_world((3, 3), (1, 0), msg_len=2, q=5)
    pos_side = positional_side_info(layout, side)
    doc = answer_to_json(fsi_answer(fsi_query(1, pos_side, params.class_sizes, 2), store))
    doc["payloads"][0]["symbols"][0].pop()
    with pytest.raises(WireFormatError, match="row of 1 symbols"):
        answer_from_json(doc)


def test_answer_rejects_repeated_identifiers():
    _, _, store, side, _ = make_world((3, 3), (1, 1))
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    order = doc["payloads"][0]["identifier_order"]  # (3, 1) is a parity class
    order[2] = order[0]
    with pytest.raises(WireFormatError, match=r"payload 0 \(class 0\) repeats an identifier"):
        answer_from_json(doc)
    _, _, store, side, _ = make_world((5, 5), (1, 1))
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    labels = doc["payloads"][1]["labels"]  # (5, 1) sends two messages uncoded
    labels[1] = labels[0]
    doc["payloads"][1]["symbols"][1] = doc["payloads"][1]["symbols"][0]
    with pytest.raises(WireFormatError, match="repeats an identifier"):
        answer_from_json(doc)

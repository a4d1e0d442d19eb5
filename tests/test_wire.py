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


HOSTILE_SYMBOLS = [True, 0.7, "0"]


@pytest.mark.parametrize("symbol", HOSTILE_SYMBOLS)
def test_answer_symbols_must_be_integers(symbol):
    # int() would read these as 1, 0 and 0 and the decode would come out wrong
    _, _, store, side, _ = make_world((5, 5), (1, 1), msg_len=2)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    assert [p["mode"] for p in doc["payloads"]] == ["uncoded", "uncoded"]
    for payload in range(2):
        for row, slot in ((0, 0), (-1, -1)):
            bad = json.loads(json.dumps(doc))
            bad["payloads"][payload]["symbols"][row][slot] = symbol
            with pytest.raises(WireFormatError, match="integer symbols only"):
                answer_from_json(bad)
    _, _, store, side, _ = make_world((3, 3), (1, 1), msg_len=2)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    assert doc["payloads"][0]["mode"] == "parity"
    doc["payloads"][0]["symbols"][1][0] = symbol
    with pytest.raises(WireFormatError, match="integer symbols only"):
        answer_from_json(doc)


@pytest.mark.parametrize("symbol", HOSTILE_SYMBOLS)
def test_side_messages_must_be_integers(symbol):
    _, _, _, side, values = make_world((3, 3), (1, 1), msg_len=2)
    doc = side_to_json(side, values)
    doc["messages"][-1][-1] = symbol
    with pytest.raises(WireFormatError, match="integer symbols only"):
        side_from_json(doc)


def test_symbol_rows_must_be_lists_of_integers():
    _, _, store, side, values = make_world((3, 3), (1, 1), msg_len=2)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    doc["payloads"][0]["symbols"][0] = 7  # a symbol where a row belongs
    with pytest.raises(WireFormatError):
        answer_from_json(doc)
    doc = side_to_json(side, values)
    doc["messages"][0] = "01"
    with pytest.raises(WireFormatError, match="integer symbols only"):
        side_from_json(doc)


def _with(doc, path, value):
    """A copy of doc with the item at path (keys and indices) set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _usi_and_fsi_answers():
    # (5, 1) sends two messages uncoded, (3, 1) its parity rows
    _, _, store, side, _ = make_world((5, 3), (1, 1))
    usi = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    assert [p["mode"] for p in usi["payloads"]] == ["uncoded", "parity"]
    params, layout, store, side, _ = make_world((3, 3), (1, 0), q=5)
    query = fsi_query(1, positional_side_info(layout, side), params.class_sizes, 2)
    return usi, answer_to_json(fsi_answer(query, store))


@pytest.mark.parametrize("value", HOSTILE_SYMBOLS)
def test_answer_header_integers_must_be_integers(value):
    # int() read these as 1, 0 and 0: an answer whose two class_ids were true
    # and 0.7 decoded as classes 1 and 0 with no error
    usi, fsi = _usi_and_fsi_answers()
    cases = [(usi, path) for path in (
        ("q",), ("msg_len",),
        ("payloads", 0, "class_id"), ("payloads", 0, "labels", 0, 0),
        ("payloads", 0, "labels", 1, 1),
        ("payloads", 1, "class_id"), ("payloads", 1, "identifier_order", 0),
        ("payloads", 1, "code_length"),
    )] + [(fsi, path) for path in (
        ("payloads", 0, "picks", 0), ("payloads", 0, "known_count"),
        ("payloads", 0, "code_length"),
    )]
    for doc, path in cases:
        with pytest.raises(WireFormatError, match="integer"):
            answer_from_json(_with(doc, path, value))
    swapped = _with(_with(usi, ("payloads", 0, "class_id"), True), ("payloads", 1, "class_id"), 0.7)
    with pytest.raises(WireFormatError, match="class_id must be an integer, got True"):
        answer_from_json(swapped)


@pytest.mark.parametrize("value", HOSTILE_SYMBOLS)
def test_side_header_integers_must_be_integers(value):
    doc = _side_doc()
    for path in (("labels", 0, 0), ("labels", 1, 1), ("per_class_counts", 0)):
        with pytest.raises(WireFormatError, match="integer values only"):
            side_from_json(_with(doc, path, value))


@pytest.mark.parametrize("value", HOSTILE_SYMBOLS)
def test_query_fields_must_be_integers(value):
    _, layout, _, side, _ = make_world((3, 3), (1, 0), q=5)
    usi = query_to_json(usi_query(0, side))
    fsi = query_to_json(fsi_query(1, positional_side_info(layout, side), (3, 3), 2))
    for doc, path in (
        (usi, ("side_counts", 0)), (usi, ("demand",)),
        (fsi, ("picks", 0)), (fsi, ("known_count",)),
    ):
        with pytest.raises(WireFormatError, match="integer"):
            query_from_json(_with(doc, path, value))


@pytest.mark.parametrize("symbol", [999, 2, -1])
def test_uncoded_symbols_must_lie_in_the_field(symbol):
    # nothing decodes an uncoded row, so 999 over GF(2) used to come out as the symbol 999
    _, _, store, side, _ = make_world((5, 5), (1, 1), msg_len=2, q=2)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    assert doc["q"] == 2 and [p["mode"] for p in doc["payloads"]] == ["uncoded", "uncoded"]
    for payload, row, slot in ((0, 0, 0), (1, -1, -1)):
        bad = _with(doc, ("payloads", payload, "symbols", row, slot), symbol)
        with pytest.raises(WireFormatError, match=rf"payload {payload} .* outside \[0, 2\)"):
            answer_from_json(bad)
    assert answer_from_json(doc) is not None


@pytest.mark.parametrize("q", [6, 1, 0])
def test_answer_q_must_be_a_field_order(q):
    # an all-uncoded answer is never decoded, so "q": 6 used to read back with no error
    _, _, store, side, _ = make_world((5, 5), (1, 1), q=2)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    assert [p["mode"] for p in doc["payloads"]] == ["uncoded", "uncoded"]
    with pytest.raises(WireFormatError, match=rf"^answer header q: .*\b{q}\b"):
        answer_from_json(_with(doc, ("q",), q))


def test_parity_symbols_out_of_range_are_left_to_the_decoder():
    from ppir.errors import CorruptionError
    from ppir.protocol import decode_answer

    _, _, store, side, values = make_world((3, 3), (1, 1), q=5)
    doc = answer_to_json(usi_answer(usi_query(0, side), store, 1))
    assert doc["payloads"][0]["mode"] == "parity"
    answer = answer_from_json(_with(doc, ("payloads", 0, "symbols", 0, 0), 999))
    with pytest.raises(CorruptionError, match=r"outside \[0, 5\)"):
        decode_answer(answer, side, values)

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_world
from ppir.errors import (
    DecodeMetadataError,
    ParameterError,
    ProtocolViolationError,
    UnsupportedParametersError,
)
from ppir.model import (
    InstanceParams,
    build_layout,
    held_messages,
    positional_side_info,
    random_store,
    sample_side_info,
)
from ppir.protocol import (
    Answer,
    ClassPayload,
    Query,
    achieved_rate,
    class_plan,
    decode_answer,
    download_cost,
    fsi_answer,
    fsi_decode,
    fsi_query,
    usi_answer,
    usi_query,
)
from ppir.rates import usi_capacity
from ppir.wire import answer_to_json, canonical_bytes, query_to_json


def test_branch_rule():
    assert class_plan(4, 0) == ("uncoded", 1)
    assert class_plan(2, 1) == ("parity", 1)
    assert class_plan(3, 1) == ("parity", 2)  # tie goes to parity
    assert class_plan(5, 1) == ("uncoded", 2)
    assert class_plan(4, 1, demand=2) == ("parity", 3)
    with pytest.raises(UnsupportedParametersError):
        class_plan(3, 2, demand=2)


def test_query_ignores_desired_class():
    _, _, _, side, _ = make_world((4, 2), (0, 1))
    queries = [usi_query(v, side) for v in range(2)]
    blobs = {canonical_bytes(query_to_json(q)) for q in queries}
    assert len(blobs) == 1
    assert queries[0].side_counts == (0, 1)


def test_query_no_side_info():
    _, _, _, side, _ = make_world((3, 3), (0, 0))
    assert usi_query(1, side).side_counts == (0, 0)


def test_answer_structure_mixed_branches():
    params, _, store, side, _ = make_world((4, 2), (0, 1))
    answer = usi_answer(usi_query(0, side), store, 5)
    by_class = {p.class_id: p for p in answer.payloads}
    assert by_class[0].mode == "uncoded" and len(by_class[0].symbols) == 1
    assert by_class[1].mode == "parity" and len(by_class[1].symbols) == 1
    assert by_class[1].code_length == 3
    assert download_cost(answer) == 2 * params.msg_len


def test_answer_structure_all_parity():
    params, _, store, side, _ = make_world((3, 3), (1, 1), msg_len=2)
    answer = usi_answer(usi_query(0, side), store, 5)
    for p in answer.payloads:
        assert p.mode == "parity"
        assert len(p.symbols) == 2
        assert p.code_length == 5
    assert download_cost(answer) == 4 * params.msg_len


def test_answer_structure_no_side():
    params, _, store, side, _ = make_world((3, 4, 5), (0, 0, 0))
    answer = usi_answer(usi_query(2, side), store, 5)
    assert all(p.mode == "uncoded" and len(p.symbols) == 1 for p in answer.payloads)
    assert download_cost(answer) == 3 * params.msg_len


def test_answer_invariant_across_side_realizations():
    # same count profile, same seed: answer bytes cannot depend on (v, S)
    params, layout, store, _, _ = make_world((4, 3), (1, 1), seed=3)
    blobs = set()
    for seed in (20, 21, 22):
        side = sample_side_info(layout, seed)
        for v in range(2):
            answer = usi_answer(usi_query(v, side), store, 99)
            blobs.add(canonical_bytes(answer_to_json(answer)))
    assert len(blobs) == 1


def test_field_too_small_for_parity():
    params = InstanceParams((3, 3), (1, 1), q=3)  # needs q >= 5
    layout = build_layout(params, 0)
    store = random_store(layout, 1)
    side = sample_side_info(layout, 2)
    with pytest.raises(UnsupportedParametersError):
        usi_answer(usi_query(0, side), store, 3)


def test_decode_parity_recovers_exact_messages():
    for seed in range(50):
        params, layout, store, side, values = make_world((2, 2), (1, 1), seed=seed)
        answer = usi_answer(usi_query(0, side), store, seed + 1000)
        result = decode_answer(answer, side, values)
        assert result.new_from_class == (1, 1)
        for lab, sym in result.decoded:
            assert store.message_for(lab) == tuple(sym)


def test_decode_full_protocol_counts():
    params, _, store, side, values = make_world((3, 3), (1, 1))
    answer = usi_answer(usi_query(1, side), store, 7)
    result = decode_answer(answer, side, values)
    assert result.new_from_class == (2, 2)
    assert result.total_new == 4


def test_decode_uncoded_no_side_all_new():
    params, _, store, side, values = make_world((4, 4), (0, 0))
    answer = usi_answer(usi_query(0, side), store, 7)
    result = decode_answer(answer, side, values)
    assert result.new_from_class == (1, 1)


def test_decode_bad_header_identifier():
    params, _, store, side, values = make_world((2, 2), (1, 1))
    answer = usi_answer(usi_query(0, side), store, 7)
    tampered = []
    for p in answer.payloads:
        # replace the header identifiers with values the user cannot hold
        tampered.append(
            ClassPayload(
                class_id=p.class_id,
                mode=p.mode,
                labels=p.labels,
                identifier_order=tuple(a + 1 for a in p.identifier_order),
                code_length=p.code_length,
                symbols=p.symbols,
            )
        )
    bad = Answer(answer.q, answer.msg_len, tuple(tampered))
    with pytest.raises(DecodeMetadataError):
        decode_answer(bad, side, values)


def test_decode_truncated_parity_payload():
    params, _, store, side, values = make_world((3, 3), (1, 1))
    answer = usi_answer(usi_query(0, side), store, 7)
    cut = tuple(
        ClassPayload(
            class_id=p.class_id,
            mode=p.mode,
            labels=p.labels,
            identifier_order=p.identifier_order,
            code_length=p.code_length,
            symbols=p.symbols[:1],
        )
        for p in answer.payloads
    )
    with pytest.raises(ProtocolViolationError):
        decode_answer(Answer(answer.q, answer.msg_len, cut), side, values)
    # a whole class dropped: every remaining class still decodes on its own
    params, _, store, side, values = make_world((3, 3, 3), (1, 1, 1))
    answer = usi_answer(usi_query(0, side), store, 7)
    with pytest.raises(ProtocolViolationError):
        decode_answer(Answer(answer.q, answer.msg_len, answer.payloads[:-1]), side, values)


def test_decode_with_other_side_same_counts():
    # an answer serves any side information set with the same count profile
    params, layout, store, side, _ = make_world((4, 3), (1, 1), seed=8)
    answer = usi_answer(usi_query(0, side), store, 9)
    other = sample_side_info(layout, 777)
    other_values = held_messages(store, other)
    result = decode_answer(answer, other, other_values)
    assert all(n >= 1 for n in result.new_from_class)
    for lab, sym in result.decoded:
        assert store.message_for(lab) == tuple(sym)


def test_multi_message_rate_and_counts():
    params, _, store, side, values = make_world((4, 4), (1, 1), q=7)
    query = usi_query(0, side, demand=2)
    assert query.scheme == "musi"
    answer = usi_answer(query, store, 5)
    assert download_cost(answer) == 6 * params.msg_len
    result = decode_answer(answer, side, values, demand=2)
    assert all(n >= 2 for n in result.new_from_class)
    assert achieved_rate(answer, params.msg_len) == Fraction(1, 6)
    for lab, sym in result.decoded:
        assert store.message_for(lab) == tuple(sym)


def test_multi_message_demand_one_matches_usi():
    # the demand path at demand 1 is the single-message scheme
    params, _, store, side, values = make_world((3, 3), (1, 1))
    q1 = usi_query(0, side, demand=1)
    assert q1 == usi_query(0, side) and q1.scheme == "usi"
    as_musi = Query(scheme="musi", side_counts=q1.side_counts, demand=1)
    a = usi_answer(q1, store, 4)
    b = usi_answer(as_musi, store, 4)
    assert canonical_bytes(answer_to_json(a)) == canonical_bytes(answer_to_json(b))
    assert decode_answer(a, side, values, demand=1) == decode_answer(a, side, values)


def test_answer_rejects_demand_below_one():
    # queries arrive from the wire, so the server checks the demand itself
    params, _, store, side, _ = make_world((3, 3), (1, 1))
    with pytest.raises(ParameterError):
        usi_answer(Query(scheme="musi", side_counts=(1, 1), demand=0), store, 5)


def test_multi_message_boundary_accepted():
    params, _, store, side, values = make_world((3, 3), (1, 1))
    answer = usi_answer(usi_query(0, side, demand=2), store, 5)
    assert download_cost(answer) == 4 * params.msg_len
    result = decode_answer(answer, side, values, demand=2)
    assert all(n == 2 for n in result.new_from_class)


def test_multi_message_demand_too_large():
    params, _, store, side, _ = make_world((3, 3), (2, 2))
    with pytest.raises(UnsupportedParametersError):
        usi_answer(usi_query(0, side, demand=2), store, 5)


def _fsi_world(class_sizes, side_counts, seed=0, q=None):
    params, layout, store, side, _ = make_world(
        class_sizes, side_counts, seed=seed, q=q or 13
    )
    pos_side = positional_side_info(layout, side)
    values = {
        (i, p): store.messages[layout.class_members[i][p]]
        for i, p in pos_side.label_set
    }
    return params, layout, store, pos_side, values


def test_fsi_round_trip_eta_2_of_3():
    params, layout, store, pos_side, values = _fsi_world((2, 2, 2), (1, 1, 0))
    v = 2
    query = fsi_query(v, pos_side, params.class_sizes, 5)
    assert query.known_count == 1  # eta - 1 with eta = 2
    answer = fsi_answer(query, store)
    assert answer.payloads[0].code_length == 2 * 3 - 1
    assert download_cost(answer) == 2 * params.msg_len
    result = fsi_decode(answer, query, pos_side, values, v)
    assert result.new_from_class[v] == 1
    lab = (v, query.picks[v])
    got = dict(result.decoded)[lab]
    assert got == store.messages[layout.class_members[v][query.picks[v]]]
    for outside in (3, -1):
        with pytest.raises(ParameterError):
            fsi_decode(answer, query, pos_side, values, outside)


def test_fsi_desired_class_avoids_held_positions():
    params, layout, store, pos_side, values = _fsi_world((2, 2), (1, 1), q=7)
    held = {p for i, p in pos_side.label_set if i == 0}
    for seed in range(20):
        query = fsi_query(0, pos_side, params.class_sizes, seed)
        assert query.picks[0] not in held  # forced: only one fresh position
    answer = fsi_answer(query, store)
    result = fsi_decode(answer, query, pos_side, values, 0)
    assert result.new_from_class[0] == 1


def test_fsi_eta_endpoints():
    # eta = Gamma: one parity row
    params, layout, store, pos_side, values = _fsi_world((3, 3), (1, 1), q=7)
    query = fsi_query(0, pos_side, params.class_sizes, 3)
    assert query.known_count == 1
    answer = fsi_answer(query, store)
    assert len(answer.payloads[0].symbols) == 1
    assert achieved_rate(answer, params.msg_len) == Fraction(1, 1)
    # eta = 1: no identifiable side information, Gamma parity rows
    params0, layout0, store0, pos_side0, values0 = _fsi_world((3, 3), (0, 0), q=7)
    query0 = fsi_query(1, pos_side0, params0.class_sizes, 3)
    assert query0.known_count == 0
    answer0 = fsi_answer(query0, store0)
    assert len(answer0.payloads[0].symbols) == 2
    assert achieved_rate(answer0, params0.msg_len) == Fraction(1, 2)
    result0 = fsi_decode(answer0, query0, pos_side0, values0, 1)
    assert result0.new_from_class[1] == 1


def test_fsi_no_fresh_position_rejected():
    from ppir.model import SideInfo

    # hand-build positional side info covering class 0 entirely
    side = SideInfo((2, 0), ((0, 0), (0, 1)), ())
    with pytest.raises(ParameterError):
        fsi_query(0, side, (2, 2), 1)


def test_fsi_field_too_small():
    params, layout, store, pos_side, values = _fsi_world((2, 2, 2), (0, 0, 0), q=5)
    query = fsi_query(0, pos_side, params.class_sizes, 1)
    # needs a [7, 3] code over GF(5)
    with pytest.raises(UnsupportedParametersError):
        fsi_answer(query, store)


def test_round_trip_over_binary_extension_field():
    # whole protocol over GF(8): parity codes, decode, exact recovery
    params, _, store, side, values = make_world((3, 3), (1, 1), msg_len=3, q=8, seed=5)
    answer = usi_answer(usi_query(0, side), store, 6)
    assert answer.q == 8
    assert download_cost(answer) == 4 * params.msg_len
    result = decode_answer(answer, side, values)
    assert result.new_from_class == (2, 2)
    for lab, sym in result.decoded:
        assert store.message_for(lab) == tuple(sym)


def test_class_relabeling_is_immaterial():
    # instances differing by a class permutation behave identically: same
    # capacity, same download cost, recovery on both
    for (sizes_a, counts_a), (sizes_b, counts_b) in [
        (((4, 2), (0, 1)), ((2, 4), (1, 0))),
        (((5, 3, 3), (2, 1, 0)), ((3, 3, 5), (0, 1, 2))),
    ]:
        assert usi_capacity(sizes_a, counts_a) == usi_capacity(sizes_b, counts_b)
        costs = []
        for sizes, counts in ((sizes_a, counts_a), (sizes_b, counts_b)):
            params, _, store, side, values = make_world(sizes, counts, seed=4)
            answer = usi_answer(usi_query(0, side), store, 5)
            costs.append(download_cost(answer))
            result = decode_answer(answer, side, values)
            assert all(n >= 1 for n in result.new_from_class)
        assert costs[0] == costs[1]


def test_rate_accounting():
    params, _, store, side, _ = make_world((3, 3), (1, 1), msg_len=4)
    answer = usi_answer(usi_query(0, side), store, 6)
    assert download_cost(answer) == 16
    assert achieved_rate(answer, 4) == Fraction(1, 4)
    assert achieved_rate(answer, 4) == usi_capacity((3, 3), (1, 1))
    with pytest.raises(ParameterError):
        achieved_rate(answer, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_protocol_invariants_random_instances(data):
    gamma = data.draw(st.integers(2, 3))
    class_sizes = tuple(data.draw(st.integers(1, 4)) for _ in range(gamma))
    side_counts = tuple(data.draw(st.integers(0, mu - 1)) for mu in class_sizes)
    msg_len = data.draw(st.sampled_from([1, 2]))
    seed = data.draw(st.integers(0, 10_000))
    params, layout, store, side, values = make_world(
        class_sizes, side_counts, msg_len=msg_len, seed=seed
    )
    v = data.draw(st.integers(0, gamma - 1))
    answer = usi_answer(usi_query(v, side), store, seed + 1)
    expected = sum(min(k + 1, mu - k) for mu, k in zip(class_sizes, side_counts))
    assert download_cost(answer) == expected * msg_len
    assert achieved_rate(answer, msg_len) == usi_capacity(class_sizes, side_counts)
    result = decode_answer(answer, side, values)
    assert all(n >= 1 for n in result.new_from_class)
    assert result.total_new <= params.num_messages - params.total_side
    for lab, sym in result.decoded:
        assert store.message_for(lab) == tuple(sym)

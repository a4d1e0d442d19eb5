import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_world
from ppir.errors import EnumerationCapError, ParameterError, SearchBudgetError
from ppir.harness import grid_instances
from ppir.model import InstanceParams
from ppir.picod import (
    EncodingMatrix,
    PicodInstance,
    all_clients_satisfied,
    answer_to_encoding_matrix,
    broadcast_lower_bound,
    broadcast_upper_bound,
    class_floor,
    client_satisfied,
    decodable,
    generic_min_field_size,
    instance_from_params,
    min_code_length_bruteforce,
    rank_lower_bound_certificate,
)
from ppir.protocol import usi_answer, usi_query


def inst(class_sizes, side_counts, q=3, t=None):
    params = InstanceParams(class_sizes, side_counts, q=q)
    return instance_from_params(params, demand_classes=t)


def unit_columns(f, *positions):
    cols = []
    for p in positions:
        col = [0] * f
        col[p] = 1
        cols.append(tuple(col))
    return EncodingMatrix(tuple(cols), 3)


def test_decodable_examples():
    # one broadcast u_0 + u_1 plus side info {0} reveals message 1
    m = EncodingMatrix(((1, 1),), 3)
    assert decodable(1, m, (0,))
    assert decodable(0, m, (0,))  # held messages count as decodable
    assert not decodable(0, EncodingMatrix(((0, 0),), 3), ())
    # no broadcasts at all: nothing outside the side set is decodable
    empty = EncodingMatrix((), 3)
    assert empty.length == 0
    assert not decodable(0, empty, ())
    assert decodable(0, empty, (0,))


def test_client_satisfied_examples():
    instance = inst((2, 2), (1, 1))
    g = EncodingMatrix(((1, 1, 0, 0), (0, 0, 1, 1)), 3)
    for side in instance.side_family():
        assert client_satisfied(g, side, instance)
    zero = EncodingMatrix(((0, 0, 0, 0),), 3)
    assert not client_satisfied(zero, (0, 2), instance)
    identity = unit_columns(4, 0, 1, 2, 3)
    assert client_satisfied(identity, (0, 2), instance)


def test_all_clients_satisfied_examples():
    instance = inst((2, 2), (1, 1))
    g = EncodingMatrix(((1, 1, 0, 0), (0, 0, 1, 1)), 3)
    assert all_clients_satisfied(g, instance)
    single = EncodingMatrix(((1, 1, 0, 0),), 3)
    assert not all_clients_satisfied(single, instance)
    # without side information the sum columns reveal nothing by themselves:
    # u_0 is not in span{u_0+u_1, u_2+u_3}, so the empty-side client fails
    instance0 = inst((2, 2), (0, 0))
    assert not all_clients_satisfied(g, instance0)
    assert all_clients_satisfied(unit_columns(4, 0, 2), instance0)


def test_no_single_column_works_exhaustively():
    # no length-1 matrix over GF(3) satisfies the (2,2)/(1,1) instance
    instance = inst((2, 2), (1, 1))
    result = min_code_length_bruteforce(instance, 1)
    assert not result.found
    assert result.exhausted_lengths == (1,)


def test_side_family_enumeration_and_cap():
    instance = inst((2, 2), (1, 1))
    family = instance.side_family()
    assert len(family) == 4
    assert all(len(s) == 2 for s in family)
    with pytest.raises(EnumerationCapError):
        instance.side_family(cap=3)


def test_instance_validation():
    with pytest.raises(ParameterError):
        PicodInstance(((0, 1), (2, 3)), (1, 1), 3, 3)  # t > Gamma
    with pytest.raises(ParameterError):
        PicodInstance(((0, 1), (1, 2)), (1, 1), 2, 3)  # not a partition
    with pytest.raises(ParameterError):
        PicodInstance(((0, 1), (2, 3)), (2, 1), 2, 3)  # kappa > f - t
    assert generic_min_field_size(4) == 8


def test_answer_matrix_support_patterns():
    params, layout, store, side, _ = make_world((2, 2), (1, 1), seed=2)
    answer = usi_answer(usi_query(0, side), store, 3)
    matrix = answer_to_encoding_matrix(answer, layout)
    assert matrix.length == 2
    for col, members in zip(matrix.columns, layout.class_members):
        support = {i for i, x in enumerate(col) if x}
        assert support == set(members)

    params_u, layout_u, store_u, side_u, _ = make_world((4, 4), (0, 0), seed=2)
    answer_u = usi_answer(usi_query(0, side_u), store_u, 3)
    matrix_u = answer_to_encoding_matrix(answer_u, layout_u)
    for col, payload in zip(matrix_u.columns, answer_u.payloads):
        support = [i for i, x in enumerate(col) if x]
        assert len(support) == 1 and col[support[0]] == 1
        assert support[0] == layout_u.index_of(payload.labels[0])


def test_answer_matrix_rank_full():
    params, layout, store, side, _ = make_world((3, 3), (1, 1), seed=4)
    answer = usi_answer(usi_query(0, side), store, 5)
    matrix = answer_to_encoding_matrix(answer, layout)
    assert matrix.length == 4
    assert matrix.rank() == 4


def test_bound_formulas():
    assert class_floor(3, 1) == 2
    assert broadcast_lower_bound(inst((3, 3), (1, 1), q=5)) == 4
    assert broadcast_upper_bound(6, 2, 2) == 4
    assert broadcast_lower_bound(inst((2, 2), (1, 1))) == 2
    assert broadcast_upper_bound(4, 2, 2) == 2
    assert broadcast_lower_bound(inst((4, 4, 4), (0, 0, 0))) == 3
    assert broadcast_upper_bound(12, 0, 3) == 3
    # t below the class count takes the smallest floors
    assert broadcast_lower_bound(inst((5, 3), (2, 1), q=11, t=1)) == 2


def test_sandwich_exhaustive_small():
    for params in grid_instances({"num_classes": [2, 3], "max_class_size": 4}, (1,), 1):
        instance = instance_from_params(params)
        lower = broadcast_lower_bound(instance)
        upper = broadcast_upper_bound(
            params.num_messages, params.total_side, instance.demand_classes
        )
        assert lower <= upper


def test_bruteforce_matches_formula_acceptance_trio():
    for class_sizes, side_counts, want in [
        ((2, 2), (1, 1), 2),
        ((2, 2), (0, 0), 2),
        ((3, 2), (1, 0), 3),
    ]:
        instance = inst(class_sizes, side_counts, q=3)
        assert broadcast_lower_bound(instance) == want
        result = min_code_length_bruteforce(instance, want)
        assert result.found and result.min_length == want
        assert all_clients_satisfied(result.witness, instance)
        assert result.witness.rank() == want


def test_bruteforce_agrees_with_formula_tiny_grid():
    # exhaustive search equals the closed form on every shape over the
    # budget-feasible tiny grid: GF(2) up to f = 5 and GF(3) up to f = 4
    # (GF(3) f = 5 shapes needing length 4 exceed any desk-scale budget;
    # scripts/converse_scan.py sweeps them with explicit skips)
    from conftest import compositions

    checked = 0
    for q, f_max in ((2, 5), (3, 4)):
        for f in range(2, f_max + 1):
            for gamma in range(2, f + 1):
                for sizes in compositions(f, gamma):
                    for counts in itertools.product(*[range(mu) for mu in sizes]):
                        instance = instance_from_params(
                            InstanceParams(sizes, counts, q=q)
                        )
                        want = broadcast_lower_bound(instance)
                        result = min_code_length_bruteforce(instance, want, budget=500_000)
                        assert result.found and result.min_length == want
                        checked += 1
    assert checked == 96


def _explicit_decoding_combination(matrix, side_set, m):
    """Solve for coefficients writing u_m over the broadcasts and side units.

    Independent witness for the rank-based decodability test: returns
    (broadcast_coeffs, side_coeffs) or None.
    """
    from ppir import linalg
    from ppir.fields import make_field

    field = make_field(matrix.q)
    f = matrix.num_messages
    side = sorted(side_set)
    vectors = [list(col) for col in matrix.columns]
    for s in side:
        unit = [0] * f
        unit[s] = 1
        vectors.append(unit)
    # row-reduce the augmented system [vectors^T | u_m]
    rows = [list(r) + [1 if i == m else 0] for i, r in enumerate(zip(*vectors))]
    red, pivots = linalg.echelon(field, rows)
    if len(vectors) in pivots:
        return None  # u_m outside the span
    coeffs = [0] * len(vectors)
    for row, p in zip(red, pivots):
        coeffs[p] = row[-1]
    return coeffs[: matrix.length], dict(zip(side, coeffs[matrix.length:]))


def test_decodable_yields_explicit_linear_decoder():
    # the rank test says decodable exactly when a linear combination of
    # broadcast symbols and held messages exists, and that combination
    # reconstructs the stored message
    from ppir.fields import make_field
    from ppir.model import build_layout, random_store

    params = InstanceParams((3, 2), (1, 0), msg_len=2, q=3)
    layout = build_layout(params, 31)
    store = random_store(layout, 32)
    field = make_field(params.q)
    instance = PicodInstance(layout.class_members, params.side_counts, 2, params.q)
    result = min_code_length_bruteforce(instance, 3)
    matrix = result.witness
    broadcasts = [
        [field.dot(col, [row[l] for row in store.messages]) for l in range(params.msg_len)]
        for col in matrix.columns
    ]
    checked = 0
    for side_set in instance.side_family():
        for m in range(params.num_messages):
            combo = _explicit_decoding_combination(matrix, side_set, m)
            assert decodable(m, matrix, side_set) == (combo is not None)
            if m in side_set or combo is None:
                continue
            b_coeffs, s_coeffs = combo
            rebuilt = []
            for l in range(params.msg_len):
                acc = field.dot(b_coeffs, [b[l] for b in broadcasts])
                for s, c in s_coeffs.items():
                    acc = field.add(acc, field.mul(c, store.messages[s][l]))
                rebuilt.append(acc)
            assert tuple(rebuilt) == store.messages[m]
            checked += 1
    assert checked > 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decodable_matches_explicit_solve_random_matrices(data):
    # both directions on small random matrices over prime and binary fields
    q = data.draw(st.sampled_from([2, 3, 4]))
    f = data.draw(st.integers(1, 5))
    length = data.draw(st.integers(1, 4))
    columns = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, q - 1)] * f), min_size=length, max_size=length
        )
    )
    side_set = tuple(sorted(data.draw(st.sets(st.integers(0, f - 1)))))
    matrix = EncodingMatrix(tuple(columns), q)
    for m in range(f):
        combo = _explicit_decoding_combination(matrix, side_set, m)
        assert decodable(m, matrix, side_set) == (combo is not None)


def test_bruteforce_budget_error_with_partial_progress():
    instance = inst((3, 2), (1, 0), q=3)
    with pytest.raises(SearchBudgetError) as err:
        min_code_length_bruteforce(instance, 3, budget=200)
    assert err.value.exhausted_lengths == (1,)
    assert err.value.examined > 0


def test_certificate_scheme_answer_case1():
    params, layout, store, side, _ = make_world((3, 3), (1, 1), seed=6)
    answer = usi_answer(usi_query(0, side), store, 7)
    matrix = answer_to_encoding_matrix(answer, layout)
    instance = PicodInstance(layout.class_members, (1, 1), 2, params.q)
    cert = rank_lower_bound_certificate(matrix, instance)
    assert cert.ok and cert.case == 1
    assert cert.rank_floor == 4 and cert.decoded_floor == 4
    assert cert.matrix_rank == 4
    assert len(cert.collected) == 4
    assert cert.strategy == "set-types"
    # set-type count matches the growing-overlap construction
    assert len(cert.trace) == cert.decoded_floor - instance.demand_classes + 1


def test_certificate_scheme_answer_case2():
    params, layout, store, side, _ = make_world((3, 3), (2, 2), seed=6)
    answer = usi_answer(usi_query(0, side), store, 7)
    matrix = answer_to_encoding_matrix(answer, layout)
    instance = PicodInstance(layout.class_members, (2, 2), 2, params.q)
    cert = rank_lower_bound_certificate(matrix, instance)
    assert cert.ok and cert.case == 2
    assert cert.rank_floor == 2
    assert cert.forced_overlaps == {0: 2, 1: 2}
    assert cert.leftovers == {0: 0, 1: 0}
    assert len(cert.collected) == 2


def test_certificate_identity_matrix():
    instance = inst((3, 3), (1, 1), q=5)
    identity = EncodingMatrix(
        tuple(tuple(1 if i == j else 0 for i in range(6)) for j in range(6)), 5
    )
    cert = rank_lower_bound_certificate(identity, instance)
    assert cert.ok
    assert len(cert.collected) >= cert.rank_floor
    assert len(cert.collected) <= cert.matrix_rank


def test_certificate_on_bruteforce_witness():
    instance = inst((3, 2), (1, 0), q=3)
    result = min_code_length_bruteforce(instance, 3)
    cert = rank_lower_bound_certificate(result.witness, instance)
    assert cert.ok
    assert cert.rank_floor == 3
    assert result.witness.rank() >= cert.rank_floor


def test_certificate_requires_satisfying_matrix():
    instance = inst((2, 2), (1, 1))
    bad = EncodingMatrix(((1, 1, 0, 0),), 3)
    with pytest.raises(ParameterError):
        rank_lower_bound_certificate(bad, instance)


def test_certificate_partial_demand():
    instance = inst((2, 3), (1, 1), q=5, t=1)
    identity = EncodingMatrix(
        tuple(tuple(1 if i == j else 0 for i in range(5)) for j in range(5)), 5
    )
    cert = rank_lower_bound_certificate(identity, instance)
    assert cert.ok
    assert cert.rank_floor == broadcast_lower_bound(instance)


def test_certificate_report_serializes():
    params, layout, store, side, _ = make_world((2, 2), (1, 1), seed=1)
    answer = usi_answer(usi_query(0, side), store, 2)
    matrix = answer_to_encoding_matrix(answer, layout)
    instance = PicodInstance(layout.class_members, (1, 1), 2, params.q)
    cert = rank_lower_bound_certificate(matrix, instance)
    doc = cert.to_json()
    assert doc["ok"] and doc["rank_floor"] == 2
    assert len(doc["trace"]) == len(cert.trace)
    assert all("side_set" in step for step in doc["trace"])

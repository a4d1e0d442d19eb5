import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import make_world
from ppir.errors import (
    CertificateError,
    EnumerationCapError,
    FieldConstructionError,
    ParameterError,
    SearchBudgetError,
)
from ppir.fields import make_field
from ppir.harness import grid_instances
from ppir import picod
from ppir.model import InstanceParams
from ppir.picod import (
    EncodingMatrix,
    PicodInstance,
    SearchResult,
    _Walker,
    GROUP_ENTRY_CAP,
    _decodable_set,
    _group_elements,
    _group_generators,
    _group_tables,
    _insert,
    _lex_rank,
    _projective_points,
    _unit_pivots,
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


def test_side_family_enumeration_and_cap(monkeypatch):
    instance = inst((2, 2), (1, 1))
    family = instance.side_family()
    assert len(family) == 4
    assert all(len(s) == 2 for s in family)
    monkeypatch.setattr(picod, "FAMILY_CAP", 3)
    with pytest.raises(EnumerationCapError):
        instance.side_family()


def test_group_tables_split_block_diagonal_matrices_by_class(monkeypatch):
    # a (2,3) scheme-like matrix: class 0 sends one unit column, class 1 two
    # columns over its own coordinates, so each class is its own group and
    # the tables hold C(2,1) + C(3,1) = 5 partial side sets, not 2 * 3
    instance = inst((2, 3), (1, 1), q=5)
    matrix = EncodingMatrix(((1, 0, 0, 0, 0), (0, 0, 1, 1, 1), (0, 0, 1, 2, 3)), 5)
    monkeypatch.setattr(picod, "FAMILY_CAP", 6)
    groups = _group_tables(matrix, instance)
    assert [classes for classes, _ in groups] == [(0,), (1,)]
    assert groups[0][1] == {(0,): (None,), (1,): (0,)}
    assert sorted(groups[1][1]) == [(2,), (3,), (4,)]
    assert all_clients_satisfied(matrix, instance) is False  # holding 0 leaves class 0 dry
    assert all_clients_satisfied(matrix, inst((2, 3), (1, 1), q=5, t=1))
    # one cross-class column joins both classes into a single group
    joined = EncodingMatrix(matrix.columns + ((0, 1, 1, 0, 0),), 5)
    assert [classes for classes, _ in _group_tables(joined, instance)] == [(0, 1)]
    # the memo never skips the cap, which applies to the full product
    monkeypatch.setattr(picod, "FAMILY_CAP", 5)
    with pytest.raises(EnumerationCapError, match="6 side sets exceed cap 5"):
        all_clients_satisfied(matrix, instance)


def test_instance_validation():
    with pytest.raises(ParameterError):
        PicodInstance(((0, 1), (2, 3)), (1, 1), 3, 3)  # t > Gamma
    with pytest.raises(ParameterError):
        PicodInstance(((0, 1), (1, 2)), (1, 1), 2, 3)  # not a partition
    with pytest.raises(ParameterError):
        PicodInstance(((0, 1), (2, 3)), (2, 1), 2, 3)  # kappa > f - t: one open class, t = 2
    with pytest.raises(FieldConstructionError, match="q=6"):
        PicodInstance(((0, 1), (2, 3)), (1, 1), 2, 6)  # no field of order 6
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


@pytest.mark.parametrize("sizes, counts, minimum", [((2, 2, 2), (0, 0, 2), 2), ((3, 2, 2), (1, 0, 2), 3)])
def test_fully_held_classes_are_never_served(sizes, counts, minimum):
    # a fully held class has floor 0 but nothing new to decode: the bound
    # sums the floors of the classes that are not fully held, the exhaustive
    # minimum and its certificate agree, and no demand can include the held class
    bounds = list(itertools.accumulate(sizes, initial=0))
    members = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    instance = PicodInstance(members, counts, 2, 2)
    assert broadcast_lower_bound(instance) == minimum
    search = min_code_length_bruteforce(instance, minimum + 1)
    assert search.found and search.min_length == minimum
    cert = rank_lower_bound_certificate(search.witness, instance)
    assert cert.ok and cert.rank_floor == minimum
    assert 2 not in cert.chosen_classes
    with pytest.raises(ParameterError, match="exceeds the 2 classes that are not fully held"):
        PicodInstance(members, counts, 3, 2)


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


@st.composite
def _structured_matrices(draw):
    """Random matrices that are block-diagonal after a coordinate shuffle,
    with zero columns and coordinates that no column covers."""
    q = draw(st.sampled_from([2, 3, 4]))
    f = draw(st.integers(1, 6))
    order = draw(st.permutations(range(f)))
    cuts = sorted(draw(st.sets(st.integers(1, f - 1)))) if f > 1 else []
    bounds = [0, *cuts, f]
    uncovered = draw(st.sets(st.integers(0, f - 1), max_size=2))
    columns = []
    for a, b in zip(bounds, bounds[1:]):
        for _ in range(draw(st.integers(0, 3))):
            col = [0] * f
            for i in order[a:b]:
                if i not in uncovered:
                    col[i] = draw(st.integers(0, q - 1))
            columns.append(tuple(col))
    columns += [(0,) * f] * draw(st.integers(0 if columns else 1, 2))
    return EncodingMatrix(tuple(draw(st.permutations(columns))), q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decodable_matches_explicit_solve_random_matrices(data):
    # both directions on small random matrices over prime and binary fields,
    # dense or block-diagonal; many side sets on one matrix object reuse its
    # per-block memo, and must answer as a fresh object does
    if data.draw(st.booleans()):
        q = data.draw(st.sampled_from([2, 3, 4]))
        f = data.draw(st.integers(1, 5))
        length = data.draw(st.integers(1, 4))
        columns = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, q - 1)] * f), min_size=length, max_size=length
            )
        )
        matrix = EncodingMatrix(tuple(columns), q)
    else:
        matrix = data.draw(_structured_matrices())
    f = matrix.num_messages
    side_sets = data.draw(
        st.lists(st.sets(st.integers(0, f - 1)), min_size=1, max_size=8)
    )
    for side_set in side_sets + side_sets[:2]:
        side_set = tuple(sorted(side_set))
        fresh = EncodingMatrix(matrix.columns, matrix.q)
        for m in range(f):
            combo = _explicit_decoding_combination(matrix, side_set, m)
            assert decodable(m, matrix, side_set) == (combo is not None)
            assert decodable(m, fresh, side_set) == (combo is not None)


@st.composite
def _classed_matrices(draw):
    """A random class partition and a matrix over it: columns inside one
    class (block-diagonal by class), across classes, or zero, or one of
    _structured_matrices' block-diagonal shuffles."""
    if draw(st.booleans()):
        matrix = draw(_structured_matrices())
        q, f = matrix.q, matrix.num_messages
    else:
        q = draw(st.sampled_from([2, 3, 4]))
        f = draw(st.integers(1, 6))
        matrix = None
    order = draw(st.permutations(range(f)))
    cuts = sorted(draw(st.sets(st.integers(1, f - 1)))) if f > 1 else []
    members = tuple(
        tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, f])
    )
    if matrix is None:
        columns = []
        for _ in range(draw(st.integers(0, 5))):
            support = draw(st.sampled_from([*members, range(f), ()]))
            col = [0] * f
            for i in support:
                col[i] = draw(st.integers(0, q - 1))
            columns.append(tuple(col))
        matrix = EncodingMatrix(tuple(columns), q)
    side_counts = tuple(draw(st.integers(0, len(m))) for m in members)
    return matrix, members, side_counts


# satisfying GF(2) matrices on which the walk gets stuck: (columns, class
# members, side counts, demand); the pool search certifies each
_STUCK_WALKS = [
    (((0, 0, 1, 1), (1, 1, 0, 0)), ((0, 1, 2, 3),), (1,), 1),
    (((1, 1, 1, 1, 0), (1, 1, 0, 0, 0)), ((4,), (0, 1, 2, 3)), (0, 1), 1),
    (
        ((1, 1, 1, 0, 0), (1, 0, 1, 1, 0), (0, 1, 0, 0, 0), (1, 0, 1, 0, 1)),
        ((1,), (0, 2, 3, 4)),
        (0, 1),
        2,
    ),
]


def _reference_picks(matrix, side, members):
    """Per class, the first index a client holding side decodes anew."""
    return tuple(
        next((m for m in ms if m not in side and decodable(m, matrix, side)), None)
        for ms in members
    )


@settings(max_examples=200, deadline=None)
@given(_classed_matrices())
@example((EncodingMatrix(_STUCK_WALKS[0][0], 2), _STUCK_WALKS[0][1], _STUCK_WALKS[0][2]))
def test_group_tables_match_per_client_checks(case):
    # q in {2, 3, 4}, every demand: the product decomposition agrees with
    # checking every client of the full family, and the certificate's pools
    # are the per-client first picks gathered over the family
    matrix, members, side_counts = case
    f, q = matrix.num_messages, matrix.q
    open_classes = sum(len(m) > k for m, k in zip(members, side_counts))
    for t in range(1, len(members) + 1):
        if sum(side_counts) > f - t:
            continue
        if t > open_classes:
            # only a class not fully held has something new to decode
            with pytest.raises(ParameterError, match="not fully held"):
                PicodInstance(members, side_counts, t, q)
            continue
        instance = PicodInstance(members, side_counts, t, q)
        fresh = EncodingMatrix(matrix.columns, q)
        family = instance.side_family()
        want = all(client_satisfied(fresh, side, instance) for side in family)
        assert all_clients_satisfied(matrix, instance) == want
        assert all_clients_satisfied(matrix, instance) == want  # memoized tables
        if not want:
            with pytest.raises(ParameterError):
                rank_lower_bound_certificate(matrix, instance)
            continue
        picks = {side: _reference_picks(fresh, side, members) for side in family}
        walker = _Walker(matrix, instance)
        for side in family:
            assert tuple(walker.pick(side, j) for j in range(len(members))) == picks[side]
        gathered = {
            j: tuple(sorted({p[j] for p in picks.values()} - {None}))
            for j in range(len(members))
        }
        assert walker.decoded_pools(range(len(members))) == gathered
        cert = rank_lower_bound_certificate(matrix, instance)
        assert cert.ok and cert.rank_floor >= broadcast_lower_bound(instance)
        assert cert.decoded_pool == {j: gathered[j] for j in cert.chosen_classes}


def test_span_blocks_follow_column_supports():
    # coordinates 0 and 3 are joined by a column, 1 stands alone, 2 and 4
    # are covered by no column; zero columns belong to no block
    cols = ((1, 0, 0, 2, 0), (0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (2, 0, 0, 0, 0))
    matrix = EncodingMatrix(cols, 3)
    blocks, memo = matrix._span_blocks
    assert blocks == [((0, 3), (cols[0], cols[3])), ((1,), (cols[2],))]
    assert _decodable_set(matrix, ()) == {0, 1, 3}
    assert _decodable_set(matrix, (0,)) == {1, 3}
    assert _decodable_set(matrix, (1, 2)) == {0, 3}
    assert memo == {(0, (0, 3)): (0, 3), (1, (1,)): (1,), (0, (3,)): (3,), (1, ()): ()}


def test_insert_keeps_reduced_echelon_form():
    field = make_field(5)
    basis = _insert(field, (), [0, 2, 4, 1])
    assert basis == ((1, [0, 1, 2, 3]),)
    assert _insert(field, basis, [0, 3, 1, 4]) is basis  # already in the span
    basis = _insert(field, basis, [1, 1, 0, 0])
    basis = _insert(field, basis, [0, 0, 0, 2])
    assert sorted(basis) == [(0, [1, 0, 3, 0]), (1, [0, 1, 2, 0]), (3, [0, 0, 0, 1])]
    assert sorted(_unit_pivots(basis)) == [3]


def _reference_search(instance, l_max, budget):
    """The plain search: every combination, every client checked afresh."""
    family = instance.side_family()
    points = _projective_points(instance.q, instance.num_messages)
    examined = 0
    exhausted = []
    for l in range(1, l_max + 1):
        if examined + math.comb(len(points), l) > budget:
            return "budget", examined, tuple(exhausted)
        for combo in itertools.combinations(points, l):
            examined += 1
            matrix = EncodingMatrix(combo, instance.q)
            if all(client_satisfied(matrix, side, instance) for side in family):
                return SearchResult(True, l, matrix, examined, tuple(exhausted)).to_json()
        exhausted.append(l)
    return SearchResult(False, None, None, examined, tuple(exhausted)).to_json()


def test_bruteforce_matches_reference_search():
    # every shape with f <= 4 over GF(2), GF(3) and GF(4), every demand, one
    # length short of the bound and at it: same witness, examined count and
    # exhausted lengths, or the same budget error
    from conftest import compositions

    budget = 20_000
    compared = over_budget = 0
    for q in (2, 3, 4):
        for f in range(2, 5):
            for gamma in range(2, f + 1):
                for sizes in compositions(f, gamma):
                    for counts in itertools.product(*[range(mu) for mu in sizes]):
                        for t in range(1, gamma + 1):
                            if sum(counts) > f - t:
                                continue
                            instance = inst(sizes, counts, q=q, t=t)
                            bound = broadcast_lower_bound(instance)
                            for l_max in (bound - 1, bound):
                                want = _reference_search(instance, l_max, budget)
                                try:
                                    got = min_code_length_bruteforce(
                                        instance, l_max, budget=budget
                                    ).to_json()
                                except SearchBudgetError as err:
                                    got = "budget", err.examined, err.exhausted_lengths
                                    over_budget += 1
                                assert got == want, (sizes, counts, q, t, l_max)
                                compared += 1
    assert compared == 330 and over_budget > 0


def _reference_cases():
    """Every (instance, l_max) of test_bruteforce_matches_reference_search."""
    from conftest import compositions

    for q in (2, 3, 4):
        for f in range(2, 5):
            for gamma in range(2, f + 1):
                for sizes in compositions(f, gamma):
                    for counts in itertools.product(*[range(mu) for mu in sizes]):
                        for t in range(1, gamma + 1):
                            if sum(counts) <= f - t:
                                instance = inst(sizes, counts, q=q, t=t)
                                bound = broadcast_lower_bound(instance)
                                yield instance, bound - 1
                                yield instance, bound


def _search_or_budget(instance, l_max, budget):
    try:
        return min_code_length_bruteforce(instance, l_max, budget=budget)
    except SearchBudgetError as err:
        return "budget", str(err), err.examined, err.exhausted_lengths


@pytest.mark.parametrize(
    "sizes, counts, q, order",
    [
        ((2, 3), (1, 1), 2, 2 * 6),  # within-class permutations only
        ((1, 1, 1), (0, 0, 0), 3, 6 * 4),  # class swaps; 2^3 scalings, 2 act alike
        ((2, 2), (1, 0), 4, 2 * 2 * 27),  # unequal k: no class swap; 3^4 / 3 scalings
        ((1, 2, 1), (0, 1, 0), 3, 2 * 2 * 8),
    ],
)
def test_group_elements_permute_points_and_keep_the_side_family(sizes, counts, q, order):
    # the whole group is listed; each element permutes the points, sends unit
    # points to unit points (a coordinate map), carries the side family onto
    # itself and keeps "every client satisfied" on column sets
    instance = inst(sizes, counts, q=q, t=1)
    points = _projective_points(q, instance.num_messages)
    index = {p: i for i, p in enumerate(points)}
    f, n = instance.num_messages, len(points)
    units = [index[tuple(int(i == m) for i in range(f))] for m in range(f)]
    family = set(instance.side_family())
    elements = _group_elements(instance, points)
    assert len(set(elements)) == len(elements) == order - 1 and tuple(range(n)) not in elements
    rng = random.Random(7)
    for element in elements:
        assert sorted(element) == list(range(n))
        coords = [points[element[u]].index(1) for u in units]
        assert all(element[units[m]] == units[coords[m]] for m in range(f))
        assert {tuple(sorted(coords[m] for m in side)) for side in family} == family
        for _ in range(3):
            combo = rng.sample(range(n), rng.randint(1, 4))
            before = EncodingMatrix(tuple(points[i] for i in combo), q)
            after = EncodingMatrix(tuple(points[element[i]] for i in combo), q)
            assert all_clients_satisfied(before, instance) == all_clients_satisfied(after, instance)


def test_bruteforce_same_result_with_fewer_or_no_group_elements(monkeypatch):
    # pruning is sound for any subset of the group: no elements (the plain
    # scan) and the generators alone give the same results as the closure
    cases = list(_reference_cases())
    want = [_search_or_budget(instance, l_max, 20_000) for instance, l_max in cases]
    for builder in (lambda instance, points: [], _group_generators):
        monkeypatch.setattr(picod, "_group_elements", builder)
        got = [_search_or_budget(instance, l_max, 20_000) for instance, l_max in cases]
        assert got == want
    assert len(cases) == 330


def test_bruteforce_checks_fewer_candidates_than_it_counts():
    # (1,1,1,1,1)/(0,0,0,0,0) over GF(2): the five classes permute freely,
    # 120 elements, so far fewer candidates are checked than the scan counts
    result = min_code_length_bruteforce(inst((1, 1, 1, 1, 1), (0, 0, 0, 0, 0), q=2), 5)
    assert result.min_length == 5 and result.group_elements == 120
    assert result.checked * 10 < result.examined
    # the work counts stay out of equality
    assert result == SearchResult(True, 5, result.witness, result.examined, (1, 2, 3, 4))


def _inserted_verdict(client, field, prefix, last):
    """A search client's verdict from inserting the prefix and last afresh."""
    basis = ()
    for i in prefix + (last,):
        basis = _insert(field, basis, client._column(i))
    return len({client.classes[p] for p in _unit_pivots(basis)}) >= client.demand


def _stub_lookahead(monkeypatch):
    """Search without the lookahead: no prefix is hopeless and every leaf
    is checked by full insertions."""
    monkeypatch.setattr(picod._PrefixSpans, "hopeless", lambda self, field, prefix: False)
    monkeypatch.setattr(picod._PrefixSpans, "satisfied", _inserted_verdict)


def test_bruteforce_checks_one_candidate_per_orbit(monkeypatch):
    # without the lookahead, length 1 is scanned in full and from length 2
    # on, with the whole group listed, exactly the least set of each orbit
    # is checked: (1,1,1,1)/(0,0,0,0) over GF(2) exhausts lengths 1-3 of 15
    # points; the lookahead checks at most those
    instance = inst((1, 1, 1, 1), (0, 0, 0, 0), q=2)
    points = _projective_points(2, 4)
    group = [tuple(range(len(points)))] + _group_elements(instance, points)
    assert len(group) == 24
    orbits = {
        min(tuple(sorted(g[x] for x in combo)) for g in group)
        for l in (2, 3)
        for combo in itertools.combinations(range(len(points)), l)
    }
    result = min_code_length_bruteforce(instance, 3)
    assert not result.found and result.examined == 15 + 105 + 455
    assert result.checked <= 15 + len(orbits) and result.group_elements == 24
    _stub_lookahead(monkeypatch)
    plain = min_code_length_bruteforce(instance, 3)
    assert plain == result and plain.pruned == 0
    assert plain.checked == 15 + len(orbits) and plain.group_elements == 24


def test_bruteforce_same_result_without_the_lookahead(monkeypatch):
    # the lookahead changes what is checked, never the result
    cases = list(_reference_cases())
    want = [_search_or_budget(instance, l_max, 20_000) for instance, l_max in cases]
    _stub_lookahead(monkeypatch)
    assert [_search_or_budget(instance, l_max, 20_000) for instance, l_max in cases] == want
    assert len(cases) == 330


@st.composite
def _client_prefixes(draw):
    """A search client over GF(2..5), at most 156 points, with two prefixes
    of distinct points."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    f = draw(st.integers(2, {2: 7, 3: 5, 4: 4, 5: 4}[q]))
    cuts = sorted(draw(st.lists(st.integers(1, f - 1), max_size=3, unique=True)))
    members = tuple(tuple(range(a, b)) for a, b in zip([0] + cuts, cuts + [f]))
    counts = tuple(draw(st.integers(0, len(m))) for m in members)
    open_classes = sum(len(m) > k for m, k in zip(members, counts))
    assume(open_classes >= 1)
    instance = PicodInstance(members, counts, draw(st.integers(1, open_classes)), q)
    side = draw(st.sampled_from(instance.side_family()))
    points = _projective_points(q, instance.num_messages)
    prefix = st.lists(st.integers(0, len(points) - 1), max_size=4, unique=True).map(tuple)
    return picod._PrefixSpans(instance, side, points), make_field(q), [draw(prefix), draw(prefix)]


@settings(max_examples=150, deadline=None)
@given(_client_prefixes())
def test_residue_lookup_matches_a_full_insertion(case):
    client, field, prefixes = case
    for prefix in prefixes:
        for x in range(len(client.points)):
            assert client.satisfied(field, prefix, x) == _inserted_verdict(client, field, prefix, x)


@settings(max_examples=150, deadline=None)
@given(_client_prefixes())
def test_hopeless_exactly_when_no_point_satisfies(case):
    client, field, prefixes = case
    for prefix in prefixes:
        fits = any(_inserted_verdict(client, field, prefix, x) for x in range(len(client.points)))
        assert client.hopeless(field, prefix) == (not fits)


def test_group_listing_stays_under_the_entry_cap():
    # (5,5)/(2,2) over GF(2): 5! * 5! * 2 = 28,800 elements on 1,023 points,
    # about 29M entries; the listing stops at the cap with the generators in
    instance = inst((5, 5), (2, 2), q=2)
    points = _projective_points(2, 10)
    elements = _group_elements(instance, points)
    assert 0 < len(elements) * len(points) <= GROUP_ENTRY_CAP
    assert set(_group_generators(instance, points)) <= set(elements)


def test_lex_rank_matches_combinations_order():
    for n in range(1, 8):
        for l in range(1, n + 1):
            for rank, combo in enumerate(itertools.combinations(range(n), l)):
                assert _lex_rank(combo, n) == rank


def test_bruteforce_budget_error_with_partial_progress():
    instance = inst((3, 2), (1, 0), q=3)
    with pytest.raises(SearchBudgetError) as err:
        min_code_length_bruteforce(instance, 3, budget=200)
    assert err.value.exhausted_lengths == (1,)
    assert err.value.examined > 0


def test_bruteforce_budget_checked_before_listing_points(monkeypatch):
    # (5,5)/(2,1) over GF(11) has (11^10 - 1)/10 projective points; listing
    # them would take gigabytes, so the budget must refuse length 1 first
    def listed(q, f):
        raise AssertionError("points listed past the budget")

    monkeypatch.setattr(picod, "_projective_points", listed)
    with pytest.raises(SearchBudgetError) as err:
        min_code_length_bruteforce(inst((5, 5), (2, 1), q=11), 3)
    assert err.value.exhausted_lengths == () and err.value.examined == 0
    assert "needs 2593742460 candidates" in str(err.value)


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


def _stuck_walk_case(monkeypatch):
    params, layout, store, side, _ = make_world((3, 3), (1, 1), seed=6)
    matrix = answer_to_encoding_matrix(usi_answer(usi_query(0, side), store, 7), layout)
    instance = PicodInstance(layout.class_members, (1, 1), 2, params.q)
    monkeypatch.setattr(picod._Walker, "run", lambda self, *args: (None, []))
    return matrix, instance


def test_a_stuck_walk_certifies_through_the_pool_search(monkeypatch):
    matrix, instance = _stuck_walk_case(monkeypatch)
    cert = rank_lower_bound_certificate(matrix, instance)
    assert cert.ok and cert.strategy == "search" and cert.trace == ()
    assert len(cert.collected) == cert.rank_floor == 4
    assert cert.to_json()["strategy"] == "search"


def test_a_stuck_walk_and_a_failed_search_are_a_certificate_error(monkeypatch):
    matrix, instance = _stuck_walk_case(monkeypatch)
    monkeypatch.setattr(picod, "_verify_collected", lambda *args: False)
    with pytest.raises(CertificateError, match="could not assemble") as err:
        rank_lower_bound_certificate(matrix, instance)
    report = err.value.report
    assert not report.ok and report.failure == "walk and search failed"
    assert report.to_json()["strategy"] == "search"


@pytest.mark.parametrize("columns, members, side_counts, t", _STUCK_WALKS)
def test_stuck_walks_certify_through_the_pool_search(columns, members, side_counts, t):
    matrix = EncodingMatrix(columns, 2)
    instance = PicodInstance(members, side_counts, t, 2)
    cert = rank_lower_bound_certificate(matrix, instance)
    assert cert.ok and cert.strategy == "search"
    assert cert.rank_floor >= broadcast_lower_bound(instance)
    assert cert.rank_floor <= len(cert.collected) <= cert.matrix_rank
    # the search sacrifices nothing; the stuck walk's map would name a
    # collected index (first case: collected (0, 2), walk map {0: (3, 2)})
    assert cert.sacrificed == {} and cert.to_json()["sacrificed"] == {}


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


def test_certificate_below_full_demand_on_every_minimum_witness():
    # every shape with f <= 5 over GF(2) and f <= 4 over GF(3), every t < Gamma:
    # the minimum witness is certified at the bound.  55 of the 154 serve
    # classes other than the t with the smallest floors, which used to raise
    # CertificateError; the retry over the other t-subsets certifies them
    from conftest import compositions

    certified = retried = 0
    for q, max_f in ((2, 5), (3, 4)):
        for f in range(2, max_f + 1):
            for gamma in range(2, f + 1):
                for sizes in compositions(f, gamma):
                    for counts in itertools.product(*[range(mu) for mu in sizes]):
                        for t in range(1, gamma):
                            if sum(counts) > f - t:
                                continue
                            instance = inst(sizes, counts, q=q, t=t)
                            bound = broadcast_lower_bound(instance)
                            result = min_code_length_bruteforce(instance, bound)
                            assert result.min_length == bound, (sizes, counts, q, t)
                            cert = rank_lower_bound_certificate(result.witness, instance)
                            assert cert.ok and cert.rank_floor == bound
                            assert bound <= len(cert.collected) <= cert.matrix_rank
                            floors = [class_floor(mu, k) for mu, k in zip(sizes, counts)]
                            first = sorted(range(gamma), key=lambda j: (floors[j], j))[:t]
                            retried += set(cert.chosen_classes) != set(first)
                            certified += 1
    assert certified == 154 and retried == 55


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

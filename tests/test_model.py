import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ppir.errors import EnumerationCapError, FieldConstructionError, ParameterError
from ppir.model import (
    DEFAULT_IDENTIFIER_RANGE,
    InstanceParams,
    MessageStore,
    build_layout,
    enumerate_side_info_sets,
    held_messages,
    positional_side_info,
    random_store,
    sample_positions,
    sample_side_info,
    sample_side_positions,
    side_from_positions,
)

# upper chi-square quantiles at alpha = 1e-3
CHI2_999 = {1: 10.828, 3: 16.266}


def test_params_validation():
    InstanceParams((3, 3), (1, 1), msg_len=2, q=5)
    with pytest.raises(ParameterError):
        InstanceParams((3,), (1,))  # one class
    with pytest.raises(ParameterError):
        InstanceParams((3, 3), (1,))  # profile length mismatch
    with pytest.raises(ParameterError):
        InstanceParams((3, 3), (3, 1))  # class fully held
    with pytest.raises(ParameterError):
        InstanceParams((3, 0), (1, 0))  # empty class
    with pytest.raises(ParameterError):
        InstanceParams((3, 3), (-1, 0))


@pytest.mark.parametrize(
    "sizes, counts",
    [
        ((2.7, 3), (1, 1)),
        ((3.0, 3), (1, 1)),
        (("3", "3"), ("1", "1")),
        ((3, 3), (True, 1)),  # bool is an int subclass
        ((3, 3), (1.0, 1)),
    ],
)
def test_params_refuse_non_integer_shapes(sizes, counts):
    with pytest.raises(ParameterError, match="must be integers"):
        InstanceParams(sizes, counts)


def test_params_q_must_be_a_field_order():
    # fields.make_field decides which orders exist; q=6 used to load and fail mid-run
    for q in (1, 6, 9, 2**17):
        with pytest.raises(FieldConstructionError):
            InstanceParams((3, 3), (1, 1), q=q)
    for q in (2, 4, 5, 2**16, 65537):
        assert InstanceParams((3, 3), (1, 1), q=q).q == q


def test_params_derived_quantities():
    p = InstanceParams((4, 2, 3), (1, 0, 2), q=7)
    assert p.num_messages == 9
    assert p.num_classes == 3
    assert p.total_side == 3
    assert p.side_family_size() == math.comb(4, 1) * math.comb(2, 0) * math.comb(3, 2)
    # at least one new message per class forces num_classes <= f - kappa
    assert p.num_classes <= p.num_messages - p.total_side


def test_layout_partition_and_label_uniqueness():
    p = InstanceParams((3, 2), (1, 0), q=3)
    layout = build_layout(p, 7)
    flat = sorted(m for members in layout.class_members for m in members)
    assert flat == list(range(5))
    for labs in layout.labels:
        assert len(set(labs)) == len(labs)
    assert [len(members) for members in layout.class_members] == [3, 2]


def test_layout_deterministic_per_seed():
    p = InstanceParams((3, 3), (1, 1), q=5)
    assert build_layout(p, 5) == build_layout(p, 5)
    assert build_layout(p, 5) != build_layout(p, 6)


def test_layout_uniform_over_assignments():
    # two singleton classes: message 0 lands in class 1 half the time
    p = InstanceParams((1, 1), (0, 0), q=2)
    hits = sum(build_layout(p, seed).class_members[0][0] for seed in range(10_000))
    expected = 5_000
    chi2 = (hits - expected) ** 2 / expected + ((10_000 - hits) - expected) ** 2 / expected
    assert chi2 < CHI2_999[1]


def test_forced_structure_when_all_classes_singletons():
    p = InstanceParams((1, 1, 1), (0, 0, 0), q=3)
    layout = build_layout(p, 3)
    assert all(len(members) == 1 for members in layout.class_members)
    assert sorted(m for members in layout.class_members for m in members) == [0, 1, 2]


def test_identifier_range_configurable():
    p = InstanceParams((2, 1), (1, 0), q=3)
    layout = build_layout(p, 1, identifier_range=(1, 4))
    for labs in layout.labels:
        assert all(1 <= a <= 4 for a in labs)
    with pytest.raises(ParameterError):
        build_layout(p, 1, identifier_range=(1, 1))


def test_store_determinism_and_distinctness():
    p = InstanceParams((3, 3), (1, 1), msg_len=4, q=5)
    layout = build_layout(p, 0)
    assert random_store(layout, 1) == random_store(layout, 1)
    assert random_store(layout, 1) != random_store(layout, 2)


@pytest.mark.parametrize("msg_len", [1, 20])
def test_store_refuses_rows_off_the_shape_or_the_field(msg_len):
    p = InstanceParams((3, 3), (1, 1), msg_len=msg_len, q=5)
    layout = build_layout(p, 0)
    rows = random_store(layout, 1).messages
    assert MessageStore(layout, rows).messages == rows
    for bad, message in (
        (rows[0] + (0,), "msg_len symbols"),
        (rows[0][1:], "msg_len symbols"),
        (rows[0][:-1] + (-1,), r"\[0, q\)"),
        ((5,) + rows[0][1:], r"\[0, q\)"),
    ):
        with pytest.raises(ParameterError, match=message):
            MessageStore(layout, rows[:4] + (bad,) + rows[5:])


def test_store_symbol_frequencies():
    p = InstanceParams((1, 1), (0, 0), msg_len=1, q=2)
    layout = build_layout(p, 0)
    ones = sum(random_store(layout, seed).messages[0][0] for seed in range(10_000))
    chi2 = (ones - 5_000) ** 2 / 5_000 + (10_000 - ones - 5_000) ** 2 / 5_000
    assert chi2 < CHI2_999[1]


def test_store_empirical_entropy():
    # plug-in entropy of 10^5 uniform draws stays within three standard
    # errors of log q after the first-order bias correction
    q = 5
    p = InstanceParams((5, 5), (0, 0), msg_len=10, q=q)
    layout = build_layout(p, 0)
    symbols = [s for seed in range(1_000) for row in random_store(layout, seed).messages for s in row]
    n = len(symbols)
    counts = Counter(symbols)
    probs = [c / n for c in counts.values()]
    entropy = -sum(pr * math.log(pr) for pr in probs)
    bias = (q - 1) / (2 * n)
    var = sum(pr * math.log(pr) ** 2 for pr in probs) - entropy**2
    se = math.sqrt(max(var, 1e-12) / n)
    assert abs(entropy + bias - math.log(q)) <= 3 * se + 1e-6


def test_side_info_counts_and_views():
    p = InstanceParams((4, 3), (2, 1), q=7)
    layout = build_layout(p, 3)
    side = sample_side_info(layout, 4)
    assert side.per_class_counts == (2, 1)
    assert len(side.label_set) == 3
    # each label names a distinct held message of its class through the layout
    held = {layout.index_of(lab) for lab in side.label_set}
    assert len(held) == 3
    for i, ident in side.label_set:
        assert layout.index_of((i, ident)) in layout.class_members[i]
    values = held_messages(random_store(layout, 5), side)
    assert set(values) == set(side.label_set)


def test_side_info_uniform_over_family():
    p = InstanceParams((2, 2), (1, 1), q=3)
    layout = build_layout(p, 0)
    counts = Counter(
        sample_side_info(layout, seed).label_set for seed in range(10_000)
    )
    assert len(counts) == 4
    expected = 10_000 / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_999[3]


def test_side_info_empty_and_complement_cases():
    p = InstanceParams((3, 2), (0, 0), q=3)
    layout = build_layout(p, 0)
    assert sample_side_info(layout, 1).label_set == ()
    # maximal side information: one complement per class member choice
    p2 = InstanceParams((2, 2), (1, 1), q=3)
    layout2 = build_layout(p2, 0)
    sets = enumerate_side_info_sets(layout2)
    assert len(sets) == 4
    assert len({frozenset(map(layout2.index_of, s.label_set)) for s in sets}) == 4


def test_enumeration_counts_and_cap():
    p = InstanceParams((3, 2), (1, 0), q=3)
    layout = build_layout(p, 0)
    assert len(enumerate_side_info_sets(layout)) == 3
    p2 = InstanceParams((3, 3), (1, 1), q=5)
    layout2 = build_layout(p2, 0)
    assert len(enumerate_side_info_sets(layout2)) == 9
    with pytest.raises(EnumerationCapError):
        enumerate_side_info_sets(layout2, cap=8)


def test_positional_side_info():
    p = InstanceParams((3, 3), (1, 1), q=5)
    layout = build_layout(p, 9)
    side = sample_side_info(layout, 10)
    pos_side = positional_side_info(layout, side)
    assert pos_side.per_class_counts == side.per_class_counts
    for (i, pos) in pos_side.label_set:
        assert 0 <= pos < p.class_sizes[i]
        assert (i, layout.labels[i][pos]) in side.label_set


# --- the draws equal the random.Random calls they replace -------------------
#
# Each reference below is the stdlib call the model used to make; outputs and
# the generator state afterwards must match, so seeded reports stay the same.

SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def population_and_count(draw):
    # 21 is the largest population Random.sample always draws from a pool
    mu = draw(st.one_of(st.sampled_from((1, 2, 20, 21, 22, 23, 30, 60)), st.integers(1, 80)))
    k = draw(st.one_of(st.sampled_from((0, mu)), st.integers(0, mu)))
    return mu, k


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, shape=population_and_count())
@example(seed=0, shape=(21, 0))
@example(seed=1, shape=(21, 21))
@example(seed=2, shape=(22, 0))
@example(seed=3, shape=(22, 22))
@example(seed=4, shape=(22, 6))  # still a pool draw inside Random.sample
@example(seed=2, shape=(22, 5))  # Random.sample's set branch; a pool draw differs here
@example(seed=2, shape=(23, 3))
@example(seed=2, shape=(30, 2))
@example(seed=5, shape=(50, 10))
def test_sample_positions_draws_as_stdlib_sample(seed, shape):
    mu, k = shape
    ours, ref = random.Random(seed), random.Random(seed)
    assert sample_positions(ours, mu, k) == tuple(sorted(ref.sample(range(mu), k)))
    assert ours.getstate() == ref.getstate()


def test_sample_positions_rejects_impossible_counts():
    for mu, k in ((3, 4), (3, -1), (30, 31)):
        with pytest.raises(ParameterError):
            sample_positions(random.Random(0), mu, k)


@st.composite
def side_profile(draw):
    # class sizes on both sides of 21, where sample_positions changes branch
    sizes = draw(st.lists(st.integers(1, 30), min_size=2, max_size=4))
    return sizes, [draw(st.integers(0, mu - 1)) for mu in sizes]


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, profile=side_profile())
@example(seed=0, profile=([10, 10], [1, 0]))
@example(seed=1, profile=([8, 8, 8], [2, 2, 2]))
def test_side_positions_draw_as_stdlib_sample_and_rebuild_the_side(seed, profile):
    # sample_side_positions then side_from_positions is sample_side_info,
    # with the same draws: the statistical audit draws positions alone
    sizes, counts = profile
    layout = build_layout(InstanceParams(sizes, counts), 0)
    split, whole, ref = random.Random(seed), random.Random(seed), random.Random(seed)
    positions = sample_side_positions(layout, split)
    assert positions == tuple(
        tuple(sorted(ref.sample(range(mu), k))) for mu, k in zip(sizes, counts)
    )
    assert side_from_positions(layout, positions) == sample_side_info(layout, whole)
    assert split.getstate() == whole.getstate() == ref.getstate()


@settings(max_examples=80, deadline=None)
@given(
    seed=SEEDS,
    q=st.sampled_from((2, 3, 5, 65537, 2**31 - 1)),
    msg_len=st.integers(1, 6),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
)
def test_random_store_draws_as_stdlib_randrange(seed, q, msg_len, sizes):
    params = InstanceParams(sizes, [0] * len(sizes), msg_len=msg_len, q=q)
    layout = build_layout(params, 0)
    ours, ref = random.Random(seed), random.Random(seed)
    want = tuple(
        tuple(ref.randrange(q) for _ in range(msg_len)) for _ in range(params.num_messages)
    )
    assert random_store(layout, ours).messages == want
    assert ours.getstate() == ref.getstate()


def _reference_layout(params, rng, identifier_range):
    lo, hi = identifier_range
    indices = list(range(params.num_messages))
    rng.shuffle(indices)
    members, labels, at = [], [], 0
    for mu in params.class_sizes:
        members.append(tuple(indices[at: at + mu]))
        at += mu
        labs = []
        while len(labs) < mu:
            v = rng.randint(lo, hi)
            if v not in labs:
                labs.append(v)
        labels.append(tuple(labs))
    return tuple(members), tuple(labels)


@settings(max_examples=80, deadline=None)
@given(
    seed=SEEDS,
    sizes=st.lists(st.integers(1, 25), min_size=2, max_size=4),
    # the default range takes 33-bit draws; (1, 30) forces repeats, 2**40 wider words
    identifier_range=st.sampled_from(
        (DEFAULT_IDENTIFIER_RANGE, (1, 30), (7, 7 + 2**40), (0, 2**64))
    ),
)
def test_build_layout_draws_as_stdlib_shuffle_and_randint(seed, sizes, identifier_range):
    params = InstanceParams(sizes, [0] * len(sizes))
    ours, ref = random.Random(seed), random.Random(seed)
    layout = build_layout(params, ours, identifier_range=identifier_range)
    want = _reference_layout(params, ref, identifier_range)
    assert (layout.class_members, layout.labels) == want
    assert ours.getstate() == ref.getstate()

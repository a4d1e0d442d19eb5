from fractions import Fraction

import pytest

from conftest import make_world
from ppir.audit import (
    ClassBiasedServer,
    ClassTagServer,
    FSI_MUTANT_USERS,
    MUTANT_SERVERS,
    SideParityDropServer,
    UsiServer,
    _answer_serializer,
    audit_exact,
    audit_fsi_query_exact,
    audit_statistical,
    exact_audit_work,
)
from ppir.errors import EnumerationCapError, ParameterError
from ppir.model import InstanceParams, build_layout, random_store, sample_side_info
from ppir.protocol import Answer, usi_answer, usi_query
from ppir.wire import answer_to_json, canonical_bytes


class ReferenceServer(UsiServer):
    """Honest server without the memo: one usi_answer per call."""

    def answer_for(self, query, store, choice, v=None, side=None):
        return usi_answer(query, store, selections=choice)


class LeakyServer(UsiServer):
    """Memoized honest answer, then v tagged into the extras."""

    name = "leaky-after-memo"

    def answer_for(self, query, store, choice, v=None, side=None):
        answer = super().answer_for(query, store, choice, v=v, side=side)
        return Answer(answer.q, answer.msg_len, answer.payloads, answer.extras + (("v", v),))


def test_exact_audit_honest_mixed_branches():
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=1)
    # 2 sides x 2 classes x 4 uncoded selections
    assert exact_audit_work(layout) == 16
    verdict = audit_exact(store)
    assert verdict.passed
    assert verdict.query_invariant
    assert verdict.answer_tv_distance == Fraction(0)


def test_exact_audit_honest_all_parity_deterministic():
    params, layout, store, _, _ = make_world((2, 2), (1, 1), seed=2)
    verdict = audit_exact(store)
    assert verdict.passed and verdict.answer_tv_distance == 0
    assert verdict.notes["work"] == 4 * 2  # |S| * Gamma, no selection freedom


def test_exact_audit_fails_every_mutant():
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)
    for cls in MUTANT_SERVERS:
        verdict = audit_exact(store, server=cls())
        assert not verdict.passed, cls.name
        assert verdict.answer_tv_distance > 0, cls.name


def test_exact_audit_tv_values():
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=4)
    assert audit_exact(store, server=ClassTagServer()).answer_tv_distance == 1
    drop = audit_exact(store, server=SideParityDropServer())
    assert drop.answer_tv_distance == 1  # row counts differ deterministically


@pytest.mark.parametrize(
    "class_sizes, side_counts",
    [
        ((5, 4, 3), (1, 0, 0)),  # uncoded-heavy: 120 selections per query
        ((5, 5, 3), (2, 3, 1)),  # parity-heavy: every class coded
        ((4, 2), (0, 1)),
    ],
)
def test_memoized_server_matches_reference(class_sizes, side_counts):
    params, layout, store, _, _ = make_world(class_sizes, side_counts, seed=14)
    memo = audit_exact(store)
    assert memo.passed
    assert memo.to_json() == audit_exact(store, server=ReferenceServer()).to_json()


def test_memoized_server_matches_reference_statistical():
    params = InstanceParams((10, 10), (8, 0), msg_len=1, q=13)
    layout = build_layout(params, 11)
    memo = audit_statistical(layout, 2_000, 15)
    reference = audit_statistical(layout, 2_000, 15, server=ReferenceServer())
    assert memo.passed and memo.to_json() == reference.to_json()


def test_server_reused_across_stores():
    params = InstanceParams((5, 4), (1, 2), q=7)
    layout = build_layout(params, 16)
    first, second = random_store(layout, 17), random_store(layout, 18)
    assert first.messages != second.messages
    server = UsiServer()
    for store in (first, second):
        assert audit_exact(store, server=server).to_json() == audit_exact(store).to_json()
    query = usi_query(0, sample_side_info(layout, 19))
    choice = tuple(space[0] for space in server.choice_space(query, layout))
    reused = server.answer_for(query, second, choice)
    assert reused == usi_answer(query, second, selections=choice)
    assert reused != usi_answer(query, first, selections=choice)
    assert server.answer_for(query, second, choice) is reused


def test_leak_added_after_memo_still_fails():
    # guards the memo staying inside the honest server: a subclass that
    # reuses the honest answer and then leaks v must still be caught
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)
    verdict = audit_exact(store, server=LeakyServer())
    assert not verdict.passed and verdict.answer_tv_distance == 1


def test_answer_serializer_follows_object_identity():
    # fresh answers die at once, so their ids are reused; every call must
    # still return the bytes of the object it was given
    answer_bytes = _answer_serializer()
    kept = Answer(q=3, msg_len=1, payloads=(), extras=(("t", -1),))
    for tag in range(200):
        answer = Answer(q=3, msg_len=1, payloads=(), extras=(("t", tag),))
        assert answer_bytes(answer) == canonical_bytes(answer_to_json(answer))
        assert answer_bytes(kept) is answer_bytes(kept)


def test_exact_audit_cap_points_to_statistical():
    params, layout, store, _, _ = make_world((5, 5), (1, 1), seed=5)
    with pytest.raises(EnumerationCapError, match="statistical"):
        audit_exact(store, cap=10)


def test_statistical_audit_honest_passes():
    params = InstanceParams((10, 10), (1, 0), msg_len=1, q=2)
    layout = build_layout(params, 6)
    verdict = audit_statistical(layout, 4_000, 7)
    assert verdict.passed
    assert verdict.mi_estimate < verdict.mi_threshold
    assert verdict.query_invariant


def test_statistical_audit_catches_leaks():
    params = InstanceParams((10, 10), (1, 0), msg_len=1, q=2)
    layout = build_layout(params, 8)
    tag = audit_statistical(layout, 4_000, 9, server=ClassTagServer())
    assert not tag.passed
    assert tag.mi_estimate > 0.5  # roughly one leaked bit of the class index
    biased = audit_statistical(layout, 4_000, 10, server=ClassBiasedServer())
    assert not biased.passed


def test_statistical_audit_catches_parity_drop():
    # needs a parity class: (10,10)/(8,0) sends 2 parity rows for class 0
    params = InstanceParams((10, 10), (8, 0), msg_len=1, q=13)
    layout = build_layout(params, 11)
    verdict = audit_statistical(layout, 4_000, 12, server=SideParityDropServer())
    assert not verdict.passed
    honest = audit_statistical(layout, 4_000, 13)
    assert honest.passed


def test_statistical_audit_requires_trials():
    params = InstanceParams((4, 4), (1, 1), q=7)
    layout = build_layout(params, 1)
    with pytest.raises(ParameterError):
        audit_statistical(layout, 0, 1)


def test_verdict_serialization():
    params, layout, store, _, _ = make_world((2, 2), (1, 1), seed=9)
    doc = audit_exact(store).to_json()
    assert doc["mode"] == "exact" and doc["verdict"] == "pass"
    assert doc["answer_tv_distance"] == {"num": 0, "den": 1}
    params2 = InstanceParams((6, 6), (1, 1), q=3)
    layout2 = build_layout(params2, 2)
    doc2 = audit_statistical(layout2, 500, 3).to_json()
    assert doc2["mode"] == "statistical" and "mi_estimate" in doc2


def test_fsi_query_marginal_v_invariance():
    for class_sizes, side_counts in [
        ((2, 2), (1, 1)),
        ((2, 2, 2), (1, 1, 0)),
        ((3, 2), (1, 0)),
        ((3, 3), (0, 0)),
    ]:
        params, layout, _, _, _ = make_world(class_sizes, side_counts, seed=13, q=13)
        verdict = audit_fsi_query_exact(layout)
        assert verdict.passed, (class_sizes, side_counts)
        assert verdict.answer_tv_distance == 0


def test_fsi_mutant_fails_where_v_can_avoid_side_classes():
    for class_sizes, side_counts in [((2, 2, 2), (1, 1, 0)), ((3, 2), (1, 0))]:
        params, layout, _, _, _ = make_world(class_sizes, side_counts, seed=13, q=13)
        assert audit_fsi_query_exact(layout).passed
        for cls in FSI_MUTANT_USERS:
            verdict = audit_fsi_query_exact(layout, user=cls())
            assert not verdict.passed, (cls.name, class_sizes)
            assert verdict.answer_tv_distance > 0 and verdict.server == cls.name

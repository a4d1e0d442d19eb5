import hashlib
import json
from fractions import Fraction

import pytest

from conftest import make_world
from ppir import audit
from ppir.audit import (
    MIN_TRIALS,
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
from ppir.errors import EnumerationCapError, ParameterError, PpirError, ProtocolViolationError
from ppir.model import InstanceParams, build_layout, random_store, sample_side_info
from ppir.protocol import Answer, Query, usi_answer, usi_query
from ppir.wire import answer_to_json, canonical_bytes, query_from_json, query_to_json


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


def counting(server_cls):
    """server_cls with a count of its answer_for calls."""

    class Counting(server_cls):
        calls = 0

        def answer_for(self, query, store, choice, v=None, side=None):
            self.calls += 1
            return super().answer_for(query, store, choice, v, side)

    return Counting


@pytest.mark.parametrize("server_cls", (UsiServer, *MUTANT_SERVERS))
def test_audits_ask_the_server_for_every_triple_and_trial(server_cls):
    # the per-distinct-input caches sit in the audit, not in front of the
    # server: every (v, S, choice) triple and every trial still reaches it
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)
    server = counting(server_cls)()
    exact = audit_exact(store, server=server)
    assert server.calls == exact_audit_work(layout) == 16
    assert exact.passed == (server_cls is UsiServer), server_cls.name
    server = counting(server_cls)()
    stat = audit_statistical(layout, 1_000, 12, server=server)
    assert server.calls == 1_000
    assert stat.passed == (server_cls is UsiServer), server_cls.name


# sha256 of each verdict document, recorded before the exact audit asked
# for whole choice lists; the honest documents name no parameters, so the
# two (5,5,5) shapes with the same pair count and support share a digest
HONEST_VERDICTS = {
    ((4, 5, 5), (1, 0, 1)): "db1fe354a01e6fae8ab796dd767e3c08e6651aba835584837e2bedab7c9ffd4b",
    ((4, 5, 5), (1, 1, 4)): "745dc5d95cc14f2aecc107298b4d96b40977feb064d067bfc546ebcc9cf6721d",
    ((5, 5, 5), (1, 2, 2)): "3cbffccfe3e380e40c8d23a71c52dc81de34ffad082d5494e4f159bfaf25e4f0",
    ((5, 5, 5), (1, 2, 3)): "3cbffccfe3e380e40c8d23a71c52dc81de34ffad082d5494e4f159bfaf25e4f0",
}
MUTANT_VERDICTS = {  # on (4,2)/(0,1), seed 3
    "class-biased-selection": "356148fb732f0145619d0cf29803c5995618a6441cc3175657ba2b533d1050e1",
    "side-parity-drop": "8c2d973d29481ba0f408c337bfbd67c7839a2ca3c1fe335d3689deff555c0694",
    "class-tag": "ae91a6f2f0b34eba7292c61c477423933b0db2f4b75aa58306047064c0ed7373",
}


def _verdict_sha(verdict):
    return hashlib.sha256(json.dumps(verdict.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("shape", sorted(HONEST_VERDICTS))
def test_exact_verdicts_match_the_recorded_digests(shape):
    params, layout, store, _, _ = make_world(*shape, seed=20)
    assert _verdict_sha(audit_exact(store)) == HONEST_VERDICTS[shape]


def test_mutant_verdicts_match_the_recorded_digests():
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)
    got = {cls.name: _verdict_sha(audit_exact(store, server=cls())) for cls in MUTANT_SERVERS}
    assert got == MUTANT_VERDICTS


def test_honest_batch_builds_each_answer_once(monkeypatch):
    params, layout, store, _, _ = make_world((4, 5, 5), (1, 0, 1), seed=20)
    builds = []
    real = audit.usi_answer
    monkeypatch.setattr(audit, "usi_answer", lambda *a, **kw: builds.append(1) or real(*a, **kw))

    class CountingBatches(UsiServer):
        batches = 0

        def answers_for(self, query, store, choices, v=None, side=None):
            self.batches += 1
            return super().answers_for(query, store, choices, v, side)

    server = CountingBatches()
    verdict = audit_exact(store, server=server)
    pairs = verdict.notes["pairs"]
    support = exact_audit_work(layout) // pairs
    assert support == 300 and pairs == 60
    assert len(builds) == support == verdict.effort["distinct_answers"]
    assert server.batches == pairs
    assert verdict.effort == {"lists_counted": 1, "distinct_answers": 300}
    assert verdict.passed and verdict.to_json() == audit_exact(store, server=ReferenceServer()).to_json()


def _tagged(answer, v):
    return Answer(answer.q, answer.msg_len, answer.payloads, answer.extras + (("v", v),))


class TagInBatchServer(UsiServer):
    """The honest batch, then v tagged into every answer."""

    name = "tag-in-batch"

    def answers_for(self, query, store, choices, v=None, side=None):
        return tuple(_tagged(a, v) for a in super().answers_for(query, store, choices, v, side))


class OneListServer(UsiServer):
    """Tags v like TagInBatchServer, into one list it refills on every call."""

    name = "one-list"

    def __init__(self):
        self.out = []

    def answers_for(self, query, store, choices, v=None, side=None):
        self.out[:] = [_tagged(a, v) for a in super().answers_for(query, store, choices, v, side)]
        return self.out


@pytest.mark.parametrize("server_cls", (TagInBatchServer, OneListServer))
def test_leak_added_to_the_batch_fails(server_cls):
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)
    verdict = audit_exact(store, server=server_cls())
    assert not verdict.passed and verdict.answer_tv_distance == 1
    assert verdict.effort["lists_counted"] == verdict.notes["pairs"]


@pytest.mark.parametrize(
    "resize, size",
    [(lambda a: a[:-1], 3), (lambda a: a + a[:1], 5), (lambda a: [], 0)],
    ids=("short", "long", "empty"),
)
def test_batch_of_the_wrong_length_is_refused(resize, size):
    class WrongLength(UsiServer):
        def answers_for(self, query, store, choices, v=None, side=None):
            return resize(super().answers_for(query, store, choices, v, side))

    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)
    with pytest.raises(ProtocolViolationError, match=f"gave {size} answers for 4 choices") as info:
        audit_exact(store, server=WrongLength())
    assert isinstance(info.value, PpirError)


def test_query_read_back_from_the_wire_is_the_same_key():
    layout = build_layout(InstanceParams((5, 4), (1, 2), q=7), 20)
    for demand in (1, 2):
        query = usi_query(1, sample_side_info(layout, 21), demand=demand)
        back = query_from_json(json.loads(canonical_bytes(query_to_json(query))))
        assert back == query and hash(back) == hash(query)
        assert type(back) is Query and back.demand == demand


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


def test_statistical_audit_needs_two_trials_per_block():
    # with one trial per block the block-conditional estimate is 0 for any
    # server: 16 trials passed every mutant
    params, layout, _, _, _ = make_world((4, 2), (0, 1), seed=0)
    assert MIN_TRIALS == 32
    for trials in (1, 16, 31):
        with pytest.raises(ParameterError, match="at least 32"):
            audit_statistical(layout, trials, 1, server=ClassTagServer())
    assert audit_statistical(layout, 32, 1).passed
    for cls in MUTANT_SERVERS:
        assert not audit_statistical(layout, 32, 1, server=cls()).passed, cls.name


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

import hashlib
import json
import pathlib
import random
import re
import runpy
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    audit_exact,
    audit_fsi_query_exact,
    audit_statistical,
    exact_audit_work,
)
from ppir.errors import EnumerationCapError, ParameterError
from ppir.model import (
    POOL_LIMIT,
    InstanceParams,
    build_layout,
    random_store,
    sample_side_info,
    sample_side_positions,
)
from ppir.protocol import Answer, Query, usi_answer, usi_choice_space, usi_query
from ppir.wire import canonical_bytes, query_from_json, query_to_json


class ReferenceServer(UsiServer):
    """Honest answers from an override, so the audits ask it on every triple and trial."""

    def answer_for(self, query, store, choice, v=None, side=None):
        return usi_answer(query, store, selections=choice)


class LeakyServer(UsiServer):
    """The honest answer from UsiServer.answer_for, then v tagged into the extras."""

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
# sha256 of honest statistical verdicts, recorded while every trial asked the
# server: (class sizes, side counts, q, layout seed, trials, audit seed) ->
# digest.  (8,8,8)/(2,2,2) has 3 * 28**3 (v, S) pairs, so its draws do not
# repeat within a block; the (10,10) shapes repeat theirs
HONEST_STATISTICAL_VERDICTS = {
    ((10, 10), (1, 0), 2, 6, 10_000, 7):
        "c7b3de777f1e6c3e53c16f33295df196749d277703d8185c48e9164aa132bbb3",
    ((10, 10), (8, 0), 13, 11, 4_000, 13):
        "4bcdbf1106f16e2941f0029b8c8277703998d4c29846fdee30e75a4f7e95959f",
    ((8, 8, 8), (2, 2, 2), 2, 21, 2_000, 22):
        "9e74e2c9ea40ac29785e458720abfad5c82a0412ffd75ea3df4a3908d4ef089e",
}
MUTANT_STATISTICAL_VERDICTS = {  # on (4,2)/(0,1), layout seed 3, audit seed 1
    (32, "class-biased-selection"):
        "d8b13662ca194f637ec2727e682e2e325cabcb4c6737c0fffb020458128c7673",
    (32, "side-parity-drop"): "cff80176d3958735ed80442da9208521c26e431d450baf253960dedfdecce504",
    (32, "class-tag"): "273cfadd670599c6e56bfd146eefdb58ed882828d8692187ccd177ac0c82c600",
    (1_000, "class-biased-selection"):
        "2d201b9b70c5358ac5d15cf9e2fed9cac9754d60b962788e0f849da3ebe6317c",
    (1_000, "side-parity-drop"):
        "5f1db63981f58fea1814bb84ad805699b527149a69a0a8967879776071016264",
    (1_000, "class-tag"): "4ca4cde0b5417724d1e864515ffd19e4f02c1f308200118bc2a98a583d4d8ab1",
}
# sha256 of statistical verdicts at 2,000 trials, layout seed 5, audit seed 1,
# recorded while each trial drew its own (v, S): (class sizes, side counts, q,
# demand, server) -> digest.  Class size 25 is above Random.sample's pool
# limit, so (25,3) draws through Random.sample itself.  Draws rarely repeat
# within a block on either shape, and every mutant passes there
DRAW_PATH_VERDICTS = {
    ((25, 3), (2, 1), 31, 1, "honest"):
        "3fe66c7c2c0d903076a0d677b5f6adabd8d54510d16c53015567840b619bc3b2",
    ((25, 3), (2, 1), 31, 1, "class-biased-selection"):
        "378a884341fd72376242d913cad4f4aac8805a527bdfefe9805964c38ef2ba6d",
    ((25, 3), (2, 1), 31, 1, "side-parity-drop"):
        "a15b6e7eb55afc153d97ab2d50be894c7da3523dc4a2f7a98dbe1fad40d31cf1",
    ((25, 3), (2, 1), 31, 1, "class-tag"):
        "245e37e26a63ce5bdb4df30b55e2c32c45d5ee1ab2d8e4cd49e21aad6e5e3b1f",
    ((6, 6), (2, 3), 11, 2, "honest"):
        "6c63ec740a48113f2c87117627276ceb2ed262cacdaeb2b1a70194319d26b54a",
    ((6, 6), (2, 3), 11, 2, "class-biased-selection"):
        "f0728c1ae11a8270ddba4f56531783160336744874f6e80609f63d927e495149",
    ((6, 6), (2, 3), 11, 2, "side-parity-drop"):
        "7a4a8fee4c357b9bacb20e8d164a348ff943916a50ffa0b68664af0ff2eb16bd",
    ((6, 6), (2, 3), 11, 2, "class-tag"):
        "b1eb39ea0d15d41b681c2254c56be11eaefaeb0b12996326297f395c4e7620a1",
}
DRAW_PATH_DISTINCT = {(25, 3): 1930, (6, 6): 1789}  # distinct (v, S) draws of those audits


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


@pytest.mark.parametrize("case", sorted(HONEST_STATISTICAL_VERDICTS))
def test_statistical_verdicts_match_the_recorded_digests(case):
    class_sizes, side_counts, q, layout_seed, trials, seed = case
    layout = build_layout(InstanceParams(class_sizes, side_counts, q=q), layout_seed)
    verdict = audit_statistical(layout, trials, seed)
    assert verdict.passed and _verdict_sha(verdict) == HONEST_STATISTICAL_VERDICTS[case]


def test_mutant_statistical_verdicts_match_the_recorded_digests():
    params, layout, _, _, _ = make_world((4, 2), (0, 1), seed=3)
    assert params.q == 3
    got = {
        (trials, cls.name): _verdict_sha(audit_statistical(layout, trials, 1, server=cls()))
        for trials in (32, 1_000)
        for cls in MUTANT_SERVERS
    }
    assert got == MUTANT_STATISTICAL_VERDICTS


@pytest.mark.parametrize("case", sorted(DRAW_PATH_VERDICTS))
def test_draw_path_verdicts_match_the_recorded_digests(case):
    class_sizes, side_counts, q, demand, name = case
    layout = build_layout(InstanceParams(class_sizes, side_counts, q=q), 5)
    server = {cls.name: cls for cls in (UsiServer, *MUTANT_SERVERS)}[name]()
    verdict = audit_statistical(layout, 2_000, 1, server=server, demand=demand)
    assert _verdict_sha(verdict) == DRAW_PATH_VERDICTS[case]
    assert verdict.effort["distinct_draws"] == DRAW_PATH_DISTINCT[class_sizes]


@st.composite
def side_profile(draw):
    # class sizes on both sides of POOL_LIMIT, with k = 0 and k = mu - 1 among the counts
    sizes = draw(
        st.lists(
            st.one_of(st.sampled_from((2, 3, POOL_LIMIT, POOL_LIMIT + 1, 25)), st.integers(2, 30)),
            min_size=2, max_size=3,
        )
    )
    counts = [draw(st.one_of(st.sampled_from((0, mu - 1)), st.integers(0, mu - 1))) for mu in sizes]
    return sizes, counts


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), profile=side_profile(), n_b=st.integers(1, 60))
@example(seed=0, profile=([10, 10], [1, 0]), n_b=625)
@example(seed=1, profile=([4, 3], [3, 2]), n_b=60)  # pool draws in another order pick the same set
@example(seed=2, profile=([22, 5], [0, 4]), n_b=40)  # a class above the limit that draws nothing
@example(seed=3, profile=([25, 3], [2, 1]), n_b=40)  # Random.sample's own branch: per trial
@example(seed=4, profile=([21, 21], [20, 0]), n_b=10)
def test_block_tally_is_the_per_trial_tally(seed, profile, n_b):
    sizes, counts = profile
    layout = build_layout(InstanceParams(sizes, counts), 0)
    ours, ref = random.Random(seed), random.Random(seed)
    tally, draws = audit._draw_block(layout, ours, n_b)
    want = [(ref.randrange(len(sizes)), sample_side_positions(layout, ref)) for _ in range(n_b)]
    assert list(tally.items()) == list(Counter(want).items())
    assert list(draws) == want
    assert ours.getstate() == ref.getstate()


def test_honest_batch_builds_each_answer_once(monkeypatch):
    params, layout, store, _, _ = make_world((4, 5, 5), (1, 0, 1), seed=20)
    builds = []
    real = audit.usi_answer
    monkeypatch.setattr(audit, "usi_answer", lambda *a, **kw: builds.append(1) or real(*a, **kw))
    verdict = audit_exact(store)
    pairs = verdict.notes["pairs"]
    support = exact_audit_work(layout) // pairs
    assert support == 300 and pairs == 60
    assert len(builds) == support == verdict.effort["distinct_answers"]
    assert verdict.effort == {"lists_counted": 1, "distinct_answers": 300}
    assert verdict.passed and verdict.to_json() == audit_exact(store, server=ReferenceServer()).to_json()


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
    choice = tuple(space[0] for space in usi_choice_space(params.class_sizes, params.side_counts))
    reused = server.answer_for(query, second, choice)
    assert reused == usi_answer(query, second, selections=choice)
    assert reused != usi_answer(query, first, selections=choice)


def test_leak_added_after_memo_still_fails():
    # a subclass that builds on the honest answer_for and then leaks v is an
    # override, so the audit asks it with v and S and must catch it
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)
    verdict = audit_exact(store, server=LeakyServer())
    assert not verdict.passed and verdict.answer_tv_distance == 1


def test_answer_for_set_on_the_instance_is_asked_with_v_and_s():
    # a function set on an honest instance is not the shipped answer_for,
    # though the class still has it: both audits must ask it with v and S
    params, layout, store, _, _ = make_world((4, 2), (0, 1), seed=3)

    def leak(query, store, choice, v=None, side=None):
        answer = usi_answer(query, store, selections=choice)
        return Answer(answer.q, answer.msg_len, answer.payloads, answer.extras + (("v", v),))

    server = UsiServer()
    server.answer_for = leak
    exact = audit_exact(store, server=server)
    assert not exact.passed and exact.answer_tv_distance == 1
    assert not audit_statistical(layout, 1_000, 1, server=server).passed


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


def test_statistical_audit_asks_the_honest_server_once_per_distinct_draw(monkeypatch):
    # (10,10)/(1,0) has 2 * 10 (v, S) pairs, so a block of 625 trials repeats them
    layout = build_layout(InstanceParams((10, 10), (1, 0), q=2), 6)
    asks = []
    real = UsiServer.answer_for
    # patched on the class itself, so the server still counts as honest
    monkeypatch.setattr(
        UsiServer, "answer_for", lambda self, *a, **kw: asks.append(1) or real(self, *a, **kw)
    )
    verdict = audit_statistical(layout, 10_000, 7)
    effort = verdict.effort
    assert effort["trials"] == 10_000 and effort["server_asks"] == len(asks) == 16
    assert effort["distinct_draws"] <= 16 * 20
    monkeypatch.undo()
    reference = audit_statistical(layout, 10_000, 7, server=ReferenceServer())
    assert reference.effort == {**effort, "server_asks": 10_000}
    assert verdict.passed and verdict.to_json() == reference.to_json()


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


@pytest.mark.parametrize(
    "cap, audited, skipped",
    [(20_000, 21, 0), (12, 15, 6)],  # the six (3, 3) shapes need 18 enumerations
)
def test_privacy_sweep_ends_with_a_summary_line(monkeypatch, capsys, cap, audited, skipped):
    script = pathlib.Path(__file__).parents[1] / "scripts" / "privacy_sweep.py"
    main = runpy.run_path(str(script))["main"]
    argv = ["privacy_sweep.py", "--max-class-size", "3", "--cap", str(cap)]
    monkeypatch.setattr(sys, "argv", argv)
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21 + 3 + 1
    assert sum(line.endswith(": skipped (work 18)") for line in lines) == skipped
    assert sum(line.startswith("mutant ") and ": caught (" in line for line in lines) == 3
    assert re.fullmatch(
        rf"summary: {audited} audited, {skipped} skipped, 3 mutants caught, audit \d+\.\d\ds",
        lines[-1],
    )


def test_privacy_sweep_exits_141_quietly_on_a_closed_pipe():
    from conftest import run_script_into_closed_pipe

    proc = run_script_into_closed_pipe("privacy_sweep.py", "--max-class-size", "2")
    assert (proc.returncode, proc.stderr) == (141, b"")

"""Executable privacy verification.

The scheme's privacy claim is distributional: the joint law of the query
and answer must carry no information about the desired class v or the
side-information index set S.  For enumerable instances, audit_exact checks
this exactly: per (v, S) pair it verifies the queries are byte-identical
and reconstructs the full answer distribution by enumerating the server's
randomness, then reports the maximum pairwise total-variation distance
(which must be exactly zero).  For larger instances, audit_statistical
samples the whole experiment and computes a plug-in mutual-information
estimate between (v, S) and a bucketed digest of the wire bytes.

Both audits condition on one fixed message realization.  The formal
constraint includes the stored messages inside the mutual information, but
the query is drawn before seeing them and the answer is a deterministic
function of (query, messages), so independence given the messages is
equivalent to the unconditional statement: I(V,S; Q,A,W) =
I(V,S; W) + I(V,S; Q,A | W) = 0 + I(V,S; Q,A | W).

The audit interface deliberately hands the server the true (v, side) so
that leaky server implementations are expressible; three shipped mutants
(class-biased selection, side-dependent parity row count, class tag in the
answer) demonstrate the audit fails them, making the audit itself testable.

The exact audit pays once per distinct answer list, not once per
enumerated triple.  It asks the server once per (v, S) pair, through
answers_for, for the tuple of answers over all of the server's choices,
and counts the answers' bytes unless the server returned the very tuple
counted last.  The honest UsiServer reads neither v nor S, so it memoizes
that tuple per store and query, and the honest audit counts one list.  A
class that overrides answer_for (each mutant does) is asked per choice,
with v and S, and returns a fresh tuple on every pair, which is counted;
so is a list, which a server can refill in place.  Distributions are
still counted over the canonical bytes, so verdicts are unchanged.
audit_statistical asks answer_for once per trial; under the list memo the
honest server keeps one answer per (query, choice).  Both audits
serialize each answer object once, keyed by its id with a weak reference
beside the bytes, so a reused id never returns another answer's bytes.
audit_exact keeps one wire blob and one choice tuple per distinct query
value (an honest audit has one), and query invariance means one distinct
blob.  audit_statistical serializes each distinct query once and digests
each distinct (query bytes, answer bytes) pair once; equal bytes give the
same digest, so the estimate is unchanged.  The mutants build a fresh
answer per call, which the identity-keyed bytes never match, so every
leak they add is serialized and counted.

audit_fsi_query_exact checks the positional (fsi) scheme's query: it
enumerates fsi_query's own random choices (fsi_choice_space) through the
shipped fsi_query; the FsiPinAllUser mutant, which pins every side class
when v holds none, shows it fails a known_count leak.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EnumerationCapError, ParameterError, ProtocolViolationError
from .model import (
    DatabaseLayout,
    MessageStore,
    as_rng,
    enumerate_side_info_sets,
    positional_side_info,
    random_store,
    sample_side_info,
)
from .protocol import (
    Query,
    class_plan,
    fsi_choice_space,
    fsi_query,
    uncoded_choice_space,
    usi_answer,
    usi_query,
)
from .wire import answer_to_json, canonical_bytes, query_to_json

BUCKETS = 64  # audit_statistical's digest buckets
BLOCKS = 16  # audit_statistical's blocks, each one store and one server draw
MIN_TRIALS = 2 * BLOCKS  # audit_statistical's least trials: two per block


class UsiServer:
    """Honest server: answers from (query, store, randomness) alone.

    answer_for builds each (query, choice) answer once per store and returns
    the same Answer object on every repeat; answers_for does the same for a
    query's whole choice tuple.  Handing either another store object starts
    fresh memos.
    """

    name = "honest"
    _memo_store = None
    _memo = None
    _lists = None

    def choice_space(self, query: Query, layout: DatabaseLayout):
        spaces = []
        for mu, k in zip(layout.params.class_sizes, query.side_counts):
            mode, _ = class_plan(mu, k, query.demand)
            if mode == "uncoded":
                spaces.append(uncoded_choice_space(mu, k, query.demand))
            else:
                spaces.append([None])
        return spaces

    def answer_for(self, query, store, choice, v=None, side=None):
        if store is not self._memo_store:
            self._memo_store, self._memo, self._lists = store, {}, {}
        key = (query, choice)
        answer = self._memo.get(key)
        if answer is None:
            answer = self._memo[key] = usi_answer(query, store, selections=choice)
        return answer

    def answers_for(self, query, store, choices, v=None, side=None) -> tuple:
        """answer_for(query, store, choice, v, side) for each choice, as a tuple.

        The honest answer_for reads neither v nor S, so while a class keeps
        it, the tuple is memoized per store and query and returned again for
        the same `choices` tuple (the memo holds it, so identity is sound).
        A class that overrides answer_for is asked per choice, with v and S,
        on every call: whatever it adds to the honest answer reaches the
        audit.
        """
        if type(self).answer_for is not UsiServer.answer_for:
            return tuple(self.answer_for(query, store, choice, v, side) for choice in choices)
        if store is not self._memo_store:
            self._memo_store, self._memo, self._lists = store, {}, {}
        hit = self._lists.get(query)
        if hit is not None and hit[0] is choices and type(choices) is tuple:
            return hit[1]
        answers = tuple(self.answer_for(query, store, choice) for choice in choices)
        self._lists[query] = (choices, answers)
        return answers


class ClassBiasedServer(UsiServer):
    """Mutant: pins the desired class's uncoded selection instead of sampling."""

    name = "class-biased-selection"

    def answer_for(self, query, store, choice, v=None, side=None):
        layout = store.layout
        fixed = list(choice)
        if v is not None:
            mu, k = layout.params.class_sizes[v], query.side_counts[v]
            mode, rows = class_plan(mu, k, query.demand)
            if mode == "uncoded":
                fixed[v] = tuple(range(rows))
        return usi_answer(query, store, selections=tuple(fixed))


class SideParityDropServer(UsiServer):
    """Mutant: drops a parity row for half the side sets.

    The drop condition is the parity of the held messages' within-class
    positions, which always splits a nontrivial side family (flip one held
    position and the parity flips), so the leak is present whenever there
    is anything to leak.
    """

    name = "side-parity-drop"

    def answer_for(self, query, store, choice, v=None, side=None):
        answer = usi_answer(query, store, selections=choice)
        if side is None or not side.label_set:
            return answer
        layout = store.layout
        if sum(layout.position_of(lab) for lab in side.label_set) % 2:
            return answer
        payloads = list(answer.payloads)
        for i, p in enumerate(payloads):
            if p.mode == "parity" and p.symbols:
                payloads[i] = p._replace(symbols=p.symbols[:-1])
                break
        return type(answer)(
            q=answer.q, msg_len=answer.msg_len, payloads=tuple(payloads),
            extras=answer.extras,
        )


class ClassTagServer(UsiServer):
    """Mutant: appends the desired class to the answer metadata."""

    name = "class-tag"

    def answer_for(self, query, store, choice, v=None, side=None):
        answer = usi_answer(query, store, selections=choice)
        tag = 0 if v is None else v % store.layout.params.q
        return type(answer)(
            q=answer.q, msg_len=answer.msg_len, payloads=answer.payloads,
            extras=answer.extras + (("class-hint", tag),),
        )


MUTANT_SERVERS = (ClassBiasedServer, SideParityDropServer, ClassTagServer)


def _answer_serializer():
    """answer -> canonical wire bytes, serializing each answer object once.

    Entries are keyed by id(answer) and hold a weak reference beside the
    bytes; a hit counts only while that reference resolves to the same
    object, so a reused id never returns another answer's bytes and no
    answer is kept alive.
    """
    seen = {}

    def answer_bytes(answer):
        hit = seen.get(id(answer))
        if hit is not None and hit[0]() is answer:
            return hit[1]
        blob = canonical_bytes(answer_to_json(answer))
        seen[id(answer)] = (weakref.ref(answer), blob)
        return blob

    return answer_bytes


@dataclass(frozen=True)
class AuditVerdict:
    mode: str  # "exact" | "statistical"
    verdict: str  # "pass" | "fail"
    query_invariant: bool
    answer_tv_distance: Fraction | None = None
    tv_table: tuple = ()
    mi_estimate: float | None = None
    mi_threshold: float | None = None
    trials: int = 0
    buckets: int = 0
    server: str = "honest"
    notes: dict = field(default_factory=dict)
    # the exact audit's answer lists counted and distinct answers, for
    # stderr; to_json() leaves them out
    effort: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        doc = {
            "mode": self.mode,
            "verdict": self.verdict,
            "query_invariant": self.query_invariant,
            "server": self.server,
        }
        if self.mode == "exact":
            tv = self.answer_tv_distance
            doc["answer_tv_distance"] = {"num": tv.numerator, "den": tv.denominator}
            doc["tv_table"] = [
                {
                    "first": list(a),
                    "second": list(b),
                    "tv": {"num": t.numerator, "den": t.denominator},
                }
                for a, b, t in self.tv_table
            ]
        else:
            doc["mi_estimate"] = self.mi_estimate
            doc["mi_threshold"] = self.mi_threshold
            doc["trials"] = self.trials
            doc["buckets"] = self.buckets
        doc.update(self.notes)
        return doc


def exact_audit_work(layout: DatabaseLayout, demand: int = 1) -> int:
    """|side family| * num_classes * server randomness support."""
    params = layout.params
    support = 1
    for mu, k in zip(params.class_sizes, params.side_counts):
        mode, rows = class_plan(mu, k, demand)
        if mode == "uncoded":
            support *= math.comb(mu, rows)
    return params.side_family_size() * params.num_classes * support


def audit_exact(
    store: MessageStore,
    server: UsiServer | None = None,
    cap: int = 50_000,
    demand: int = 1,
) -> AuditVerdict:
    """Enumerate every (v, S) pair and the server's randomness exactly."""
    server = server or UsiServer()
    layout = store.layout
    params = layout.params
    work = exact_audit_work(layout, demand)
    if work > cap:
        raise EnumerationCapError(
            f"exact audit needs {work} enumerations (cap {cap}); "
            "fall back to audit_statistical"
        )
    sides = enumerate_side_info_sets(layout, cap=cap)
    answer_bytes = _answer_serializer()
    answers_for = server.answers_for
    queries = {}  # distinct query -> (its wire bytes, the server's choice tuple)
    distributions = {}
    last = None  # the answer tuple counted last, held so that its id is not reused
    counted = 0
    distinct = set()
    for v in range(params.num_classes):
        for s_idx, side in enumerate(sides):
            query = usi_query(v, side, demand=demand)
            seen = queries.get(query)
            if seen is None:
                seen = queries[query] = (
                    canonical_bytes(query_to_json(query)),
                    tuple(itertools.product(*server.choice_space(query, layout))),
                )
            choices = seen[1]
            answers = answers_for(query, store, choices, v, side)
            if len(answers) != len(choices):
                raise ProtocolViolationError(
                    f"server {server.name!r} gave {len(answers)} answers "
                    f"for {len(choices)} choices"
                )
            # a tuple is immutable, so the one counted last needs no recount;
            # a list, or any other tuple, is counted afresh
            if answers is not last or type(answers) is not tuple:
                counts = {}
                for answer in answers:
                    blob = answer_bytes(answer)
                    counts[blob] = counts.get(blob, 0) + 1
                group = distributions.setdefault(tuple(sorted(counts.items())), [])
                last = answers
                counted += 1
                distinct.update(counts)
            group.append((v, s_idx, counts, len(choices)))
    query_invariant = len({blob for blob, _ in queries.values()}) == 1

    # pairs with identical distributions have distance zero, so the table
    # lists one entry per pair of distinct distributions; `groups` records
    # which (v, side-index) pairs share a distribution
    reps = list(distributions.values())
    max_tv = Fraction(0)
    table = []
    for (group_a, group_b) in itertools.combinations(reps, 2):
        va, sa, counts_a, total_a = group_a[0]
        vb, sb, counts_b, total_b = group_b[0]
        keys = set(counts_a) | set(counts_b)
        diff = sum(
            abs(counts_a.get(x, 0) * total_b - counts_b.get(x, 0) * total_a)
            for x in keys
        )
        tv = Fraction(diff, 2 * total_a * total_b)
        table.append(((va, sa), (vb, sb), tv))
        max_tv = max(max_tv, tv)
    passed = query_invariant and max_tv == 0
    return AuditVerdict(
        mode="exact",
        verdict="pass" if passed else "fail",
        query_invariant=query_invariant,
        answer_tv_distance=max_tv,
        tv_table=tuple(table),
        server=server.name,
        notes={
            "pairs": params.num_classes * len(sides),
            "work": work,
            "groups": [[(v, s) for v, s, _, _ in group] for group in reps],
        },
        effort={"lists_counted": counted, "distinct_answers": len(distinct)},
    )


def _plugin_mi_qary(counts, q: int) -> float:
    """Plug-in mutual information of a joint histogram, in q-ary units."""
    n = sum(counts.values())
    margin_x = {}
    margin_y = {}
    for (x, y), c in counts.items():
        margin_x[x] = margin_x.get(x, 0) + c
        margin_y[y] = margin_y.get(y, 0) + c
    mi = 0.0
    for (x, y), c in counts.items():
        mi += (c / n) * math.log(c * n / (margin_x[x] * margin_y[y]))
    return mi / math.log(q)


def audit_statistical(
    layout: DatabaseLayout,
    trials: int,
    seed,
    server: UsiServer | None = None,
    demand: int = 1,
) -> AuditVerdict:
    """Sampled audit for instances too large to enumerate.

    Trials are grouped into BLOCKS blocks; each block draws one store and one
    server randomness realization from the model's priors, then varies
    (v, S) across its trials.  This pairing is what gives the estimator
    power: for an honest server the digest of the wire bytes is constant
    inside a block (the answer reads nothing but query, store and its own
    randomness), so the plug-in mutual information between (v, S) and the
    digest is exactly zero, while a server that leaks even one symbol of v
    or S shifts the digest within blocks and contributes roughly the
    leaked entropy.  Without the pairing, fresh store randomness hashed
    into the digest would mask any leak.  The digest is taken mod BUCKETS.
    A block of one trial has zero mutual information for any server, so
    fewer than MIN_TRIALS = 2 * BLOCKS trials is a ParameterError.

    The estimate is the block-conditional plug-in mutual information in
    q-ary units; the pass threshold is twice its first-order bias bound,
    sum_b w_b (Kx_b - 1)(Ky_b - 1) / (N_b ln q), floored at one
    pseudo-count 1/(N ln q).
    """
    if trials < MIN_TRIALS:
        raise ParameterError(f"trials must be at least {MIN_TRIALS}, got {trials}")
    server = server or UsiServer()
    params = layout.params
    rng = as_rng(seed)
    sizes = [trials // BLOCKS + (1 if b < trials % BLOCKS else 0) for b in range(BLOCKS)]
    answer_bytes = _answer_serializer()
    query_blobs = {}  # each distinct query serialized once
    buckets = {}  # each distinct (query bytes, answer bytes) pair digested once
    mi_sum = 0.0
    bias_sum = 0.0
    kx_max = ky_max = 0
    for n_b in sizes:
        store = random_store(layout, rng)
        probe = usi_query(0, sample_side_info(layout, rng), demand=demand)
        spaces = server.choice_space(probe, layout)
        choice = tuple(space[rng.randrange(len(space))] for space in spaces)
        counts = {}
        for _ in range(n_b):
            v = rng.randrange(params.num_classes)
            side = sample_side_info(layout, rng)
            query = usi_query(v, side, demand=demand)
            answer = server.answer_for(query, store, choice, v, side)
            qb = query_blobs.get(query)
            if qb is None:
                qb = query_blobs[query] = canonical_bytes(query_to_json(query))
            ab = answer_bytes(answer)
            y = buckets.get((qb, ab))
            if y is None:
                digest = hashlib.blake2b(qb + ab, digest_size=8).digest()
                y = buckets[(qb, ab)] = int.from_bytes(digest, "big") % BUCKETS
            x = (v, side.label_set)
            counts[(x, y)] = counts.get((x, y), 0) + 1
        w = n_b / trials
        mi_sum += w * _plugin_mi_qary(counts, params.q)
        kx = len({x for x, _ in counts})
        ky = len({y for _, y in counts})
        kx_max = max(kx_max, kx)
        ky_max = max(ky_max, ky)
        bias_sum += w * (kx - 1) * (ky - 1) / (n_b * math.log(params.q))
    threshold = max(bias_sum, 1 / (trials * math.log(params.q)))
    query_invariant = len(set(query_blobs.values())) == 1
    passed = query_invariant and mi_sum < threshold
    return AuditVerdict(
        mode="statistical",
        verdict="pass" if passed else "fail",
        query_invariant=query_invariant,
        mi_estimate=mi_sum,
        mi_threshold=threshold,
        trials=trials,
        buckets=BUCKETS,
        server=server.name,
        notes={"alphabet_x": kx_max, "alphabet_y": ky_max, "blocks": BLOCKS},
    )


class FsiUser:
    """Honest fsi user: the shipped fsi_query with its choices fixed."""

    name = "fsi-user"

    def query_for(self, v, side, class_sizes, choices):
        return fsi_query(v, side, class_sizes, choices=choices)


class FsiPinAllUser(FsiUser):
    """Mutant: pins every side class when v holds none.

    The dropped class is pinned to its smallest held position, so
    known_count is eta when v holds no side information and eta - 1 when it
    does, and the wire query reveals which case holds.
    """

    name = "fsi-pin-all"

    def query_for(self, v, side, class_sizes, choices):
        query = super().query_for(v, side, class_sizes, choices)
        drop = choices[0]
        if drop is None:
            return query
        picks = list(query.picks)
        picks[drop] = min(p for i, p in side.label_set if i == drop)
        flags = tuple(f or i == drop for i, f in enumerate(query.known_flags))
        return query._replace(picks=tuple(picks), known_count=sum(flags), known_flags=flags)


FSI_MUTANT_USERS = (FsiPinAllUser,)


def audit_fsi_query_exact(
    layout: DatabaseLayout, cap: int = 50_000, user: FsiUser | None = None
) -> AuditVerdict:
    """V-invariance of the positional-scheme query distribution.

    The positional query necessarily depends on the held positions, so the
    check marginalizes over the side-information prior and the query's
    random choices: for each v, enumerate (S, drop, picks) with exact
    weights from fsi_choice_space, build each query through user.query_for
    (the shipped fsi_query for the honest user) and compare the resulting
    wire-query distributions across v.
    """
    user = user or FsiUser()
    params = layout.params
    sides = [positional_side_info(layout, s) for s in enumerate_side_info_sets(layout, cap=cap)]
    side_weight = Fraction(1, len(sides))
    dists = []
    for v in range(params.num_classes):
        dist = {}
        for side in sides:
            space = fsi_choice_space(v, side, params.class_sizes)
            for drop, _, options in space:
                w = side_weight / len(space) / math.prod(len(o) for o in options)
                for picks in itertools.product(*options):
                    query = user.query_for(v, side, params.class_sizes, (drop, picks))
                    blob = canonical_bytes(query_to_json(query))
                    dist[blob] = dist.get(blob, 0) + w
        dists.append(dist)
    max_tv = Fraction(0)
    for a, b in itertools.combinations(dists, 2):
        tv = sum(abs(a.get(x, 0) - b.get(x, 0)) for x in set(a) | set(b)) / 2
        max_tv = max(max_tv, tv)
    passed = max_tv == 0
    return AuditVerdict(
        mode="exact",
        verdict="pass" if passed else "fail",
        query_invariant=passed,
        answer_tv_distance=max_tv,
        server=user.name,
        notes={"scope": "query-marginal-v-invariance"},
    )

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

Both audits ask the server through answer_for(query, store, choice, v,
side), and one predicate, _reads_query_alone, decides how often.  While
the server's bound answer_for is the shipped UsiServer.answer_for, which
reads neither v nor S, a (v, S) pair's answers depend on its query alone:
audit_exact builds one answer distribution per distinct query (a Counter of
canonical answer bytes over usi_choice_space; an honest audit has one
query) and audit_statistical one digest bucket per distinct query per
block, counted for every trial that drew a pair with that query.  Any
other answer_for (a subclass override, as in each mutant, or a function set
on the instance) is asked once per (v, S, choice) triple and once per
statistical trial, with v and S, so whatever it adds to the answer is
counted.  Distributions are counted over canonical bytes either way, so
the verdicts are those of the per-triple and per-trial loops.  Each
distinct query is serialized once; query invariance means one distinct
blob.

audit_statistical draws each block's (v, S) pairs in one pass
(_draw_block): Counter tallies the raw draws in C, and each distinct raw
draw becomes its (v, sorted positions) once through model._picks, the pool
rule sample_positions uses.  The random stream and the tally, in order, are
those of per-trial draws, so the verdicts are too.  A layout with a drawing
class above model.POOL_LIMIT goes through Random.sample and draws per trial.

audit_fsi_query_exact checks the positional (fsi) scheme's query: it
enumerates fsi_query's own random choices (fsi_choice_space) through the
shipped fsi_query; the FsiPinAllUser mutant, which pins every side class
when v holds none, shows it fails a known_count leak.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EnumerationCapError, ParameterError
from .model import (
    POOL_LIMIT,
    DatabaseLayout,
    MessageStore,
    _below,
    _picks,
    as_rng,
    enumerate_side_info_sets,
    positional_side_info,
    random_store,
    sample_side_info,
    sample_side_positions,
    side_from_positions,
)
from .protocol import (
    class_plan,
    fsi_choice_space,
    fsi_query,
    usi_answer,
    usi_choice_space,
    usi_query,
)
from .wire import answer_to_json, canonical_bytes, query_to_json

BUCKETS = 64  # audit_statistical's digest buckets
BLOCKS = 16  # audit_statistical's blocks, each one store and one server draw
MIN_TRIALS = 2 * BLOCKS  # audit_statistical's least trials: two per block


class UsiServer:
    """Honest server: answers from (query, store, randomness) alone.

    answer_for is handed the true (v, side) so that leaky servers are
    expressible; the shipped one reads neither.
    """

    name = "honest"

    def answer_for(self, query, store, choice, v=None, side=None):
        return usi_answer(query, store, selections=choice)


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


def _reads_query_alone(server) -> bool:
    """True while server's bound answer_for is the shipped UsiServer.answer_for.

    That answer_for reads neither v nor S, so a (v, S) pair's answers depend
    on its query alone.  A subclass override or a function set on the
    instance makes this false; a patch on UsiServer itself does not.
    """
    return getattr(server.answer_for, "__func__", None) is UsiServer.answer_for


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
    # what the audit did, for stderr: the exact audit's answer lists counted
    # and distinct answers, the statistical audit's trials, distinct (v, S)
    # draws and server asks; to_json() leaves them out
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
    honest = _reads_query_alone(server)
    queries = {}  # distinct query -> (its wire bytes, the server's choice tuple)
    # sorted (answer bytes, count) items -> (counts, choice count, [(v, side index)])
    distributions = {}
    by_query = {}  # honest only: distinct query -> its entry of distributions
    counted = 0
    distinct = set()
    for v in range(params.num_classes):
        for s_idx, side in enumerate(sides):
            query = usi_query(v, side, demand=demand)
            seen = queries.get(query)
            if seen is None:
                spaces = usi_choice_space(params.class_sizes, query.side_counts, demand)
                seen = queries[query] = (
                    canonical_bytes(query_to_json(query)),
                    tuple(itertools.product(*spaces)),
                )
            entry = by_query.get(query)
            if entry is None:
                choices = seen[1]
                told = () if honest else (v, side)  # the honest answer_for reads neither
                counts = Counter(
                    canonical_bytes(answer_to_json(server.answer_for(query, store, c, *told)))
                    for c in choices
                )
                entry = distributions.setdefault(
                    tuple(sorted(counts.items())), (counts, len(choices), [])
                )
                counted += 1
                distinct.update(counts)
                if honest:
                    by_query[query] = entry
            entry[2].append((v, s_idx))
    query_invariant = len({blob for blob, _ in queries.values()}) == 1

    # pairs with identical distributions have distance zero, so the table
    # lists one entry per pair of distinct distributions; `groups` records
    # which (v, side-index) pairs share a distribution
    reps = list(distributions.values())
    max_tv = Fraction(0)
    table = []
    for (counts_a, total_a, pairs_a), (counts_b, total_b, pairs_b) in (
        itertools.combinations(reps, 2)
    ):
        keys = set(counts_a) | set(counts_b)
        diff = sum(abs(counts_a[x] * total_b - counts_b[x] * total_a) for x in keys)
        tv = Fraction(diff, 2 * total_a * total_b)
        table.append((pairs_a[0], pairs_b[0], tv))
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
            "groups": [pairs for _, _, pairs in reps],
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


def _draw_block(layout: DatabaseLayout, rng, n_b: int):
    """n_b draws of (rng.randrange(num_classes), sample_side_positions(layout, rng)).

    Returns the trials per distinct draw, in first-seen order, and an
    iterator over the draws in draw order; rng ends where n_b per-trial
    calls leave it.  While no drawing class exceeds POOL_LIMIT, each draw is
    one _below with a fixed bound (v below num_classes, then each class's
    pool draws below mu, mu - 1, ..., mu - k + 1), so map, zip and Counter
    make and tally the raw tuples in C.  Raw tuples that pick the same
    positions merge in first-seen order.  Random.sample's own branch draws a
    varying number of times, so a layout that takes it draws per trial.
    """
    params = layout.params
    shape = tuple(zip(params.class_sizes, params.side_counts))
    if any(k and mu > POOL_LIMIT for mu, k in shape):
        draws = [
            (rng.randrange(params.num_classes), sample_side_positions(layout, rng))
            for _ in range(n_b)
        ]
        return Counter(draws), iter(draws)
    bounds = (params.num_classes,) + tuple(
        n for mu, k in shape for n in range(mu, mu - k, -1)
    )
    ends = tuple(itertools.accumulate(params.side_counts, initial=1))
    cuts = tuple(zip(params.class_sizes, ends, ends[1:]))  # each class's slice of a raw tuple
    raw_draws = map(_below, itertools.repeat(rng.getrandbits), bounds * n_b)
    raw = list(zip(*[raw_draws] * len(bounds)))
    key_of = {}  # distinct raw tuple -> its (v, S positions) draw
    tally = {}
    for r, n in Counter(raw).items():
        x = key_of[r] = (r[0], tuple(_picks(mu, r[a:b]) for mu, a, b in cuts))
        tally[x] = tally.get(x, 0) + n
    return tally, map(key_of.__getitem__, raw)


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

    Each block draws all its (v, S) pairs before asking the server, in
    one pass that tallies the raw draws and canonicalizes each distinct one
    once (_draw_block; a class above POOL_LIMIT that draws makes the layout
    draw per trial).  While _reads_query_alone holds, each distinct query of
    the block is asked once and each distinct draw's (v, S, digest) cell
    counts every trial that drew it; any other answer_for is asked on every
    trial, in draw order, with v and S.  Either way the histogram, its
    summation order, and so the verdict, are the ones a per-trial loop
    gives.

    The audit has power only where draws repeat within a block: a leak
    shows as the digest varying among trials that drew the same (v, S).
    Where nearly every draw of a block is distinct, the estimate and the
    threshold are both near log_q of the block size, and a leaking server
    can pass: at 10,000 trials (layout seed 5, audit seed 1) every mutant
    passes on (8,8,8)/(2,2,2) at q=2, class-tag with MI 0.914 against a
    threshold of 1.432 and alphabet_x 624 of 625 trials per block, and on
    (10,10)/(3,3) at q=5.

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
    query_blobs = {}  # each distinct query serialized once
    honest = _reads_query_alone(server)
    distinct = asks = 0
    mi_sum = 0.0
    bias_sum = 0.0
    kx_max = ky_max = 0
    for n_b in sizes:
        store = random_store(layout, rng)
        probe = usi_query(0, sample_side_info(layout, rng), demand=demand)
        spaces = usi_choice_space(params.class_sizes, probe.side_counts, demand)
        choice = tuple(space[rng.randrange(len(space))] for space in spaces)
        tally, draws = _draw_block(layout, rng, n_b)
        distinct += len(tally)
        asked = tally.items() if honest else zip(draws, itertools.repeat(1))
        block = {}  # honest only: distinct query -> its digest bucket in this block
        counts = {}  # ((v, S positions), digest bucket) -> trials
        for x, n in asked:
            v, positions = x
            side = side_from_positions(layout, positions)
            query = usi_query(v, side, demand=demand)
            qb = query_blobs.get(query)
            if qb is None:
                qb = query_blobs[query] = canonical_bytes(query_to_json(query))
            y = block.get(query)
            if y is None:
                asks += 1
                told = () if honest else (v, side)  # the honest answer_for reads neither
                ab = canonical_bytes(answer_to_json(server.answer_for(query, store, choice, *told)))
                digest = hashlib.blake2b(qb + ab, digest_size=8).digest()
                y = int.from_bytes(digest, "big") % BUCKETS
                if honest:
                    block[query] = y
            counts[(x, y)] = counts.get((x, y), 0) + n
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
        effort={"trials": trials, "distinct_draws": distinct, "server_asks": asks},
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

"""Retrieval protocols: query, answer and decode for the three variants.

Unidentified side information (scheme "usi"): the user reveals only the
per-class side counts {k_i}.  The server answers class by class: when
k_i + 1 < mu_i - k_i it sends k_i + 1 uniformly random messages of the class
uncoded (with their label pairs); otherwise it encodes the whole class with
a systematic [2*mu_i - k_i, mu_i] MDS code and sends the mu_i - k_i parity
rows (`rates.class_plan`, which this module shares with the calculators).
Either way the user ends up with at least one new message per class,
and the query and answer never depend on the desired class or on which
particular messages the user holds, only on the public counts.

Parity payload headers carry the class's identifier list in systematic
order plus the code length.  The user is oblivious of class sizes and
positions, so decoding needs this metadata; handing it over is harmless
because privacy constrains the server's view, not the user's.

The multi-message scheme ("musi", demand lambda >= 1) generalizes the
branch rule with k_i + lambda in place of k_i + 1 and requires
mu_i >= k_i + lambda.  The fully-identifiable scheme ("fsi") instead picks
one position per class (side-information positions where known, uniform
otherwise), and the server responds with the parity rows of a single
[2*Gamma - eta + 1, Gamma] code across the picked messages.

Servers and users are pure functions of their inputs and seeds; a session
is query -> answer -> decode, and independent sessions share no state.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DecodeMetadataError,
    InsufficientInformationError,
    ParameterError,
    ProtocolViolationError,
    UnsupportedParametersError,
)
from .fields import next_prime
from .mds import make_mds
from .model import MessageStore, SideInfo, as_rng, sample_positions
from .rates import check_instance, class_plan, expected_download_rows  # noqa: F401 (re-exported)


class Query(
    namedtuple(
        "Query",
        ("scheme", "side_counts", "demand", "picks", "known_count", "known_flags"),
        defaults=(None, 1, None, None, None),
    )
):
    """What the user sends: the count profile (usi/musi) or the picks (fsi).

    scheme is "usi", "musi" or "fsi".  usi/musi fill side_counts and demand;
    fsi fills picks (one position per class) and known_count (how many picks
    the user can name).  known_flags is fsi's user-local decode hint and is
    never serialized: it would reveal which picks are side information to
    anyone reading the wire.

    The per-round value types of this module are tuples, so they hash,
    compare and construct in C; each also equals a plain tuple of the same
    items, and no code here compares them across kinds.
    """

    __slots__ = ()


class ClassPayload(
    namedtuple(
        "ClassPayload",
        ("class_id", "mode", "labels", "identifier_order", "code_length", "symbols"),
    )
):
    """One class of a usi/musi answer.

    mode "uncoded" carries label pairs and their rows; mode "parity" carries
    the class's identifiers in systematic order, the code length and the
    parity rows.  A tuple, as Query explains.
    """

    __slots__ = ()


class JointPayload(namedtuple("JointPayload", ("picks", "known_count", "code_length", "symbols"))):
    """Cross-class parity block used by the fsi scheme.  A tuple, as Query explains."""

    __slots__ = ()


@dataclass(frozen=True)
class Answer:
    """The server's reply.

    Stays a dataclass: the audit serializer keys answers by id beside a weak
    reference, and tuples cannot be weakly referenced.
    """

    q: int
    msg_len: int
    payloads: tuple
    extras: tuple = ()  # empty for honest servers; audited byte-for-byte


class RetrievalResult(namedtuple("RetrievalResult", ("decoded", "new_from_class"))):
    """What one decode recovered.

    decoded holds ((class, identifier-or-position), symbols) per new
    message; new_from_class counts them per class.  A tuple, as Query
    explains.
    """

    __slots__ = ()

    @property
    def total_new(self) -> int:
        return sum(self.new_from_class)


def longest_code_length(class_sizes, side_counts, demand: int = 1, scheme: str = "usi") -> int:
    """Longest code the scheme needs, at least 2; an MDS code needs q >= it.

    A parity class (`rates.class_plan`) needs a code of mu + rows; for fsi
    it also covers the joint code, of length 2*Gamma - eta + 1 with
    eta = max(#classes with k_i > 0, 1).  Raises check_instance's
    ParameterError for a bad shape, then class_plan's
    UnsupportedParametersError, naming the class, for one short of `demand`.
    """
    check_instance(class_sizes, side_counts)
    need = 2
    for i, (mu, k) in enumerate(zip(class_sizes, side_counts)):
        try:
            mode, rows = class_plan(mu, k, demand)
        except UnsupportedParametersError:
            left = f"class {i} of size {mu} with {k} held leaves {mu - k} new messages"
            raise UnsupportedParametersError(f"{left}, below demand {demand}") from None
        if mode == "parity":
            need = max(need, mu + rows)
    if scheme == "fsi":
        eta = max(sum(1 for k in side_counts if k > 0), 1)
        need = max(need, 2 * len(class_sizes) - eta + 1)
    return need


def auto_field_size(class_sizes, side_counts, demand: int = 1, scheme: str = "usi") -> int:
    """Smallest prime covering every code length (see longest_code_length)."""
    return next_prime(longest_code_length(class_sizes, side_counts, demand, scheme))


# --- unidentified side information -----------------------------------------


def usi_query(v: int, side: SideInfo, demand: int = 1) -> Query:
    """The query is the count profile alone; v never enters it."""
    if demand < 1:
        raise ParameterError("demand must be at least 1")
    scheme = "usi" if demand == 1 else "musi"
    return Query(scheme, tuple(side.per_class_counts), demand)


def uncoded_choice_space(mu: int, k: int, demand: int = 1):
    """All position subsets the server may send for an uncoded class."""
    return list(itertools.combinations(range(mu), k + demand))


def usi_answer(query: Query, store: MessageStore, seed=None, selections=None) -> Answer:
    """Build the per-class answer.

    selections optionally fixes the uncoded position subsets (one tuple per
    class, None for parity classes); the exact privacy audit uses it to
    enumerate the server's randomness instead of sampling it.
    """
    if query.scheme not in ("usi", "musi"):
        raise ParameterError(f"not a count-profile query: {query.scheme}")
    if query.demand < 1:
        raise ParameterError("demand must be at least 1")
    layout = store.layout
    params = layout.params
    if len(query.side_counts) != params.num_classes:
        raise ParameterError("query count profile does not match the database")
    rng = as_rng(seed) if selections is None else None
    messages = store.messages
    payloads = []
    for i, (mu, k) in enumerate(zip(params.class_sizes, query.side_counts)):
        mode, rows = class_plan(mu, k, query.demand)
        if mode == "uncoded":
            if selections is None:
                pos = sample_positions(rng, mu, rows)
            else:
                pos = tuple(selections[i])
            labels, members = layout.labels[i], layout.class_members[i]
            payloads.append(
                ClassPayload(
                    i,
                    "uncoded",
                    tuple([(i, labels[p]) for p in pos]),
                    None,
                    None,
                    tuple([messages[members[p]] for p in pos]),
                )
            )
        else:
            code = make_mds(mu + rows, mu, params.q)  # refuses a code longer than q
            parity = tuple(code.parity_rows([messages[m] for m in layout.class_members[i]]))
            payloads.append(ClassPayload(i, "parity", None, layout.labels[i], code.n, parity))
    return Answer(q=params.q, msg_len=params.msg_len, payloads=tuple(payloads))


def decode_answer(
    answer: Answer,
    side: SideInfo,
    side_values,
    demand: int = 1,
    code_factory=make_mds,
) -> RetrievalResult:
    """Recover every new message the answer yields, class by class.

    Raises ProtocolViolationError unless the answer covers exactly the
    classes of the side information, each once, no uncoded payload repeats
    a label, every parity payload carries code_length - mu rows, and each
    class yields at least `demand` new messages, so every class can serve as
    the desired one.

    side_values maps each side-information label pair to its held symbols.
    code_factory builds the (n, k, q) erasure code named by parity headers.
    """
    side_labels = set(side.label_set)
    held = {}
    for lab in side.label_set:
        held.setdefault(lab[0], []).append(lab)
    decoded = []
    counts = {}
    for payload in answer.payloads:
        if isinstance(payload, JointPayload):
            raise ParameterError("joint payloads decode via fsi_decode")
        i = payload.class_id
        if i in counts:
            raise ProtocolViolationError(f"answer carries class {i} twice")
        if payload.mode == "uncoded":
            if len(set(payload.labels)) != len(payload.labels):
                raise ProtocolViolationError(f"uncoded class {i} repeats a label")
            new = [
                (lab, tuple(row))
                for lab, row in zip(payload.labels, payload.symbols)
                if lab not in side_labels
            ]
            if len(new) < demand:
                raise ProtocolViolationError(
                    f"uncoded class {i} yields {len(new)} new messages, expected >= {demand}"
                )
        else:
            idents = payload.identifier_order
            mu = len(idents)
            n = payload.code_length
            if len(payload.symbols) != n - mu:
                raise ProtocolViolationError(
                    f"parity class {i} carries {len(payload.symbols)} rows, "
                    f"its [{n}, {mu}] header needs {n - mu}"
                )
            pos_of = dict(zip(idents, range(mu)))
            known = []
            for lab in held.get(i, ()):
                if lab[1] not in pos_of:
                    raise DecodeMetadataError(
                        f"held label {lab} missing from the class {i} header"
                    )
                known.append((pos_of[lab[1]], side_values[lab]))
            held_pos = {p for p, _ in known}
            known.extend(zip(range(mu, n), payload.symbols))
            code = code_factory(n, mu, answer.q)
            try:
                full = code.erasure_decode(known)
            except InsufficientInformationError as exc:
                raise ProtocolViolationError(f"class {i} decode: {exc}") from exc
            new = [
                ((i, idents[p]), full[p])
                for p in range(mu)
                if p not in held_pos
            ]
            if len(new) < demand:
                raise ProtocolViolationError(
                    f"parity class {i} yields {len(new)} new messages, expected >= {demand}"
                )
        decoded.extend(new)
        counts[i] = len(new)
    order = sorted(counts)
    if order != list(range(len(side.per_class_counts))):
        raise ProtocolViolationError(
            f"answer covers classes {order}, expected 0..{len(side.per_class_counts) - 1}"
        )
    return RetrievalResult(tuple(decoded), tuple(counts[i] for i in order))


# --- fully identifiable side information -------------------------------------


def fsi_choice_space(v: int, side: SideInfo, class_sizes):
    """fsi_query's random choices: a list of (drop, pinned, options).

    One entry per side class the query may drop at random (a single entry
    with drop None when it drops none); pinned flags the classes whose pick
    is a held position, and options lists each class's allowed picks.  When
    the desired class holds side information the other side classes are
    pinned, otherwise one side class is dropped so the pinned count never
    depends on v.
    """
    num_classes = len(class_sizes)
    positions = [set() for _ in range(num_classes)]
    for i, p in side.label_set:
        positions[i].add(p)
    side_classes = [i for i in range(num_classes) if positions[i]]
    if 0 <= v < num_classes and len(positions[v]) == class_sizes[v]:
        raise ParameterError(
            f"desired class {v} has no new message (size {class_sizes[v]}, all held)"
        )
    drops = side_classes if side_classes and v not in side_classes else [None]
    space = []
    for drop in drops:
        pinned = tuple(i not in (v, drop) and bool(positions[i]) for i in range(num_classes))
        options = tuple(
            [p for p in range(mu) if p not in positions[i]] if i == v
            else sorted(positions[i]) if pinned[i]
            else range(mu)
            for i, mu in enumerate(class_sizes)
        )
        space.append((drop, pinned, options))
    return space


def fsi_query(v: int, side: SideInfo, class_sizes, seed=None, choices=None) -> Query:
    """Pick one position per class; side-information positions where known.

    side must be position-keyed (see model.positional_side_info).  The
    number of pinned picks is eta - 1 with eta = max(#side classes, 1); see
    fsi_choice_space.  choices optionally fixes the random choices as
    (drop, picks), one of the entries' drop and a pick from each of its
    options; the exact privacy audit uses it to enumerate them instead of
    sampling.
    """
    space = fsi_choice_space(v, side, class_sizes)
    if choices is None:
        # seeded queries feed report.json, so the draws keep their order:
        # the drop (only when there is a choice), then one pick per class
        rng = as_rng(seed)
        drop, pinned, options = rng.choice(space) if space[0][0] is not None else space[0]
        picks = tuple(rng.choice(opts) for opts in options)
    else:
        drop, picks = choices
        entry = next((e for e in space if e[0] == drop), None)
        if entry is None or len(picks) != len(class_sizes) or any(
            p not in opts for p, opts in zip(picks, entry[2])
        ):
            raise ParameterError(f"fsi choices {choices} are outside the query's choice space")
        pinned, picks = entry[1], tuple(picks)
    return Query(
        scheme="fsi",
        picks=picks,
        known_count=sum(pinned),
        known_flags=pinned,
    )


def fsi_answer(query: Query, store: MessageStore) -> Answer:
    """Parity rows of one [2*Gamma - eta + 1, Gamma] code over the picks."""
    if query.scheme != "fsi":
        raise ParameterError(f"not an fsi query: {query.scheme}")
    layout = store.layout
    params = layout.params
    num_classes = params.num_classes
    if len(query.picks) != num_classes:
        raise ParameterError("fsi query must pick one position per class")
    # refuses a code longer than q
    code = make_mds(2 * num_classes - query.known_count, num_classes, params.q)
    rows = [
        store.messages[layout.class_members[i][p]]
        for i, p in enumerate(query.picks)
    ]
    return Answer(
        q=params.q,
        msg_len=params.msg_len,
        payloads=(
            JointPayload(
                picks=query.picks,
                known_count=query.known_count,
                code_length=code.n,
                symbols=tuple(code.parity_rows(rows)),
            ),
        ),
    )


def fsi_decode(
    answer: Answer, query: Query, side: SideInfo, side_values, v: int, code_factory=make_mds
) -> RetrievalResult:
    """Place known picks at their systematic slots, erasure-decode, read off v.

    Raises ProtocolViolationError unless the answer is one joint payload
    built for this query's picks and known count.
    """
    if len(answer.payloads) != 1 or not isinstance(answer.payloads[0], JointPayload):
        raise ProtocolViolationError("fsi answer must carry a single joint payload")
    payload = answer.payloads[0]
    if (payload.picks, payload.known_count) != (query.picks, query.known_count):
        raise ProtocolViolationError(
            f"answer is for picks {payload.picks} with {payload.known_count} known, "
            f"query has picks {query.picks} with {query.known_count} known"
        )
    num_classes = len(payload.picks)
    if not 0 <= v < num_classes:
        raise ParameterError(f"desired class {v} is outside 0..{num_classes - 1}")
    positions = [set() for _ in range(num_classes)]
    for i, p in side.label_set:
        positions[i].add(p)
    known = []
    for i, p in enumerate(payload.picks):
        if p in positions[i]:
            known.append((i, side_values[(i, p)]))
    known.extend(
        (num_classes + r, row) for r, row in enumerate(payload.symbols)
    )
    code = code_factory(payload.code_length, num_classes, answer.q)
    try:
        full = code.erasure_decode(known)
    except InsufficientInformationError as exc:
        raise ProtocolViolationError(f"fsi decode: {exc}") from exc
    decoded = []
    counts = [0] * num_classes
    for i, p in enumerate(payload.picks):
        if p not in positions[i]:
            decoded.append(((i, p), full[i]))
            counts[i] = 1
    if counts[v] < 1:
        raise ProtocolViolationError(f"fsi pick for class {v} was not new")
    return RetrievalResult(tuple(decoded), tuple(counts))


# --- cost accounting ----------------------------------------------------------


def download_cost(answer: Answer) -> int:
    """Total downloaded symbols."""
    return sum(len(p.symbols) * answer.msg_len for p in answer.payloads)


def achieved_rate(answer: Answer, msg_len: int) -> Fraction:
    """Message length over download cost, as an exact rational."""
    if msg_len != answer.msg_len:
        raise ParameterError("msg_len does not match the answer")
    return Fraction(msg_len, download_cost(answer))

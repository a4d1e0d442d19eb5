"""Database-side world model: messages, class partition, labels, side info.

A database stores f messages of L symbols each over GF(q), partitioned into
Gamma >= 2 disjoint classes of sizes mu_1..mu_Gamma.  The class assignment
(which message index sits at which position of which class) is private to
the database; the public handle on a message is its label pair
(class index, identifier), with identifiers drawn at random from a wide
range so they reveal nothing about positions, class sizes or f.

Side information is a set of held messages with exactly k_i of them from
class i.  The user-facing view of side information is the label-pair set
plus the per-class counts.

Seeded worlds feed report.json, so every draw here reproduces what the
`random.Random` methods that used to make it would return, and leaves the
generator in the same state.  The draws skip those Python-level wrappers
(`randrange`, `randint`, `shuffle` and, for populations up to POOL_LIMIT,
`sample`), which cost about a quarter of a protocol round: each value below
n is `getrandbits(n.bit_length())`, drawn again while it is >= n, exactly
as `Random._randbelow` does it.  `tests/test_model.py` checks outputs and
`getstate()` against the stdlib calls, so a Python whose draw algorithm
differs fails there rather than changing reports silently.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import EnumerationCapError, ParameterError
from .fields import make_field
from .rates import check_instance

DEFAULT_IDENTIFIER_RANGE = (1, 2**32)
POOL_LIMIT = 21  # the largest population `Random.sample` always draws from a pool


def as_rng(seed) -> random.Random:
    """Accept a seed or an existing random.Random."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _below(getrandbits, n: int) -> int:
    """One uniform draw from range(n), made as `Random._randbelow` makes it."""
    b = n.bit_length()
    r = getrandbits(b)
    while r >= n:
        r = getrandbits(b)
    return r


def _picks(mu: int, draws) -> tuple[int, ...]:
    """The sorted positions `Random.sample`'s pool branch takes from range(mu).

    draws are that branch's draws, the i-th below mu - i: each takes the pool
    entry it lands on and moves the last live entry into its place.  Only
    moved entries are stored; entry j of the pool is moved.get(j, j).
    """
    moved = {}
    picked = []
    for j in draws:
        mu -= 1
        picked.append(moved.get(j, j))
        moved[j] = moved.get(mu, mu)
    picked.sort()
    return tuple(picked)


def sample_positions(rng: random.Random, mu: int, k: int) -> tuple[int, ...]:
    """sorted(rng.sample(range(mu), k)), with the same draws.

    Up to mu = POOL_LIMIT `Random.sample` always takes its pool branch, which
    _picks repeats; above that it is called itself.
    """
    if not 0 <= k <= mu:
        raise ParameterError(f"cannot sample {k} of {mu} positions")
    if not k:  # neither branch draws for k = 0
        return ()
    if mu > POOL_LIMIT:
        return tuple(sorted(rng.sample(range(mu), k)))
    return _picks(mu, map(_below, itertools.repeat(rng.getrandbits), range(mu, mu - k, -1)))


@dataclass(frozen=True)
class InstanceParams:
    """Shape of one problem instance.

    class_sizes: mu_i, one entry per class (at least two classes).
    side_counts: k_i with 0 <= k_i <= mu_i - 1, so every class keeps at
        least one message the user does not hold.
    msg_len:     symbols per message.
    q:           field order for the stored symbols, prime or a power of
        two (`fields.make_field` decides).
    """

    class_sizes: tuple[int, ...]
    side_counts: tuple[int, ...]
    msg_len: int = 1
    q: int = 2

    def __post_init__(self):
        sizes, counts = tuple(self.class_sizes), tuple(self.side_counts)
        # type-exact, as the config and wire readers are: no bool, float or str
        if not all(type(x) is int for x in sizes + counts):
            raise ParameterError(
                f"class sizes and side counts must be integers, got {sizes} and {counts}"
            )
        object.__setattr__(self, "class_sizes", sizes)
        object.__setattr__(self, "side_counts", counts)
        check_instance(sizes, counts)
        if self.msg_len < 1:
            raise ParameterError("msg_len must be positive")
        make_field(self.q)  # FieldConstructionError unless q is a field order

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def num_messages(self) -> int:
        return sum(self.class_sizes)

    @property
    def total_side(self) -> int:
        return sum(self.side_counts)

    def side_family_size(self) -> int:
        return math.prod(map(math.comb, self.class_sizes, self.side_counts))


@dataclass(frozen=True)
class DatabaseLayout:
    """Private index mapping of one database instance.

    class_members[i] is the ordered tuple of message indices in class i
    (position within the tuple is the sub-class position); labels[i] holds
    the matching random identifiers.
    """

    params: InstanceParams
    class_members: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, ...], ...]
    _pos_by_label: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        f = self.params.num_messages
        if sorted(itertools.chain.from_iterable(self.class_members)) != list(range(f)):
            raise ParameterError("class members must partition the message indices")
        pos = {}
        for i, (members, labs, mu) in enumerate(
            zip(self.class_members, self.labels, self.params.class_sizes)
        ):
            if len(members) != mu or len(labs) != mu:
                raise ParameterError("class member/label lengths must match class sizes")
            for p, ident in enumerate(labs):
                pos[(i, ident)] = p
        # one key per (class, identifier), so a repeat leaves fewer than f
        if len(pos) != f:
            raise ParameterError("identifiers must be unique within a class")
        object.__setattr__(self, "_pos_by_label", pos)

    def position_of(self, label) -> int:
        return self._pos_by_label[label]

    def index_of(self, label) -> int:
        return self.class_members[label[0]][self._pos_by_label[label]]


@dataclass(frozen=True)
class MessageStore:
    layout: DatabaseLayout
    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p = self.layout.params
        if len(self.messages) != p.num_messages:
            raise ParameterError("store must hold one row per message")
        msg_len, q = p.msg_len, p.q
        for row in self.messages:
            if len(row) != msg_len:
                raise ParameterError("message rows must have msg_len symbols")
            for s in row:
                if not 0 <= s < q:
                    raise ParameterError("symbols must lie in [0, q)")

    def message_for(self, label):
        return self.messages[self.layout.index_of(label)]


class SideInfo(namedtuple("SideInfo", ("per_class_counts", "label_set"))):
    """User-side view of held messages: label pairs and per-class counts.

    A tuple, so it hashes, compares and constructs in C; it also equals a
    plain tuple of the same items, and no code compares it with one.
    """

    __slots__ = ()


def build_layout(params: InstanceParams, seed, identifier_range=DEFAULT_IDENTIFIER_RANGE):
    """Uniformly random class assignment plus fresh identifiers."""
    rng = as_rng(seed)
    lo, hi = identifier_range
    span = hi - lo + 1
    if max(params.class_sizes) > span:
        raise ParameterError("identifier range too small for the class sizes")
    # rng.shuffle(indices), then rng.randint(lo, hi) per identifier
    getrandbits = rng.getrandbits
    indices = list(range(params.num_messages))
    for i in range(len(indices) - 1, 0, -1):
        j = _below(getrandbits, i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    # lazy, so only the identifiers pulled use bits
    draws = map(_below, itertools.repeat(getrandbits), itertools.repeat(span))
    identifiers = map(lo.__add__, draws)
    members = []
    labels = []
    at = 0
    for mu in params.class_sizes:
        members.append(tuple(indices[at: at + mu]))
        at += mu
        # a repeat is dropped and drawn again; the first mu draws cannot overshoot
        labs = dict.fromkeys(itertools.islice(identifiers, mu))
        while len(labs) < mu:
            labs[next(identifiers)] = None
        labels.append(tuple(labs))
    return DatabaseLayout(params, tuple(members), tuple(labels))


def random_store(layout: DatabaseLayout, seed) -> MessageStore:
    """Independent uniform symbols for every message."""
    p = layout.params
    # rng.randrange(q) per symbol, grouped msg_len at a time into rows
    getrandbits = as_rng(seed).getrandbits
    count = p.num_messages * p.msg_len
    symbols = map(_below, itertools.repeat(getrandbits, count), itertools.repeat(p.q))
    return MessageStore(layout, tuple(zip(*[symbols] * p.msg_len)))


def side_from_positions(layout: DatabaseLayout, positions_by_class) -> SideInfo:
    """Side information holding the given within-class positions, one tuple per class."""
    labels = []
    counts = []
    for i, positions in enumerate(positions_by_class):
        counts.append(len(positions))
        labs = layout.labels[i]
        for p in positions:
            labels.append((i, labs[p]))
    return SideInfo(tuple(counts), tuple(sorted(labels)))


def sample_side_positions(layout: DatabaseLayout, rng: random.Random) -> tuple:
    """The held within-class positions of one uniform side-information draw, per class."""
    params = layout.params
    return tuple(
        map(sample_positions, itertools.repeat(rng), params.class_sizes, params.side_counts)
    )


def sample_side_info(layout: DatabaseLayout, seed) -> SideInfo:
    """Uniform draw over all side-information sets with the instance's profile."""
    return side_from_positions(layout, sample_side_positions(layout, as_rng(seed)))


def enumerate_side_info_sets(layout: DatabaseLayout, cap=100_000):
    """All side-information sets with the instance's profile, in canonical order."""
    params = layout.params
    total = params.side_family_size()
    if total > cap:
        raise EnumerationCapError(f"{total} side-information sets exceed cap {cap}")
    per_class = [
        list(itertools.combinations(range(mu), k))
        for mu, k in zip(params.class_sizes, params.side_counts)
    ]
    return [
        side_from_positions(layout, combo)
        for combo in itertools.product(*per_class)
    ]


def held_messages(store: MessageStore, side: SideInfo) -> dict:
    """Hand the user the message values for its side-information labels.

    Models the acquisition phase: the database (which knows the mapping)
    serves label-addressed messages; the user then only ever works with
    labels and values.
    """
    return {lab: store.message_for(lab) for lab in side.label_set}


def positional_side_info(layout: DatabaseLayout, side: SideInfo) -> SideInfo:
    """Re-key side information by within-class position instead of identifier.

    Used by the fully-identifiable variant, where the user knows each held
    message's position inside its ordered class.
    """
    labels = tuple(sorted((i, layout.position_of((i, a))) for i, a in side.label_set))
    return SideInfo(side.per_class_counts, labels)

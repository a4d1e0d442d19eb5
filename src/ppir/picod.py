"""Broadcast-with-side-information oracle: the converse, made executable.

The server of the retrieval scheme, viewed abstractly, broadcasts l linear
combinations of the f stored messages; the combination coefficients form an
f x l encoding matrix G.  A client holding side information set S can
recover message m exactly when the unit vector u_m lies in
span(columns of G, unit vectors of S); privacy forces every count-feasible
S to be able to decode something new from every class (or from at least t
classes in the t-demand generalization).

This module checks that condition by rank computations, finds the minimum
code length by exhaustive search over canonical matrices on tiny instances,
evaluates the closed-form lower bound sum_i min(k_i + 1, mu_i - k_i) and
the generic upper bound min(kappa + t, f - kappa), and constructs an
explicit certificate that any matrix satisfying all clients has rank at
least the lower bound.  The certificate walks a sequence of side-information
set types whose overlap with the already-collected decoded indices grows,
collecting one provably-decodable fresh index per step; each step and the
final rank claim are verified by independent rank checks, so a walker bug
cannot produce an unsound certificate.  The walk makes one pass, each step
on the first side set it builds.  It never gets stuck on the search
witnesses of any shape with f <= 6 over GF(2), f <= 5 over GF(3) or f <= 4
over GF(4), at any demand, but it does on some other satisfying matrices;
a stuck walk hands off to a search over quota-sized subsets of the decoded
pools, checked by the same rank tests.  Below full demand a matrix may
serve classes other than those with the smallest floors, so the served
classes are tried subset by subset, smallest floor sum first.

One span kernel serves every decodability question.  `_insert` adds one
vector to a reduced echelon basis of (pivot, row) pairs, and u_j lies in the
span exactly when j is a pivot whose row has no other nonzero entry.
`_decodable_set` answers one client by one elimination of the columns
restricted to the coordinates it lacks; it shares nothing across clients, so
the class-group tables below are the oracle's only decomposition.  The
certificate's check of its collected set C is one rank instead: the columns
kept on C contain every unit of C in their span exactly when they have rank
|C|, so `_verify_collected` runs `linalg.rank`, the kernel behind
`EncodingMatrix.rank`, not the one that built the tables the walk read.

The client family is a product over classes, and it stays one over groups
of classes joined by column supports (a scheme answer is block-diagonal by
class): what a client decodes in a group depends only on the side indices
it holds there.  `_group_tables` therefore lists each group's partial side
sets once (sum over groups of the product of C(mu_i, k_i), 30 instead of
1,000 sets for a (5,5,5)/(2,2,2) scheme answer) and records each one's
first decodable pick per class.  Written in member order, a group's
columns depend only on its classes' codes or on which positions went
uncoded, not on where the layout placed the members, so the tables are
shared per class code across matrices: `_class_table` is a bounded cache
keyed by the group's columns in member order, q and the classes' (mu_i,
k_i), and it answers in local positions.  The fewest classes any client
hits is the sum of each group's fewest, which decides
`all_clients_satisfied`; the certificate walk maps member indices to local
positions and back to read its picks and pools from the same tables.
`client_satisfied` checks one client directly and stays the reference.

The exhaustive search answers as the plain scan of column combinations in
the lexicographic order of itertools.combinations would: the first set that
satisfies every client, and the scan's candidate count.  It checks far
fewer.  The client family is invariant under the instance's monomial group
G (scaling a coordinate, permuting messages within a class, permuting
classes with equal (mu_i, k_i)), which permutes the projective points, and
the search is orderly generation (Read, "Every one a winner", Ann. Discrete
Math. 1978): a depth-first walk over sorted prefixes that extends a prefix
only while no generator of G maps it to a smaller sorted tuple.  That is
exact for any subset of G, so the few generators do: satisfaction is
G-invariant; dropping the largest element of a set least in its orbit
leaves a set least in its orbit; and the first satisfying set is least in
its orbit, so the walk reaches it through its prefixes.  `examined` is sum
C(n, l) over the exhausted lengths plus the witness's lexicographic rank
plus one.  Each client keeps the bases of the current prefix and a
one-column lookahead built from its reduced basis B: the classes it already
decodes, and its other kept coordinates grouped by normalized residue
modulo span(B).  One added column x decodes exactly the units whose residue
is a nonzero multiple of x's, so a candidate costs one reduction and one
lookup per client checked, with the verdict a full insertion would give.  A
last-level prefix for which some client has no residue group reaching the
demand has no satisfying child, and the walk leaves it at once (`pruned`
counts them); the first satisfying set and `examined` do not change.  The
checks stop at the first unsatisfied or hopeless client.  `linalg.echelon`
stays the independent rank check behind `EncodingMatrix.rank`, run once per
matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass, field

from . import linalg
from .errors import (
    CertificateError,
    EnumerationCapError,
    ParameterError,
    SearchBudgetError,
)
from .fields import make_field
from .protocol import Answer, ClassPayload
from .mds import make_mds
from .rates import class_floor

FAMILY_CAP = 100_000  # side-information sets a client family may list


@dataclass(frozen=True)
class EncodingMatrix:
    """f x l matrix over GF(q), stored column-major."""

    columns: tuple[tuple[int, ...], ...]
    q: int

    @property
    def num_messages(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def length(self) -> int:
        return len(self.columns)

    def rows(self):
        return [list(r) for r in zip(*self.columns)] if self.columns else []

    def rank(self) -> int:
        """Rank over GF(q): one `linalg.echelon` per matrix, cached on it."""
        cached = self.__dict__.get("_rank")
        if cached is None:
            cached = self.__dict__["_rank"] = linalg.rank(
                make_field(self.q), [list(c) for c in self.columns]
            )
        return cached

    def to_json(self) -> dict:
        return {
            "num_messages": self.num_messages,
            "length": self.length,
            "q": self.q,
            "rows": [list(r) for r in self.rows()],
        }


@dataclass(frozen=True)
class PicodInstance:
    """Class partition, side counts and demand for the broadcast problem."""

    class_members: tuple[tuple[int, ...], ...]
    side_counts: tuple[int, ...]
    demand_classes: int
    q: int

    def __post_init__(self):
        object.__setattr__(
            self, "class_members", tuple(tuple(m) for m in self.class_members)
        )
        object.__setattr__(self, "side_counts", tuple(self.side_counts))
        flat = [m for members in self.class_members for m in members]
        if not all(type(x) is int for x in flat + list(self.side_counts)):
            raise ParameterError("class members and side counts must be integers")
        flat.sort()
        if flat != list(range(self.num_messages)):
            raise ParameterError("class members must partition the message indices")
        if len(self.side_counts) != len(self.class_members):
            raise ParameterError("side_counts must have one entry per class")
        for members, k in zip(self.class_members, self.side_counts):
            if not 0 <= k <= len(members):
                raise ParameterError("side counts must lie within the class sizes")
        if not 1 <= self.demand_classes <= len(self.class_members):
            raise ParameterError("demand must lie in [1, num_classes]")
        open_classes = sum(len(m) > k for m, k in zip(self.class_members, self.side_counts))
        if self.demand_classes > open_classes:
            raise ParameterError(
                f"demand {self.demand_classes} exceeds the {open_classes} classes "
                "that are not fully held"
            )
        make_field(self.q)  # FieldConstructionError unless q is a field order

    @property
    def num_classes(self) -> int:
        return len(self.class_members)

    @property
    def num_messages(self) -> int:
        return sum(len(m) for m in self.class_members)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.class_members)

    @property
    def total_side(self) -> int:
        return sum(self.side_counts)

    def side_family_size(self) -> int:
        return math.prod(map(math.comb, self.class_sizes, self.side_counts))

    def check_family_cap(self) -> None:
        """Refuse a side family larger than FAMILY_CAP before enumerating any of it."""
        total = self.side_family_size()
        if total > FAMILY_CAP:
            raise EnumerationCapError(f"{total} side sets exceed cap {FAMILY_CAP}")

    def side_family(self):
        """All count-feasible side-information index sets, canonical order."""
        self.check_family_cap()
        per_class = [
            list(itertools.combinations(members, k))
            for members, k in zip(self.class_members, self.side_counts)
        ]
        return [
            tuple(sorted(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*per_class)
        ]


def instance_from_params(params, demand_classes=None) -> PicodInstance:
    """Instance with consecutive class blocks; demand_classes defaults to every class."""
    members = []
    at = 0
    for mu in params.class_sizes:
        members.append(tuple(range(at, at + mu)))
        at += mu
    t = params.num_classes if demand_classes is None else demand_classes
    return PicodInstance(tuple(members), params.side_counts, t, params.q)


def generic_min_field_size(num_messages: int) -> int:
    """Field-size floor of the unrestricted broadcast problem definition."""
    return 2 * num_messages


# --- decodability checks -----------------------------------------------------


def _residue(field, basis, vec):
    """vec reduced by a reduced echelon basis, scaled to a leading one.

    Returns (lead, residue), or None when vec lies in the span.  The residue
    is zero at every pivot, so two vectors get the same residue exactly
    when each is a nonzero multiple of the other modulo the span.
    """
    for p, row in basis:
        c = vec[p]
        if c:
            vec = field.row_addmul(vec, row, field.neg(c))
    lead = next(filter(vec.__getitem__, range(len(vec))), None)
    if lead is None:
        return None
    if vec[lead] != 1:
        vec = field.row_scale(vec, field.inv(vec[lead]))
    return lead, vec


def _insert(field, basis, vec):
    """Add vec to a reduced echelon basis of (pivot, row) pairs.

    Returns basis itself when vec already lies in its span.  Otherwise its
    residue is cleared from the other rows; every pivot stays its row's
    leading entry, so the result is the unique reduced echelon form of the
    enlarged span.
    """
    reduced = _residue(field, basis, vec)
    if reduced is None:
        return basis
    lead, vec = reduced
    out = [
        (p, field.row_addmul(row, vec, field.neg(row[lead])) if row[lead] else row)
        for p, row in basis
    ]
    out.append((lead, vec))
    return tuple(out)


def _unit_pivots(basis):
    """Pivots whose row is a unit vector: the coordinates in the span."""
    return [p for p, row in basis if len(row) - row.count(0) == 1]


def _decodable_set(matrix: EncodingMatrix, side_set) -> set:
    """Indices outside side_set that a client holding side_set can recover.

    Dropping the side coordinates turns the question into u_m in the row
    space of the restricted broadcasts: one elimination of every restricted
    column, after which u_j lies in the row space exactly when j is a pivot
    whose row has no other nonzero entry.
    """
    side = set(side_set)
    keep = [i for i in range(matrix.num_messages) if i not in side]
    field = make_field(matrix.q)
    basis = ()
    for col in matrix.columns:
        basis = _insert(field, basis, [col[i] for i in keep])
    return {keep[p] for p in _unit_pivots(basis)}


def decodable(m: int, matrix: EncodingMatrix, side_set) -> bool:
    """Can a client holding side_set recover message m from the broadcasts?"""
    return m in side_set or m in _decodable_set(matrix, side_set)


def _first_picks(found, class_members):
    """First index of each class that lies in found, None where none does."""
    return tuple(next(filter(found.__contains__, members), None) for members in class_members)


def _hits(picks) -> int:
    return len(picks) - picks.count(None)


def client_satisfied(matrix: EncodingMatrix, side_set, instance: PicodInstance) -> bool:
    """At least demand_classes classes hold a decodable new message.

    The per-client reference for all_clients_satisfied.
    """
    found = _decodable_set(matrix, side_set)
    return _hits(_first_picks(found, instance.class_members)) >= instance.demand_classes


@functools.lru_cache(maxsize=1024)
def _class_table(columns, q, shapes):
    """One class group's decodability table, in local positions.

    columns are the group's nonzero columns restricted to its coordinates
    in member order (classes in index order, members in class order), and
    shapes the classes' (mu_i, k_i), so local positions 0..mu_0 - 1 are
    class 0's members, and so on.  Returns (table, fewest): table maps each
    partial side set (sorted local positions) to the first decodable local
    position of each class, None where none is, and fewest is the fewest
    classes any entry hits.  The key holds every input, so one table serves
    every matrix whose group has these columns in member order, whatever
    its member placement.  The cache keeps the 1,024 most recently used
    tables; each has at most FAMILY_CAP entries, since _group_tables checks
    the cap on the full family before any lookup.
    """
    local = EncodingMatrix(columns, q)
    ends = itertools.accumulate(mu for mu, _ in shapes)
    blocks = [range(end - mu, end) for end, (mu, _) in zip(ends, shapes)]
    per_class = [itertools.combinations(b, k) for b, (_, k) in zip(blocks, shapes)]
    table = {}
    for combo in itertools.product(*per_class):
        partial = tuple(itertools.chain.from_iterable(combo))
        table[partial] = _first_picks(_decodable_set(local, partial), blocks)
    return types.MappingProxyType(table), min(map(_hits, table.values()))


def _group_tables(matrix: EncodingMatrix, instance: PicodInstance):
    """Each class group's first decodable picks, per partial side set.

    Classes joined by some column's support form a group; what a client
    decodes in a group's classes depends only on the side indices it holds
    there, and the side family is the product of the groups' families.
    Returns (classes, order, table, fewest) per group: order lists the
    group's message indices in member order, and table and fewest are the
    shared `_class_table` of the group's columns in that order, so table
    keys and picks are positions in order.  FAMILY_CAP applies to the full
    product and is checked before any table is looked up or listed.
    """
    instance.check_family_cap()
    memo = matrix.__dict__.setdefault("_groups", {})  # instance -> its groups
    key = instance.class_members, instance.side_counts
    if key in memo:
        return memo[key]
    members = instance.class_members
    class_of = {m: j for j, ms in enumerate(members) for m in ms}
    supports = [(col, {class_of[i] for i, x in enumerate(col) if x}) for col in matrix.columns]
    label = list(range(instance.num_classes))  # class -> lowest class of its group
    for _, touched in supports:
        joined = {label[j] for j in touched}
        label = [min(joined) if g in joined else g for g in label]
    groups = []
    for g in sorted(set(label)):
        classes = tuple(j for j in range(instance.num_classes) if label[j] == g)
        order = tuple(m for j in classes for m in members[j])
        columns = tuple(
            tuple(col[m] for m in order)
            for col, touched in supports
            if not touched.isdisjoint(classes)
        )
        shapes = tuple((len(members[j]), instance.side_counts[j]) for j in classes)
        groups.append((classes, order, *_class_table(columns, matrix.q, shapes)))
    memo[key] = groups
    return groups


def all_clients_satisfied(matrix: EncodingMatrix, instance: PicodInstance) -> bool:
    """Every count-feasible client decodes new messages from demand_classes classes.

    A client's hits are the sum of its hits in each class group, and each
    group's share ranges over that group's partial side sets independently,
    so the fewest hits over the family is the sum of each group's fewest.
    """
    fewest = sum(group[3] for group in _group_tables(matrix, instance))
    return fewest >= instance.demand_classes


# --- scheme answer as an encoding matrix --------------------------------------


def answer_to_encoding_matrix(answer: Answer, layout) -> EncodingMatrix:
    """Coefficient vectors of each transmitted symbol row.

    Uncoded rows become unit columns; parity rows become the code's parity
    columns embedded at the class's member coordinates.
    """
    f = layout.params.num_messages
    cols = []
    for payload in answer.payloads:
        if not isinstance(payload, ClassPayload):
            raise ParameterError("only per-class answers map to encoding matrices")
        i = payload.class_id
        if payload.mode == "uncoded":
            for lab in payload.labels:
                col = [0] * f
                col[layout.index_of(lab)] = 1
                cols.append(tuple(col))
        else:
            members = layout.class_members[i]
            mu = len(members)
            code = make_mds(payload.code_length, mu, answer.q)
            parity = code.parity_columns
            for j in range(len(payload.symbols)):
                col = [0] * f
                for b, m in enumerate(members):
                    col[m] = parity[b][j]
                cols.append(tuple(col))
    return EncodingMatrix(tuple(cols), answer.q)


# --- closed-form bounds --------------------------------------------------------


def _ordered_classes(instance: PicodInstance):
    """Every class's floor, and the classes a client can be served in, by floor.

    A fully held class (k_i = mu_i) has floor 0 but nothing new to decode,
    so no client is ever served in it and the order leaves it out.
    """
    sizes, counts = instance.class_sizes, instance.side_counts
    floors = [class_floor(mu, k) for mu, k in zip(sizes, counts)]
    order = sorted(
        (j for j in range(instance.num_classes) if counts[j] < sizes[j]),
        key=lambda j: (floors[j], j),
    )
    return floors, order


def broadcast_lower_bound(instance: PicodInstance) -> int:
    """Minimum broadcasts: sum of the demand_classes smallest floors of classes not fully held."""
    floors, order = _ordered_classes(instance)
    return sum(floors[j] for j in order[: instance.demand_classes])


def broadcast_upper_bound(num_messages: int, total_side: int, demand_classes: int) -> int:
    """Generic sufficient number of linearly coded broadcasts."""
    return min(total_side + demand_classes, num_messages - total_side)


# --- exhaustive minimum-length search ------------------------------------------

def _projective_points(q: int, f: int):
    """Nonzero vectors with leading coefficient one, lexicographic order.

    Column scaling never changes any span, so one representative per
    direction suffices; duplicate columns never help at the minimum length,
    so the search runs over plain combinations.
    """
    points = []
    for lead in range(f):
        tail = f - lead - 1
        for digits in itertools.product(range(q), repeat=tail):
            vec = (0,) * lead + (1,) + digits
            points.append(vec)
    return points


def _group_generators(instance: PicodInstance, points):
    """Generators of the instance's monomial group as point permutations.

    Adjacent transpositions within each class, swaps of neighbouring classes
    with equal (mu, k), and, when q > 2, one primitive-element scaling per
    coordinate; each maps a point to the normalized image of its vector.
    """
    q, f = instance.q, instance.num_messages
    field = make_field(q)
    index = {p: i for i, p in enumerate(points)}

    def as_permutation(vector_map):
        perm = []
        for p in points:
            vec = vector_map(p)
            lead = next(filter(None, vec))
            if lead != 1:
                vec = tuple(field.div(x, lead) for x in vec)
            perm.append(index[vec])
        return tuple(perm)

    def swap(pairs):
        moved = list(range(f))
        for a, b in pairs:
            moved[a], moved[b] = b, a
        return lambda p: tuple(p[j] for j in moved)

    gens = []
    for members in instance.class_members:
        gens += [swap([(a, b)]) for a, b in zip(members, members[1:])]
    shapes = list(zip(instance.class_sizes, instance.side_counts))
    for i in range(instance.num_classes):
        j = next((j for j in range(i + 1, instance.num_classes) if shapes[j] == shapes[i]), None)
        if j is not None:
            gens.append(swap(zip(instance.class_members[i], instance.class_members[j])))
    if q > 2:
        alpha = next(
            a for a in range(2, q) if len({field.pow(a, e) for e in range(q - 1)}) == q - 1
        )
        for c in range(f):
            gens.append(lambda p, c=c: p[:c] + (field.mul(alpha, p[c]),) + p[c + 1:])
    return [as_permutation(g) for g in gens]


@dataclass(frozen=True)
class SearchResult:
    found: bool
    min_length: int | None
    witness: EncodingMatrix | None
    examined: int
    exhausted_lengths: tuple[int, ...]
    # leaves whose clients were checked, generators of the group the walk
    # prunes by plus the identity, and prefixes the lookahead cut:
    # observability only, outside to_json() and equality
    checked: int = field(default=0, compare=False)
    group_elements: int = field(default=0, compare=False)
    pruned: int = field(default=0, compare=False)

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "min_length": self.min_length,
            "witness": self.witness.to_json() if self.witness else None,
            "examined": self.examined,
            "exhausted_lengths": list(self.exhausted_lengths),
        }


class _PrefixSpans:
    """One client's side of the search: the points restricted to its kept
    coordinates, the echelon bases of the current column prefix and that
    prefix's lookahead.  Adding a column x to span(B) makes u_j decodable
    exactly when u_j lies in span(B) or the residue of u_j (e_j off the
    pivots, e_j - row_j on them) is a nonzero multiple of the residue of x."""

    def __init__(self, instance: PicodInstance, side_set, points):
        side = set(side_set)
        self.keep = [i for i in range(instance.num_messages) if i not in side]
        class_of = {m: j for j, members in enumerate(instance.class_members) for m in members}
        self.classes = [class_of[i] for i in self.keep]
        self.demand = instance.demand_classes
        self.points = points
        self.prefix = ()
        self.bases = [()]  # bases[d]: span of the first d prefix columns
        self.ahead = None  # the prefix's lookahead, built on first use

    def _column(self, i):
        point = self.points[i]
        return [point[j] for j in self.keep]

    def _lookahead(self, field, prefix):
        """True when prefix already satisfies the client, else the set of
        normalized residues a single added column must have to satisfy it."""
        if prefix != self.prefix:
            d = 0
            for old, new in zip(self.prefix, prefix):
                if old != new:
                    break
                d += 1
            del self.bases[d + 1:]
            for i in prefix[d:]:
                self.bases.append(_insert(field, self.bases[-1], self._column(i)))
            self.prefix = prefix
            self.ahead = None
        if self.ahead is None:
            basis, classes = self.bases[-1], self.classes
            units = _unit_pivots(basis)
            have = {classes[p] for p in units}
            if len(have) >= self.demand:
                self.ahead = True
            else:
                groups = {}  # normalized residue -> classes of the units it decodes
                for j, c in enumerate(classes):
                    if j not in units:
                        unit = [0] * len(classes)
                        unit[j] = 1
                        groups.setdefault(tuple(_residue(field, basis, unit)[1]), set()).add(c)
                self.ahead = frozenset(
                    r for r, hit in groups.items() if len(have | hit) >= self.demand
                )
        return self.ahead

    def hopeless(self, field, prefix) -> bool:
        """No single column added to prefix satisfies the client."""
        return not self._lookahead(field, prefix)

    def satisfied(self, field, prefix, last) -> bool:
        """Does prefix plus column last satisfy the client?"""
        good = self._lookahead(field, prefix)
        if good is True:
            return True
        reduced = _residue(field, self.bases[-1], self._column(last))
        return reduced is not None and tuple(reduced[1]) in good


class _OrderlyWalk:
    """Depth-first walk over sorted point-index tuples that no generator of
    the monomial group maps to a smaller sorted tuple.

    A child P + (x,) is skipped when some generator g gives
    sorted(g(P + (x,))) < P + (x,); a set least in its whole orbit passes
    every generator, so the walk still reaches it.
    """

    def __init__(self, instance: PicodInstance, family, points):
        self.clients = [_PrefixSpans(instance, side, points) for side in family]
        self.generators = _group_generators(instance, points)
        self.group_elements = len(self.generators) + 1  # with the identity
        self.n = len(points)
        self.checked = self.pruned = 0

    def first(self, field, length, prefix=()):
        """The lexicographically first satisfying length-set below prefix, or None."""
        clients, generators = self.clients, self.generators
        leaf = len(prefix) + 1 == length
        # a prefix no single column completes for some client has no satisfying child
        if leaf and any(client.hopeless(field, prefix) for client in clients):
            self.pruned += 1
            return None
        for x in range(prefix[-1] + 1 if prefix else 0, self.n - length + len(prefix) + 1):
            child = prefix + (x,)
            least = list(child)
            if any(sorted(map(g.__getitem__, child)) < least for g in generators):
                continue
            if leaf:
                self.checked += 1
                if all(client.satisfied(field, prefix, x) for client in clients):
                    return child
            else:
                found = self.first(field, length, child)
                if found:
                    return found
        return None


def _lex_rank(combo, n: int) -> int:
    """Position of a sorted l-subset of range(n) in itertools.combinations order."""
    l = len(combo)
    return math.comb(n, l) - 1 - sum(math.comb(n - 1 - c, l - i) for i, c in enumerate(combo))


def min_code_length_bruteforce(
    instance: PicodInstance,
    l_max: int,
    budget: int = 5_000_000,
) -> SearchResult:
    """Smallest l for which some f x l matrix satisfies every client.

    The answer is the plain scan's: the first l-subset of projective points,
    l = 1..l_max, in the lexicographic order of itertools.combinations, that
    satisfies every client.  The walk (`_OrderlyWalk`) visits only sorted
    prefixes that no generator of the monomial group G maps to a smaller
    sorted tuple, and it still finds that set, as it would for any subset
    of G, by three facts:

    - satisfying every client is G-invariant;
    - dropping the largest element of a set that is least in its orbit
      leaves a set that is least in its orbit;
    - so the first satisfying set is least in its orbit, and so is each of
      its prefixes, and the walk reaches it.

    `examined` is the plain scan's count: sum C(n, l) over the exhausted
    lengths, plus the witness's lexicographic rank plus one.  `budget`
    bounds it per length: a length whose candidates would pass the budget
    raises SearchBudgetError carrying the lengths already exhausted.
    `checked` counts the candidates whose clients were checked,
    `group_elements` the generators of G plus the identity, and `pruned`
    the last-level prefixes left because some client could not be satisfied
    by any one more column.  The points are listed only once length 1 fits
    the budget, so an instance far past it fails at once instead of listing
    (q^f - 1)/(q - 1) vectors.
    """
    family = instance.side_family()
    q, f = instance.q, instance.num_messages
    num_points = (q**f - 1) // (q - 1)
    field = make_field(q)
    points = walk = None
    examined = 0
    exhausted = []
    for l in range(1, l_max + 1):
        level_size = math.comb(num_points, l)
        if examined + level_size > budget:
            raise SearchBudgetError(
                f"searching length {l} needs {level_size} candidates, "
                f"budget {budget} exceeded after {examined}",
                exhausted_lengths=exhausted,
                examined=examined,
            )
        if walk is None:
            points = _projective_points(q, f)
            walk = _OrderlyWalk(instance, family, points)
        combo = walk.first(field, l)
        if combo is not None:
            witness = EncodingMatrix(tuple(points[i] for i in combo), q)
            examined += _lex_rank(combo, num_points) + 1
            return SearchResult(
                True, l, witness, examined, tuple(exhausted),
                walk.checked, walk.group_elements, walk.pruned,
            )
        examined += level_size
        exhausted.append(l)
    work = (walk.checked, walk.group_elements, walk.pruned) if walk else (0, 0, 0)
    return SearchResult(False, None, None, examined, tuple(exhausted), *work)


# --- rank lower-bound certificate -----------------------------------------------


@dataclass(frozen=True)
class CertStep:
    side_set: tuple[int, ...]
    targets: tuple[int, ...]
    collected: tuple[int, ...]
    certified_before: int
    certified_after: int


@dataclass(frozen=True)
class CertificateReport:
    demand_classes: int
    chosen_classes: tuple[int, ...]
    class_floors: tuple[int, ...]
    rank_floor: int
    decoded_floor: int
    case: int
    forced_overlaps: dict
    leftovers: dict
    decoded_pool: dict
    sacrificed: dict
    trace: tuple
    collected: tuple[int, ...]
    matrix_rank: int
    strategy: str  # "set-types" (the walk) or "search" (the pool search)
    ok: bool
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "demand_classes": self.demand_classes,
            "chosen_classes": list(self.chosen_classes),
            "class_floors": list(self.class_floors),
            "rank_floor": self.rank_floor,
            "decoded_floor": self.decoded_floor,
            "case": self.case,
            "forced_overlaps": {str(j): d for j, d in self.forced_overlaps.items()},
            "leftovers": {str(j): d for j, d in self.leftovers.items()},
            "decoded_pool": {str(j): list(v) for j, v in self.decoded_pool.items()},
            "sacrificed": {str(j): list(v) for j, v in self.sacrificed.items()},
            "trace": [
                {
                    "side_set": list(s.side_set),
                    "targets": list(s.targets),
                    "collected": list(s.collected),
                    "certified_before": s.certified_before,
                    "certified_after": s.certified_after,
                }
                for s in self.trace
            ],
            "collected": list(self.collected),
            "matrix_rank": self.matrix_rank,
            "strategy": self.strategy,
            "ok": self.ok,
            "failure": self.failure,
        }


class _Walker:
    """Set-type walk collecting provably decodable fresh indices."""

    def __init__(self, matrix, instance):
        if not all_clients_satisfied(matrix, instance):
            raise ParameterError("matrix does not satisfy every client; certificate undefined")
        self.inst = instance
        self.groups = _group_tables(matrix, instance)
        self.slot = {}  # class -> (group, position among the group's classes)
        self.local = {}  # message index -> (group, position in the group's order)
        for g, (classes, order, _, _) in enumerate(self.groups):
            for at, j in enumerate(classes):
                self.slot[j] = g, at
            for p, m in enumerate(order):
                self.local[m] = g, p

    def pick(self, side, j):
        """First decodable index of class j for the client holding side."""
        g, at = self.slot[j]
        _, order, table, _ = self.groups[g]
        partial = sorted(p for h, p in map(self.local.__getitem__, side) if h == g)
        p = table[tuple(partial)][at]
        return None if p is None else order[p]

    def decoded_pools(self, chosen):
        """Per chosen class, every index some client picks first there."""
        pools = {}
        for j in chosen:
            g, at = self.slot[j]
            _, order, table, _ = self.groups[g]
            pool = {order[picks[at]] for picks in table.values() if picks[at] is not None}
            pools[j] = tuple(sorted(pool))
        return pools

    def build_side_set(self, collected_by_class, pools, sacrificed, targets):
        """One count-feasible set: collected overlap, then safe filler.

        Filler never touches indices that may still be collected: outside
        the decoded pool, or sacrificed pool entries.  Target classes take
        sacrificed entries first so the greedy pick cannot land on one.
        Filler never runs short: a served class keeps back only its pool
        entries that are not sacrificed, at most its quota min(k + 1,
        mu - k) <= mu - k of them, so at least k members are left to fill
        from; other classes keep back nothing.  The slices need no
        membership test: a collected index is a pick, so it lies in the
        pool, and no sacrificed pick is ever collected, as it ends the walk.
        """
        parts = []
        for j, members in enumerate(self.inst.class_members):
            k = self.inst.side_counts[j]
            part = collected_by_class.get(j, [])[:k]
            order = members
            if j in pools:
                outside = [m for m in members if m not in pools[j]]
                sac = list(sacrificed.get(j, ()))
                order = sac + outside if j in targets else outside + sac
            parts += part + list(order[: k - len(part)])
        return tuple(sorted(parts))

    def run(self, chosen, quotas, pools, sacrificed):
        """One pass of steps, each on the first side set it builds.

        Every quota is at least 1, so while the quotas left exceed the
        served classes some class owes at least 2 and takes a single step;
        then every class owes exactly 1 and one final step collects them
        all.  A pick that is None, already collected or sacrificed ends the
        walk: returns (None, trace).
        """
        collected = []
        by_class = {j: [] for j in chosen}
        remaining = dict(quotas)
        trace = []

        def step(targets):
            side = self.build_side_set(by_class, pools, sacrificed, set(targets))
            got = [(j, self.pick(side, j)) for j in targets]
            if any(t is None or t in collected or t in sacrificed.get(j, ()) for j, t in got):
                return False
            before = len(collected)
            for j, tau in got:
                collected.append(tau)
                by_class[j].append(tau)
                remaining[j] -= 1
            trace.append(
                CertStep(
                    side_set=side,
                    targets=tuple(targets),
                    collected=tuple(t for _, t in got),
                    certified_before=before,
                    certified_after=len(collected),
                )
            )
            return True

        while sum(remaining.values()) > len(chosen):
            if not step([next(j for j in chosen if remaining[j] > 1)]):
                return None, trace
        if not step(list(chosen)):
            return None, trace
        return collected, trace


def _verify_collected(matrix: EncodingMatrix, collected):
    """Each collected unit vector lies in the span of the row-restricted columns.

    The columns kept on the collected coordinates C hold every unit of C in
    their span exactly when they span all of GF(q)^C, that is when the
    l x |C| restriction has rank |C|: one `linalg.rank`, the kernel behind
    `EncodingMatrix.rank`, not the `_insert` kernel that built the tables
    the walk read.
    """
    coords = sorted(set(collected))
    rows = [[col[i] for i in coords] for col in matrix.columns]
    return linalg.rank(make_field(matrix.q), rows) == len(coords)


def rank_lower_bound_certificate(
    matrix: EncodingMatrix, instance: PicodInstance
) -> CertificateReport:
    """Constructive witness that rank(matrix) meets the broadcast lower bound.

    Requires the matrix to satisfy every client.  The served classes are
    tried as subsets of demand_classes classes, drawn from those not fully
    held and ordered by floor sum and then subset, each through the same
    walk, fallback search and rank checks; the first is the demand_classes
    classes with the smallest floors, the only subset when every class not
    fully held is demanded.  Raises the first attempt's CertificateError
    (with the partial report attached) if all fail: the walk and the search
    both found no certified index set, or a rank check would falsify the
    lower bound.  Either is treated as an implementation bug signal.
    """
    walker = _Walker(matrix, instance)
    floors, order = _ordered_classes(instance)
    subsets = sorted(
        itertools.combinations(sorted(order), instance.demand_classes),
        key=lambda subset: (sum(floors[j] for j in subset), subset),
    )
    error = None
    for subset in subsets:
        try:
            return _certify(matrix, walker, floors, tuple(j for j in order if j in subset))
        except CertificateError as exc:
            error = error or exc
    raise error


def _certify(matrix, walker, floors, chosen) -> CertificateReport:
    """The certificate with `chosen` as the served classes, or CertificateError."""
    inst = walker.inst
    rank_floor = sum(floors[j] for j in chosen)
    decoded_floor = sum(inst.side_counts[j] + 1 for j in chosen)
    # classes whose floor is mu - k < k + 1 must overlap what is collected
    tilde = [j for j in chosen if floors[j] < inst.side_counts[j] + 1]
    case = 2 if tilde else 1
    forced = {j: inst.side_counts[j] + 1 - floors[j] for j in tilde}
    leftovers = {j: inst.class_sizes[j] - (inst.side_counts[j] + 1) for j in tilde}
    pools = walker.decoded_pools(chosen)

    def report(collected, trace, strategy, ok, failure=None, sacrificed=None):
        return CertificateReport(
            demand_classes=inst.demand_classes,
            chosen_classes=chosen,
            class_floors=tuple(floors),
            rank_floor=rank_floor,
            decoded_floor=decoded_floor,
            case=case,
            forced_overlaps=forced,
            leftovers=leftovers,
            decoded_pool=pools,
            sacrificed=sacrificed or {},
            trace=tuple(trace),
            collected=tuple(collected),
            matrix_rank=matrix.rank(),
            strategy=strategy,
            ok=ok,
            failure=failure,
        )

    total_decoded = len({m for pool in pools.values() for m in pool})
    if total_decoded < decoded_floor:
        raise CertificateError(
            f"decoded set has {total_decoded} indices, below the floor {decoded_floor}",
            report=report((), (), "set-types", False, "decoded set too small"),
        )

    quotas = {j: floors[j] for j in chosen}
    sacrificed = {}
    for j in chosen:
        extra = len(pools[j]) - quotas[j]
        if extra > 0:
            sacrificed[j] = tuple(sorted(pools[j], reverse=True)[:extra])

    collected, trace = walker.run(chosen, quotas, pools, sacrificed)
    strategy = "set-types"
    if collected is None:
        # the walk got stuck; fall back to a direct search over quota-sized
        # pool subsets, still validated by the same rank checks.  The search
        # sacrifices nothing: the map was the stuck walk's
        strategy = "search"
        sacrificed = {}
        if math.prod(math.comb(len(pools[j]), quotas[j]) for j in chosen) <= 20_000:
            picks = itertools.product(*(itertools.combinations(pools[j], quotas[j]) for j in chosen))
            cands = ([m for group in pick for m in group] for pick in picks)
            collected = next((c for c in cands if _verify_collected(matrix, c)), None)
        if collected is None:
            raise CertificateError(
                "could not assemble a certified index set",
                report=report((), trace, strategy, False, "walk and search failed"),
            )
    if len(set(collected)) != len(collected) or len(collected) < rank_floor:
        raise CertificateError(
            "collected indices are not distinct or fall short of the floor",
            report=report(collected, trace, strategy, False, "short collection"),
        )
    if not _verify_collected(matrix, collected):
        raise CertificateError(
            "rank verification failed; lower bound would be falsified",
            report=report(collected, trace, strategy, False, "rank check failed"),
        )
    out = report(collected, trace, strategy, True, sacrificed=sacrificed)
    if len(out.collected) > out.matrix_rank:
        raise CertificateError(
            "collected more independent units than the matrix rank",
            report=report(collected, trace, strategy, False, "soundness breach"),
        )
    return out

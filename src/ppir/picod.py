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
`_decodable_set` splits a matrix's coordinates into blocks joined by column
supports (a scheme answer is block-diagonal by class), answers each block
on its own and memoizes the answer on the matrix, so the client checks, the
certificate walk and its verification share the eliminations.

The client family is a product over classes, and it stays one over groups
of classes joined by span blocks: what a client decodes in a group depends
only on the side indices it holds there.  `_group_tables` therefore lists
each group's partial side sets once (sum over groups of the product of
C(mu_i, k_i), 30 instead of 1,000 sets for a (5,5,5)/(2,2,2) scheme answer)
and records each one's first decodable pick per class.  The fewest classes
any client hits is the sum of each group's fewest, which decides
`all_clients_satisfied`; the certificate walk reads its picks and pools
from the same memoized tables.  `client_satisfied` checks one client
directly and stays the reference.

The exhaustive search answers as the plain scan of column combinations in
the lexicographic order of itertools.combinations would: the first set that
satisfies every client, and the scan's candidate count.  It checks far
fewer.  The client family is invariant under the instance's monomial group
G (scaling a coordinate, permuting messages within a class, permuting
classes with equal (mu_i, k_i)), which permutes the projective points, and
the search is orderly generation (Read, "Every one a winner", Ann. Discrete
Math. 1978): a depth-first walk over sorted prefixes that extends a prefix
only while no listed element of G maps it to a smaller sorted tuple.  That
is exact for any listed subset of G: satisfaction is G-invariant; dropping
the largest element of a set least in its orbit leaves a set least in its
orbit; and the first satisfying set is least in its orbit, so the walk
reaches it through its prefixes.  `examined` is sum C(n, l) over the
exhausted lengths plus the witness's lexicographic rank plus one.  Each
client keeps the bases of the current prefix and a one-column lookahead
built from its reduced basis B: the classes it already decodes, and its
other kept coordinates grouped by normalized residue modulo span(B).  One
added column x decodes exactly the units whose residue is a nonzero
multiple of x's, so a candidate costs one reduction and one lookup per
client checked, with the verdict a full insertion would give.  A last-level
prefix for which some client has no residue group reaching the demand has
no satisfying child, and the walk leaves it at once (`pruned` counts them);
the first satisfying set and `examined` do not change.  The checks stop at
the first unsatisfied or hopeless client, which then moves to the front of
the list (fail first), since neighbouring candidates tend to fail on the
same client and neither the verdict nor a client's bases depend on the
order.  `linalg.echelon` stays the independent rank check behind
`EncodingMatrix.rank`, run once per matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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

    @functools.cached_property
    def _span_blocks(self):
        """Column blocks and the memo of their decodable sets.

        Two coordinates share a block when some column's support joins them,
        so every nonzero column lies in one block and the span is the direct
        sum of the block spans.  Returns ((coords, columns) per block, memo);
        the memo maps (block index, kept coordinates) to the block's
        decodable indices.
        """
        groups = []  # (coordinates, columns) of the blocks found so far
        for col in self.columns:
            coords = {i for i, x in enumerate(col) if x}
            if not coords:
                continue
            cols = [col]
            for group in [g for g in groups if g[0] & coords]:
                groups.remove(group)
                coords |= group[0]
                cols = group[1] + cols
            groups.append((coords, cols))
        groups.sort(key=lambda g: min(g[0]))
        return [(tuple(sorted(c)), tuple(cols)) for c, cols in groups], {}

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
        flat = sorted(m for members in self.class_members for m in members)
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


def _decodable_set(matrix: EncodingMatrix, side_set, block_ids=None) -> set:
    """Indices outside side_set that a client holding side_set can recover.

    Dropping the side coordinates turns the question into u_m in the row
    space of the restricted broadcasts.  In reduced echelon form u_j lies in
    the row space exactly when column j is a pivot whose row has no other
    nonzero entry.  The span is the direct sum of the block spans, so each
    block is answered on its own and memoized on the matrix; block_ids
    limits the answer to those blocks' coordinates.
    """
    side = set(side_set)
    field = make_field(matrix.q)
    blocks, memo = matrix._span_blocks
    found = set()
    for b in range(len(blocks)) if block_ids is None else block_ids:
        coords, columns = blocks[b]
        keep = tuple(itertools.filterfalse(side.__contains__, coords))
        hit = memo.get((b, keep))
        if hit is None:
            basis = ()
            for col in columns:
                basis = _insert(field, basis, [col[i] for i in keep])
            hit = memo[b, keep] = tuple(keep[p] for p in _unit_pivots(basis))
        found.update(hit)
    return found


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


def _group_tables(matrix: EncodingMatrix, instance: PicodInstance):
    """Each class group's first decodable picks, per partial side set.

    Classes whose coordinates share a span block form a group; what a
    client decodes in a group's classes depends only on the side indices it
    holds there, and the side family is the product of the groups'
    families.  Returns (classes, table) per group, where table maps each
    partial side set (sorted indices within the group's classes) to the
    first decodable index of each of those classes.  FAMILY_CAP applies to
    the full product; the tables are memoized with the span blocks.
    """
    instance.check_family_cap()
    blocks, memo = matrix._span_blocks
    key = ("groups", instance.class_members, instance.side_counts)
    groups = memo.get(key)
    if groups is not None:
        return groups
    class_of = {m: j for j, members in enumerate(instance.class_members) for m in members}
    label = list(range(instance.num_classes))  # class -> lowest class of its group
    for coords, _ in blocks:
        joined = {label[class_of[i]] for i in coords}
        low = min(joined)
        label = [low if g in joined else g for g in label]
    groups = []
    for g in sorted(set(label)):
        classes = tuple(j for j in range(instance.num_classes) if label[j] == g)
        block_ids = [b for b, (coords, _) in enumerate(blocks) if label[class_of[coords[0]]] == g]
        members = [instance.class_members[j] for j in classes]
        per_class = [
            itertools.combinations(instance.class_members[j], instance.side_counts[j])
            for j in classes
        ]
        table = {}
        for combo in itertools.product(*per_class):
            partial = tuple(sorted(itertools.chain.from_iterable(combo)))
            table[partial] = _first_picks(_decodable_set(matrix, partial, block_ids), members)
        groups.append((classes, table))
    memo[key] = groups
    return groups


def all_clients_satisfied(matrix: EncodingMatrix, instance: PicodInstance) -> bool:
    """Every count-feasible client decodes new messages from demand_classes classes.

    A client's hits are the sum of its hits in each class group, and each
    group's share ranges over that group's partial side sets independently,
    so the fewest hits over the family is the sum of each group's fewest.
    """
    fewest = sum(
        min(map(_hits, table.values())) for _, table in _group_tables(matrix, instance)
    )
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

GROUP_ENTRY_CAP = 1 << 18  # listed group elements times points, per search


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


def _group_elements(instance: PicodInstance, points):
    """Elements of the monomial group other than the identity, up to the cap.

    Breadth-first products of the generators, the generators first; the
    listing stops before elements times points would pass GROUP_ENTRY_CAP,
    so a large group is listed only in part.  Pruning is sound for any subset.
    """
    n = len(points)
    if n > GROUP_ENTRY_CAP:
        return []
    gens = _group_generators(instance, points)
    queue = [tuple(range(n))]
    seen = set(queue)
    for element in queue:
        for gen in gens:
            product = tuple(map(gen.__getitem__, element))
            if product not in seen:
                if len(queue) * n > GROUP_ENTRY_CAP:
                    return queue[1:]
                seen.add(product)
                queue.append(product)
    return queue[1:]


@dataclass(frozen=True)
class SearchResult:
    found: bool
    min_length: int | None
    witness: EncodingMatrix | None
    examined: int
    exhausted_lengths: tuple[int, ...]
    # leaves whose clients were checked, group elements listed with the
    # identity and prefixes the lookahead cut: observability only, outside
    # to_json() and equality
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
    coordinates, each once and on first use, the echelon bases of the
    current column prefix and that prefix's lookahead.  Adding a column x
    to span(B) makes u_j decodable exactly when u_j lies in span(B) or the
    residue of u_j (e_j off the pivots, e_j - row_j on them) is a nonzero
    multiple of the residue of x."""

    def __init__(self, instance: PicodInstance, side_set, points):
        side = set(side_set)
        self.keep = [i for i in range(instance.num_messages) if i not in side]
        class_of = {m: j for j, members in enumerate(instance.class_members) for m in members}
        self.classes = [class_of[i] for i in self.keep]
        self.demand = instance.demand_classes
        self.points = points
        self.restricted = {}
        self.prefix = ()
        self.bases = [()]  # bases[d]: span of the first d prefix columns
        self.ahead = None  # the prefix's lookahead, built on first use

    def _column(self, i):
        vec = self.restricted.get(i)
        if vec is None:
            point = self.points[i]
            vec = self.restricted[i] = [point[j] for j in self.keep]
        return vec

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
    """Depth-first walk over sorted point-index tuples, least in their orbits.

    Sets are compared as sorted tuples, so A precedes B exactly when the
    smallest element of their symmetric difference lies in A; on bitmasks
    that is one xor and one lowest-bit test.  Each prefix P of the walk is
    least in its orbit, so for a listed element g either g fixes P as a set,
    and the child P + (x,) fails exactly when g(x) < x, or m, the smallest
    element of P not in g(P), lies in P, and the child stays least when
    g(x) > m, fails when g(x) < m and needs one mask test when g(x) == m.
    A prefix therefore costs one pass over the elements and a child one
    comparison per element, in C.
    """

    def __init__(self, instance: PicodInstance, family, points):
        self.clients = [_PrefixSpans(instance, side, points) for side in family]
        self.n = len(points)
        self.checked = self.pruned = 0
        self.prune_by([])

    def prune_by(self, elements):
        """Walk up to these point permutations from now on."""
        n = self.n
        self.group_elements = len(elements) + 1
        self.images = tuple(zip(*elements)) or ((),) * n  # images[x][e] = element e of x
        preimages = [[0] * n for _ in elements]
        for pre, element in zip(preimages, elements):
            for x, y in enumerate(element):
                pre[y] = x
        self.preimages = tuple(zip(*preimages)) or ((),) * n
        # per element, the points it moves down: their children fail below a fixed prefix
        self.lower = [sum(1 << x for x, y in enumerate(e) if y < x) for e in elements]

    def _limits(self, prefix, mask, marks):
        """(Children refused by mask, per-element bound) below a least prefix.

        A child x > prefix[-1] is refused when its bit is in the mask or some
        element e maps it below limits[e].
        """
        refused = 0
        limits = []
        last = prefix[-1] if prefix else -1
        for e, mark in enumerate(marks):
            diff = mark ^ mask
            if not diff:
                refused |= self.lower[e]
                limits.append(-1)
                continue
            low = diff & -diff  # in mask: the prefix is least in its orbit
            m = low.bit_length() - 1
            limits.append(m)
            x = self.preimages[m][e]
            if x > last:
                diff = (mask | 1 << x) ^ (mark | low)
                if diff & -diff & mark:
                    refused |= 1 << x
        return refused, limits

    def first(self, field, length, prefix=(), mask=0, marks=None):
        """The lexicographically first satisfying length-set below prefix, or None.

        mask holds the prefix's points as bits and marks[e] those of its
        image under element e.
        """
        if marks is None:
            marks = [0] * len(self.lower)
        images, clients = self.images, self.clients
        leaf = len(prefix) + 1 == length
        if leaf:  # a prefix no single column completes for some client has no satisfying child
            for at, client in enumerate(clients):
                if client.hopeless(field, prefix):
                    if at:
                        clients.insert(0, clients.pop(at))
                    self.pruned += 1
                    return None
        refused, limits = self._limits(prefix, mask, marks)
        for x in range(prefix[-1] + 1 if prefix else 0, self.n - length + len(prefix) + 1):
            if refused >> x & 1 or limits and any(map(operator.lt, images[x], limits)):
                continue
            if leaf:
                self.checked += 1
                for at, client in enumerate(clients):
                    if not client.satisfied(field, prefix, x):
                        if at:  # fail first: the rejecting client leads next time
                            clients.insert(0, clients.pop(at))
                        break
                else:
                    return prefix + (x,)
            else:
                found = self.first(
                    field,
                    length,
                    prefix + (x,),
                    mask | 1 << x,
                    [m | 1 << y for m, y in zip(marks, images[x])],
                )
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
    prefixes that no listed element of the monomial group G maps to a
    smaller sorted tuple, and it still finds that set, for any listed subset
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
    `group_elements` the listed elements of G, the identity included, and
    `pruned` the last-level prefixes left because some client could not be
    satisfied by any one more column.  The
    points are listed only once length 1 fits the budget, so an instance
    far past it fails at once instead of listing (q^f - 1)/(q - 1) vectors.
    Length 1 is scanned in full: listing the group costs about as much, so
    it is listed, up to GROUP_ENTRY_CAP entries, only once length 2 fits.
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
        elif l == 2:  # listing the group costs about a length-1 scan
            walk.prune_by(_group_elements(instance, points))
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
        self.group_of = {}  # message index -> group
        for g, (classes, _) in enumerate(self.groups):
            for at, j in enumerate(classes):
                self.slot[j] = g, at
                self.group_of.update(dict.fromkeys(instance.class_members[j], g))

    def pick(self, side, j):
        """First decodable index of class j for the client holding side."""
        g, at = self.slot[j]
        group_of = self.group_of
        return self.groups[g][1][tuple(m for m in side if group_of[m] == g)][at]

    def decoded_pools(self, chosen):
        """Per chosen class, every index some client picks first there."""
        pools = {}
        for j in chosen:
            g, at = self.slot[j]
            pool = {picks[at] for picks in self.groups[g][1].values()}
            pool.discard(None)
            pools[j] = tuple(sorted(pool))
        return pools

    def build_side_set(self, chosen, collected_by_class, pools, sacrificed, targets):
        """One count-feasible set: collected overlap, then safe filler.

        Filler never touches indices that may still be collected: outside
        the decoded pool, or sacrificed pool entries.  Target classes take
        sacrificed entries first so the greedy pick cannot land on one.
        Filler never runs short: a served class keeps back only its pool
        entries that are not sacrificed, at most its quota min(k + 1,
        mu - k) <= mu - k of them, so at least k members are left to fill
        from; other classes keep back nothing.
        """
        parts = []
        for j, members in enumerate(self.inst.class_members):
            k = self.inst.side_counts[j]
            have = collected_by_class.get(j, [])
            part = list(have[: min(len(have), k)])
            need = k - len(part)
            if need > 0:
                if j in pools:
                    outside = [m for m in members if m not in pools[j]]
                    sac = [m for m in sacrificed.get(j, ()) if m not in part]
                    order = sac + outside if j in targets else outside + sac
                else:
                    order = [m for m in members]
                for m in order:
                    if need == 0:
                        break
                    if m not in part:
                        part.append(m)
                        need -= 1
            parts.extend(part)
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
            side = self.build_side_set(chosen, by_class, pools, sacrificed, set(targets))
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
    """Each collected unit vector lies in the span of the row-restricted columns."""
    coords = set(collected)
    others = [i for i in range(matrix.num_messages) if i not in coords]
    return coords <= _decodable_set(matrix, others)


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

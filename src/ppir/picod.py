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
cannot produce an unsound certificate.
"""

from __future__ import annotations

import itertools
import math
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
        return linalg.rank(make_field(self.q), [list(c) for c in self.columns])

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
        f = self.num_messages
        flat = sorted(m for members in self.class_members for m in members)
        if flat != list(range(f)):
            raise ParameterError("class members must partition the message indices")
        if len(self.side_counts) != len(self.class_members):
            raise ParameterError("side_counts must have one entry per class")
        for members, k in zip(self.class_members, self.side_counts):
            if not 0 <= k <= len(members):
                raise ParameterError("side counts must lie within the class sizes")
        if not 1 <= self.demand_classes <= len(self.class_members):
            raise ParameterError("demand must lie in [1, num_classes]")
        if self.total_side > f - self.demand_classes:
            raise ParameterError("side information too large for the demand")
        if self.q < 2:
            raise ParameterError("q must be at least 2")

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
        out = 1
        for members, k in zip(self.class_members, self.side_counts):
            out *= math.comb(len(members), k)
        return out

    def side_family(self, cap: int = 100_000):
        """All count-feasible side-information index sets, canonical order."""
        total = self.side_family_size()
        if total > cap:
            raise EnumerationCapError(f"{total} side sets exceed cap {cap}")
        per_class = [
            list(itertools.combinations(members, k))
            for members, k in zip(self.class_members, self.side_counts)
        ]
        return [
            tuple(sorted(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*per_class)
        ]


def instance_from_params(params, demand_classes=None, class_members=None) -> PicodInstance:
    """Instance with consecutive class blocks unless members are given."""
    if class_members is None:
        members = []
        at = 0
        for mu in params.class_sizes:
            members.append(tuple(range(at, at + mu)))
            at += mu
        class_members = tuple(members)
    t = params.num_classes if demand_classes is None else demand_classes
    return PicodInstance(class_members, params.side_counts, t, params.q)


def generic_min_field_size(num_messages: int) -> int:
    """Field-size floor of the unrestricted broadcast problem definition."""
    return 2 * num_messages


# --- decodability checks -----------------------------------------------------


def _decodable_set(matrix: EncodingMatrix, side_set) -> set:
    """Indices outside side_set that a client holding side_set can recover.

    Dropping the side coordinates turns the question into u_m in the row
    space of the restricted broadcasts.  In reduced echelon form u_j lies in
    the row space exactly when column j is a pivot whose row has no other
    nonzero entry, so one elimination answers every index at once.
    """
    side = set(side_set)
    keep = [i for i in range(matrix.num_messages) if i not in side]
    vectors = [[col[i] for i in keep] for col in matrix.columns]
    ech, pivots = linalg.echelon(make_field(matrix.q), vectors)
    return {keep[p] for row, p in zip(ech, pivots) if len(row) - row.count(0) == 1}


def decodable(m: int, matrix: EncodingMatrix, side_set) -> bool:
    """Can a client holding side_set recover message m from the broadcasts?"""
    return m in side_set or m in _decodable_set(matrix, side_set)


def _decodable_map(matrix: EncodingMatrix, side_set, instance: PicodInstance):
    """First decodable new index per class for one client, None if none."""
    found = _decodable_set(matrix, side_set)
    return tuple(
        next((m for m in members if m in found), None)
        for members in instance.class_members
    )


def client_satisfied(matrix: EncodingMatrix, side_set, instance: PicodInstance) -> bool:
    """At least demand_classes classes hold a decodable new message."""
    hits = sum(1 for m in _decodable_map(matrix, side_set, instance) if m is not None)
    return hits >= instance.demand_classes


def all_clients_satisfied(
    matrix: EncodingMatrix, instance: PicodInstance, cap: int = 100_000
) -> bool:
    return all(
        client_satisfied(matrix, side, instance)
        for side in instance.side_family(cap)
    )


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


def class_floor(mu: int, k: int) -> int:
    """Per-class minimum download rows, min(k + 1, mu - k)."""
    return min(k + 1, mu - k)


def _ordered_classes(instance: PicodInstance):
    floors = [
        class_floor(mu, k)
        for mu, k in zip(instance.class_sizes, instance.side_counts)
    ]
    order = sorted(range(instance.num_classes), key=lambda j: (floors[j], j))
    return floors, order


def broadcast_lower_bound(instance: PicodInstance) -> int:
    """Minimum broadcasts: sum of the demand_classes smallest class floors."""
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


@dataclass(frozen=True)
class SearchResult:
    found: bool
    min_length: int | None
    witness: EncodingMatrix | None
    examined: int
    exhausted_lengths: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "min_length": self.min_length,
            "witness": self.witness.to_json() if self.witness else None,
            "examined": self.examined,
            "exhausted_lengths": list(self.exhausted_lengths),
        }


def min_code_length_bruteforce(
    instance: PicodInstance,
    l_max: int,
    budget: int = 5_000_000,
    cap: int = 100_000,
) -> SearchResult:
    """Smallest l for which some f x l matrix satisfies every client.

    Scans canonical column subsets for l = 1..l_max.  `budget` bounds the
    number of candidate matrices examined; exceeding it raises
    SearchBudgetError carrying the lengths already exhausted.
    """
    family = instance.side_family(cap)
    points = _projective_points(instance.q, instance.num_messages)
    examined = 0
    exhausted = []
    for l in range(1, l_max + 1):
        level_size = math.comb(len(points), l)
        if examined + level_size > budget:
            raise SearchBudgetError(
                f"searching length {l} needs {level_size} candidates, "
                f"budget {budget} exceeded after {examined}",
                exhausted_lengths=exhausted,
                examined=examined,
            )
        for combo in itertools.combinations(points, l):
            examined += 1
            matrix = EncodingMatrix(combo, instance.q)
            if all(client_satisfied(matrix, side, instance) for side in family):
                return SearchResult(True, l, matrix, examined, tuple(exhausted))
        exhausted.append(l)
    return SearchResult(False, None, None, examined, tuple(exhausted))


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
    strategy: str
    ok: bool
    failure: str | None = None
    extra: dict = field(default_factory=dict)

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

    def __init__(self, matrix, instance, cap):
        self.matrix = matrix
        self.inst = instance
        self.family = instance.side_family(cap)
        self.greedy = {}
        for side in self.family:
            picks = _decodable_map(matrix, side, instance)
            if sum(1 for m in picks if m is not None) < instance.demand_classes:
                raise ParameterError(
                    "matrix does not satisfy every client; certificate undefined"
                )
            self.greedy[side] = picks

    def decoded_pools(self, chosen):
        pools = {}
        for j in chosen:
            pool = sorted(
                {picks[j] for picks in self.greedy.values() if picks[j] is not None}
            )
            pools[j] = tuple(pool)
        return pools

    def build_side_set(self, chosen, collected_by_class, pools, sacrificed, targets):
        """One count-feasible set: collected overlap, then safe filler.

        Filler never touches indices that may still be collected: outside
        the decoded pool, or sacrificed pool entries.  Target classes take
        sacrificed entries first so the greedy pick cannot land on one.
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
            if need > 0:
                raise CertificateError(
                    f"cannot assemble a side set for class {j}", report=None
                )
            parts.extend(part)
        return tuple(sorted(parts))

    def run(self, chosen, quotas, pools, sacrificed):
        collected = []
        by_class = {j: [] for j in chosen}
        remaining = dict(quotas)
        trace = []

        def collect_from(side, targets):
            got = []
            for j in targets:
                tau = self.greedy[side][j]
                if tau is None or tau in collected or tau in sacrificed.get(j, ()):
                    # force the conflicting index into the side set and retry
                    return None, j, tau
                got.append((j, tau))
            return got, None, None

        def step(targets):
            forced = {j: list(sacrificed.get(j, ())) for j in targets}
            for _ in range(1 + sum(len(pools[j]) for j in targets)):
                sac = dict(sacrificed)
                for j in targets:
                    sac[j] = tuple(forced[j])
                side = self.build_side_set(chosen, by_class, pools, sac, set(targets))
                got, bad_class, bad_tau = collect_from(side, targets)
                if got is not None:
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
                if bad_tau is None or bad_tau in forced[bad_class]:
                    return False
                forced[bad_class].append(bad_tau)
                if len(forced[bad_class]) + min(
                    len(by_class[bad_class]), self.inst.side_counts[bad_class]
                ) > self.inst.side_counts[bad_class]:
                    return False
            return False

        while sum(remaining.values()) > len(chosen):
            target = next((j for j in chosen if remaining[j] > 1), None)
            if target is None:
                break
            if not step([target]):
                return None, trace
        finals = [j for j in chosen if remaining[j] > 0]
        if finals and not step(finals):
            return None, trace
        if any(remaining[j] != 0 for j in chosen):
            return None, trace
        return collected, trace


def _verify_collected(matrix: EncodingMatrix, collected):
    """Each collected unit vector lies in the span of the row-restricted columns."""
    coords = set(collected)
    others = [i for i in range(matrix.num_messages) if i not in coords]
    return coords <= _decodable_set(matrix, others)


def rank_lower_bound_certificate(
    matrix: EncodingMatrix, instance: PicodInstance, cap: int = 100_000
) -> CertificateReport:
    """Constructive witness that rank(matrix) meets the broadcast lower bound.

    Requires the matrix to satisfy every client.  Raises CertificateError
    (with the partial report attached) if the walk cannot be completed or a
    rank check fails; that would falsify the lower bound and is treated as
    an implementation bug signal.
    """
    walker = _Walker(matrix, instance, cap)
    inst = instance
    floors, order = _ordered_classes(inst)
    chosen = tuple(order[: inst.demand_classes])
    rank_floor = sum(floors[j] for j in chosen)
    decoded_floor = sum(inst.side_counts[j] + 1 for j in chosen)
    tilde = [
        j
        for j in chosen
        if inst.class_sizes[j] - inst.side_counts[j] < inst.side_counts[j] + 1
    ]
    case = 2 if tilde else 1
    forced = {
        j: inst.side_counts[j] + 1 - (inst.class_sizes[j] - inst.side_counts[j])
        for j in tilde
    }
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
        # pool subsets, still validated by the same rank checks
        strategy = "search"
        combos = 1
        for j in chosen:
            combos *= math.comb(len(pools[j]), quotas[j])
        if combos <= 20_000:
            per_class = [
                list(itertools.combinations(pools[j], quotas[j])) for j in chosen
            ]
            for pick in itertools.product(*per_class):
                cand = [m for group in pick for m in group]
                if _verify_collected(matrix, cand):
                    collected = cand
                    break
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

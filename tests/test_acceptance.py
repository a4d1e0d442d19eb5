"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The instance grid covers two and three classes with class sizes up to five,
every valid side-count profile up to class relabeling, and message lengths
1 and 4; every instance runs 100 seeded trials.  Matrix-level checks
(criteria 5 and 7) and the exhaustive per-class recovery (criterion 11) run
on the msg_len=1 instances because encoding-matrix structure, enumerability,
total-variation distances and which pairs decode do not depend on the
message length.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import time
from fractions import Fraction

import pytest

from ppir.audit import MUTANT_SERVERS, audit_exact, audit_statistical, exact_audit_work
from ppir.errors import PpirError
from ppir.harness import run_trial, trial_seed
from ppir.model import (
    InstanceParams,
    build_layout,
    held_messages,
    positional_side_info,
    random_store,
    sample_side_info,
    side_from_positions,
)
from ppir.picod import (
    PicodInstance,
    _class_table,
    all_clients_satisfied,
    answer_to_encoding_matrix,
    broadcast_lower_bound,
    instance_from_params,
    min_code_length_bruteforce,
    rank_lower_bound_certificate,
)
from ppir.protocol import (
    decode_answer,
    download_cost,
    fsi_answer,
    fsi_decode,
    fsi_query,
    usi_answer,
    usi_choice_space,
    usi_query,
)
from ppir.rates import usi_capacity
from ppir.mds import make_mds

TRIALS_PER_INSTANCE = 100
MASTER_SEED = 20_240_601


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def grid_run(acceptance_grid):
    """100 seeded trials per grid instance; shared by criteria 1-3."""
    stats = []
    total_trials = 0
    for params in acceptance_grid:
        iid = f"{params.class_sizes}-{params.side_counts}-{params.msg_len}"
        expected_cost = params.msg_len * sum(
            min(k + 1, mu - k)
            for mu, k in zip(params.class_sizes, params.side_counts)
        )
        capacity = usi_capacity(params.class_sizes, params.side_counts)
        cost_exact = True
        recovery_ok = True
        for t in range(TRIALS_PER_INSTANCE):
            record = run_trial(
                params, trial_seed(MASTER_SEED, iid, t), "usi", 1, 1
            )
            total_trials += 1
            if record.download_symbols != expected_cost or record.rate != capacity:
                cost_exact = False
            if not record.success or any(n < 1 for n in record.new_from_class):
                recovery_ok = False
        stats.append(
            {
                "params": params,
                "cost_exact": cost_exact,
                "recovery_ok": recovery_ok,
                "capacity": capacity,
            }
        )
    return stats, total_trials


def test_criterion_1_capacity_achievement(grid_run):
    stats, total = grid_run
    bad = [s["params"] for s in stats if not s["cost_exact"]]
    _report(
        1,
        not bad,
        f"download cost and rate match capacity exactly on {len(stats)} instances "
        f"x {TRIALS_PER_INSTANCE} trials ({total} trials)"
        + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_2_recovery(grid_run):
    stats, total = grid_run
    bad = [s["params"] for s in stats if not s["recovery_ok"]]
    ok = not bad and total >= 10_000
    _report(
        2,
        ok,
        f"every trial decoded >= 1 new message per class, bit-identical to the "
        f"store, total <= f - kappa; {total} trials, 0 failures",
    )


def test_criterion_3_capacity_endpoints(grid_run):
    stats, _ = grid_run
    checked = {"no-side": 0, "max-side": 0, "pir-si": 0}
    ok = True
    for s in stats:
        params = s["params"]
        sizes, counts = params.class_sizes, params.side_counts
        gamma = params.num_classes
        if all(k == 0 for k in counts):
            checked["no-side"] += 1
            ok = ok and s["capacity"] == Fraction(1, gamma)
        if all(k == mu - 1 for mu, k in zip(sizes, counts)):
            checked["max-side"] += 1
            ok = ok and s["capacity"] == Fraction(1, gamma)
        if all(k + 1 >= mu - k for mu, k in zip(sizes, counts)):
            checked["pir-si"] += 1
            ok = ok and s["capacity"] == Fraction(
                1, params.num_messages - params.total_side
            )
    ok = ok and all(v > 0 for v in checked.values())
    _report(3, ok, f"exact endpoint rates verified on {checked} instances")


def test_criterion_4_converse_oracle_tightness():
    # every shape with f <= 5 over GF(2) and f <= 4 over GF(3): the exhaustive
    # minimum equals the closed form, and the witness carries a certificate.
    # The paper's headline: the minimum exceeds Gamma, the cost of PPIR with no
    # side information, exactly when some class has 1 <= k_i <= mu_i - 2
    from conftest import compositions

    ok = True
    checked = costlier = 0
    first_bad = None
    started = time.perf_counter()
    for q, f_max in ((2, 5), (3, 4)):
        for f in range(2, f_max + 1):
            for gamma in range(2, f + 1):
                for sizes in compositions(f, gamma):
                    for counts in itertools.product(*[range(mu) for mu in sizes]):
                        instance = instance_from_params(InstanceParams(sizes, counts, q=q))
                        want = broadcast_lower_bound(instance)
                        result = min_code_length_bruteforce(instance, want)
                        hit = result.found and result.min_length == want
                        if hit:
                            cert = rank_lower_bound_certificate(result.witness, instance)
                            hit = cert.ok and cert.rank_floor == want == result.witness.rank()
                        side_costs = any(1 <= k <= mu - 2 for mu, k in zip(sizes, counts))
                        hit = hit and (result.min_length > gamma) == side_costs
                        costlier += side_costs
                        ok = ok and hit
                        checked += 1
                        if not hit and first_bad is None:
                            first_bad = f"{sizes}/{counts} GF({q})={result.min_length}"
    elapsed = time.perf_counter() - started
    ok = ok and checked == 96 and elapsed < 60
    detail = (
        f"{checked} shapes, minimum = bound and certified; minimum > Gamma on {costlier}, "
        f"= Gamma on {checked - costlier}, as 1 <= k_i <= mu_i - 2 predicts ({elapsed:.1f}s)"
    )
    _report(4, ok, detail if first_bad is None else f"{detail}; first miss {first_bad}")


def test_criterion_5_scheme_meets_converse(acceptance_grid):
    ok = True
    checked = 0
    first_bad = None
    tables = _class_table.cache_info()
    for params in acceptance_grid:
        if params.msg_len != 1:
            continue
        layout = build_layout(params, 11)
        store = random_store(layout, 12)
        side = sample_side_info(layout, 13)
        answer = usi_answer(usi_query(0, side), store, 14)
        matrix = answer_to_encoding_matrix(answer, layout)
        instance = PicodInstance(
            layout.class_members, params.side_counts, params.num_classes, params.q
        )
        bound = broadcast_lower_bound(instance)
        cert = rank_lower_bound_certificate(matrix, instance)
        good = (
            all_clients_satisfied(matrix, instance)
            and matrix.length == bound
            and matrix.rank() == bound
            and cert.ok
            and cert.rank_floor == bound
            and len(cert.collected) >= bound
        )
        if not good and first_bad is None:
            first_bad = params
        ok = ok and good
        checked += 1
    after = _class_table.cache_info()
    _report(
        5,
        ok,
        f"answer matrices meet the converse with equality on {checked} instances "
        f"({after.misses - tables.misses} class tables built, "
        f"{after.hits - tables.hits} lookups reused one)"
        + (f"; first failure {first_bad}" if first_bad else ""),
    )


def test_criterion_6_sandwich_bound():
    from conftest import compositions

    checked = 0
    ok = True
    for f in range(2, 11):
        for gamma in range(2, f + 1):
            for sizes in compositions(f, gamma):
                for counts in itertools.product(*[range(mu) for mu in sizes]):
                    kappa = sum(counts)
                    lower = sum(min(k + 1, mu - k) for mu, k in zip(sizes, counts))
                    upper = min(kappa + gamma, f - kappa)
                    ok = ok and lower <= upper
                    checked += 1
    _report(6, ok, f"lower <= min(kappa+Gamma, f-kappa) on all {checked} instances with f <= 10")


def test_criterion_7_privacy(acceptance_grid):
    # covers the largest grid instance, (5,5,5)/(1,1,1) with 375k enumerations
    cap = 400_000
    audited = skipped = 0
    ok = True
    for params in acceptance_grid:
        if params.msg_len != 1:
            continue
        layout = build_layout(params, 21)
        if exact_audit_work(layout) > cap:
            skipped += 1
            continue
        verdict = audit_exact(random_store(layout, 22), cap=cap)
        ok = ok and verdict.passed and verdict.answer_tv_distance == 0
        ok = ok and verdict.query_invariant
        audited += 1
    # the shipped mutants must all fail
    params = InstanceParams((4, 2), (0, 1), q=3)
    layout = build_layout(params, 23)
    store = random_store(layout, 24)
    mutants_fail = all(
        not audit_exact(store, server=cls()).passed for cls in MUTANT_SERVERS
    )
    ok = ok and mutants_fail
    # statistical audit on f = 20
    big = InstanceParams((10, 10), (1, 0), msg_len=1, q=2)
    big_layout = build_layout(big, 25)
    stat = audit_statistical(big_layout, 10_000, 26)
    ok = ok and stat.passed and stat.mi_estimate < stat.mi_threshold
    ok = ok and skipped == 0
    _report(
        7,
        ok,
        f"exact audit TV=0 on {audited} enumerable instances ({skipped} above cap); "
        f"all {len(MUTANT_SERVERS)} mutants fail; statistical f=20: "
        f"mi={stat.mi_estimate:.6f} < threshold={stat.mi_threshold:.6f}",
    )


def test_criterion_8_fsi_rate():
    ok = True
    details = []
    for gamma in (2, 3, 4):
        for eta in range(1, gamma + 1):
            class_sizes = (3,) * gamma
            side_counts = tuple(1 if i < eta else 0 for i in range(gamma))
            for msg_len in (1, 4):
                params = InstanceParams(class_sizes, side_counts, msg_len=msg_len, q=17)
                hit = True
                for seed in range(25):
                    layout = build_layout(params, seed)
                    store = random_store(layout, seed + 1)
                    side = positional_side_info(
                        layout, sample_side_info(layout, seed + 2)
                    )
                    values = {
                        (i, p): store.messages[layout.class_members[i][p]]
                        for i, p in side.label_set
                    }
                    v = seed % gamma
                    query = fsi_query(v, side, class_sizes, seed + 3)
                    answer = fsi_answer(query, store)
                    hit = hit and query.known_count == eta - 1
                    hit = hit and download_cost(answer) == (gamma - eta + 1) * msg_len
                    result = fsi_decode(answer, query, side, values, v)
                    want = store.messages[layout.class_members[v][query.picks[v]]]
                    hit = hit and dict(result.decoded)[(v, query.picks[v])] == want
                ok = ok and hit
            details.append(f"G={gamma},eta={eta}:{'ok' if ok else 'FAIL'}")
    _report(8, ok, "download (Gamma-eta+1)L and desired pick recovered; " + ",".join(details))


def test_criterion_9_multi_message_rate():
    params = InstanceParams((4, 4), (1, 1), msg_len=2, q=7)
    ok = True
    for seed in range(50):
        layout = build_layout(params, seed)
        store = random_store(layout, seed + 1)
        side = sample_side_info(layout, seed + 2)
        values = {lab: store.message_for(lab) for lab in side.label_set}
        query = usi_query(0, side, demand=2)
        answer = usi_answer(query, store, seed + 3)
        ok = ok and download_cost(answer) == 6 * params.msg_len
        result = decode_answer(answer, side, values, demand=2)
        ok = ok and all(n >= 2 for n in result.new_from_class)
        rate = Fraction(2 * 1 * params.msg_len, download_cost(answer))
        ok = ok and rate == Fraction(1, 3)
        for lab, sym in result.decoded:
            ok = ok and store.message_for(lab) == tuple(sym)
    _report(9, ok, "demand 2: D = 6L, >= 2 new messages per class, rate exactly 1/3")


def test_criterion_10_mds_property_suite():
    ok = True
    codes = decodes = 0
    for q in (2, 3, 4, 5, 7):
        for n in range(1, min(q, 5) + 1):
            for k in range(1, n + 1):
                if q**k > 10_000:
                    continue
                code = make_mds(n, k, q)
                codes += 1
                for msg in itertools.product(range(q), repeat=k):
                    cw = code.encode([(s,) for s in msg])
                    for pos in itertools.combinations(range(n), k):
                        got = code.erasure_decode([(p, cw[p]) for p in pos])
                        ok = ok and got == cw
                        decodes += 1
    _report(10, ok, f"{codes} codes, {decodes} erasure decodes, all exact")


def test_criterion_11_exhaustive_per_class_recovery(acceptance_grid):
    # Class i has N_i = C(mu_i, k_i) side subsets times its server choices
    # (the uncoded position subsets, or the one parity answer).  Round r gives
    # class i its (r mod N_i)-th pair, so max_i N_i rounds per instance decode
    # every class-local pair; the whole-instance product stays sampled
    # (criteria 1-3, 100 random rounds per instance).
    instances = rounds = 0
    first_bad = None
    for params in acceptance_grid:
        if params.msg_len != 1:
            continue
        layout = build_layout(params, 31)
        store = random_store(layout, 32)
        spaces = usi_choice_space(params.class_sizes, params.side_counts)
        pairs = [
            list(itertools.product(itertools.combinations(range(mu), k), space))
            for mu, k, space in zip(params.class_sizes, params.side_counts, spaces)
        ]
        for r in range(max(map(len, pairs))):
            chosen = [class_pairs[r % len(class_pairs)] for class_pairs in pairs]
            side = side_from_positions(layout, [held for held, _ in chosen])
            try:
                answer = usi_answer(
                    usi_query(0, side), store, selections=[choice for _, choice in chosen]
                )
                result = decode_answer(answer, side, held_messages(store, side))
                good = all(n >= 1 for n in result.new_from_class) and all(
                    store.message_for(lab) == tuple(sym) for lab, sym in result.decoded
                )
            except PpirError:
                good = False
            rounds += 1
            if not good and first_bad is None:
                first_bad = f"{params.class_sizes}/{params.side_counts} pairs {chosen}"
        instances += 1
    ok = first_bad is None and instances >= 800 and rounds >= 13_132
    _report(
        11,
        ok,
        f"every class-local (side subset, server choice) pair decoded bit-exact on "
        f"{instances} instances in {rounds} rounds"
        + (f"; first failure {first_bad}" if first_bad else ""),
    )

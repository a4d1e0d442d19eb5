"""The four benchmark workloads.

Each workload is closed loop with one client: the next operation starts when
the previous one has returned.  A workload builds its inputs from the seed in
`setup`, then `run_pass` executes its fixed set of operations once, timing
each call into ppir and checking every result it timed.  Checks run outside
the timed region; a failed check or an exception marks the operation failed.

Functions are reached through their modules (`model.sample_side_info`, not a
bare name) so that the traced run's rebinding sees every call.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from time import perf_counter

from ppir import audit, fields, harness, linalg, mds, model, picod, protocol, rates, wire
from ppir.model import InstanceParams

from tracer import bytes_per_symbol

GRID = {"grid": {"num_classes": [2, 3], "max_class_size": 5, "msg_len": [1, 4]}}
SMOKE_GRID = {"grid": {"num_classes": [2], "max_class_size": 3, "msg_len": [1, 4]}}


class Recorder:
    """Latencies per operation kind plus the correctness tally."""

    def __init__(self, tracer=None):
        self.tracer = tracer  # set on traced passes only
        self.latencies = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []  # first few (kind, reason) pairs
        self.counts = {}
        self.busy_s = 0.0
        self.op_seconds = []  # every operation, in order

    def _note(self, kind, seconds):
        self.attempted += 1
        self.busy_s += seconds
        self.op_seconds.append(seconds)
        self.latencies.setdefault(kind, []).append(seconds)

    def _fail(self, kind, reason):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append((kind, reason))

    def ok(self, kind, seconds, checks):
        """Record one timed operation; checks is a list of (name, passed)."""
        self._note(kind, seconds)
        bad = [name for name, passed in checks if not passed]
        if bad:
            self._fail(kind, "failed checks: " + ", ".join(bad))
            return False
        return True

    def error(self, kind, seconds, exc):
        self._note(kind, seconds)
        self._fail(kind, f"{type(exc).__name__}: {exc}")

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount


def clear_program_caches():
    """Drop ppir's process-wide caches so every set-up starts cold."""
    mds.make_mds.cache_clear()
    fields.make_field.cache_clear()
    fields.canonical_modulus.cache_clear()


def build_codes(params_list, demand=1):
    """Construct every parity-branch code an instance list needs."""
    for params in params_list:
        for mu, k in zip(params.class_sizes, params.side_counts):
            if protocol.class_plan(mu, k, demand)[0] == "parity":
                mds.make_mds(2 * mu - k, mu, params.q)


def timed(rec, kind, fn, *args, **kwargs):
    """Call fn and return (result, seconds); on an exception record it, return None.

    On a traced pass the call is the root span of its own trace.
    """
    tracer = rec.tracer
    start = perf_counter()
    try:
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            tracer.trace_id += 1
            result = tracer.call("bench." + kind, True, fn, *args, **kwargs)
    except Exception as exc:  # a program failure is a failed operation, not a crash
        rec.error(kind, perf_counter() - start, exc)
        return None
    return result, perf_counter() - start


# --- grid-rounds ----------------------------------------------------------------


class GridRounds:
    name = "grid-rounds"
    latency = ("round", "round", 1e6, "us")  # op kind prefix, metric prefix, scale, unit

    def setup(self, seed, smoke):
        clear_program_caches()
        config = harness.config_from_dict(SMOKE_GRID if smoke else GRID)
        build_codes(config.instances)
        plan = []
        for params in config.instances:
            plan.append((
                params,
                harness.instance_id(params),
                protocol.expected_download_rows(params.class_sizes, params.side_counts)
                * params.msg_len,
                rates.usi_capacity(params.class_sizes, params.side_counts),
            ))
        return {"seed": seed, "plan": plan}

    def run_pass(self, state, index, rec):
        seed = state["seed"]
        for params, iid, download, capacity in state["plan"]:
            out = timed(
                rec, "round", harness.run_trial,
                params, harness.trial_seed(seed, iid, index), "usi", 1, 1,
            )
            if out is None:
                continue
            record, seconds = out
            rec.ok("round", seconds, [
                ("run_trial", record.success),
                ("download", record.download_symbols == download),
                ("rate", record.rate == capacity),
            ])

    def summary(self, rec, pass_s):
        lat = rec.latencies.get("round", [])
        return {"rounds_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s")}


# --- bulk-payload ---------------------------------------------------------------

# L per field: long enough that MDS encode/decode dominates a round's self time
BULK_L = {257: 2000, 65536: 1000, 256: 4000}
SMOKE_L = 8

# name, class sizes, side counts, q, scheme, demand
BULK_SHAPES = (
    ("usi-30-20-q257", (20, 20, 3), (10, 10, 0), 257, "usi", 1),
    ("usi-30-20-q65536", (20, 20, 3), (10, 10, 0), 65536, "usi", 1),
    ("usi-8-5-q256", (5, 5), (2, 2), 256, "usi", 1),
    ("fsi-13-8-q257", (3,) * 8, (1, 1, 1, 1, 0, 0, 0, 0), 257, "fsi", 1),
    ("musi-30-20-q257", (20, 20, 3), (10, 10, 0), 257, "musi", 2),
)


def _parse_answer(blob):
    return wire.answer_from_json(json.loads(blob))


def _parse_side(blob):
    return wire.side_from_json(json.loads(blob))


def _parse_query(blob):
    return wire.query_from_json(json.loads(blob))


class BulkPayload:
    name = "bulk-payload"
    latency = ("bulk:", "bulk_round", 1e3, "ms")

    def setup(self, seed, smoke):
        clear_program_caches()
        worlds = []
        for name, sizes, counts, q, scheme, demand in BULK_SHAPES:
            length = SMOKE_L if smoke else BULK_L[q]
            params = InstanceParams(sizes, counts, msg_len=length, q=q)
            world_seed = harness.trial_seed(seed, "bulk-world:" + name, 0)
            layout = model.build_layout(params, world_seed)
            store = model.random_store(layout, world_seed + 1)
            gamma = params.num_classes
            if scheme == "fsi":
                mds.make_mds(2 * gamma - sum(1 for k in counts if k) + 1, gamma, q)
            else:
                build_codes([params], demand)
            worlds.append({
                "name": name, "params": params, "layout": layout, "store": store,
                "scheme": scheme, "demand": demand,
                "width": bytes_per_symbol(q),
            })
        return {"seed": seed, "worlds": worlds}

    def run_pass(self, state, index, rec):
        for world in state["worlds"]:
            rng = random.Random(harness.trial_seed(state["seed"], world["name"], index))
            if world["scheme"] == "fsi":
                self._fsi_round(world, rng, rec, "bulk:" + world["name"])
            else:
                self._usi_round(world, rng, rec, "bulk:" + world["name"])

    def _usi_round(self, world, rng, rec, kind):
        params, store, demand = world["params"], world["store"], world["demand"]
        gamma = params.num_classes

        def serve():
            side = model.sample_side_info(world["layout"], rng)
            values = model.held_messages(store, side)
            v = rng.randrange(gamma)
            query = protocol.usi_query(v, side, demand=demand)
            answer = protocol.usi_answer(query, store, rng)
            blob = wire.canonical_bytes(wire.answer_to_json(answer))
            side_blob = wire.canonical_bytes(wire.side_to_json(side, values))
            got = _parse_answer(blob)
            got_side, got_values = _parse_side(side_blob)
            result = protocol.decode_answer(got, got_side, got_values, demand=demand)
            return v, answer, got, result, len(blob) + len(side_blob)

        out = timed(rec, kind, serve)
        if out is None:
            return
        (v, answer, got, result, wire_in), seconds = out
        rec.add("wire_bytes_in", wire_in)
        rows = protocol.expected_download_rows(params.class_sizes, params.side_counts, demand)
        rate = protocol.achieved_rate(got, params.msg_len)
        if demand == 1:
            rate_ok = rate == rates.usi_capacity(params.class_sizes, params.side_counts)
        else:
            rate_ok = demand * rate == rates.multi_rate(
                params.class_sizes, params.side_counts, demand, 1
            )
        exact = all(store.message_for(lab) == tuple(sym) for lab, sym in result.decoded)
        if rec.ok(kind, seconds, [
            ("wire_roundtrip", got == answer),
            ("download", protocol.download_cost(got) == rows * params.msg_len),
            ("rate", rate_ok),
            ("new_from_desired", result.new_from_class[v] >= demand),
            ("bit_exact", exact),
        ]):
            rec.add("payload_bytes", len(result.decoded) * params.msg_len * world["width"])

    def _fsi_round(self, world, rng, rec, kind):
        params, store, layout = world["params"], world["store"], world["layout"]
        gamma = params.num_classes

        def serve():
            side = model.sample_side_info(layout, rng)
            pos_side = model.positional_side_info(layout, side)
            values = {
                lab: store.messages[layout.class_members[lab[0]][lab[1]]]
                for lab in pos_side.label_set
            }
            v = rng.randrange(gamma)
            query = protocol.fsi_query(v, pos_side, params.class_sizes, rng)
            answer = protocol.fsi_answer(query, store)
            query_blob = wire.canonical_bytes(wire.query_to_json(query))
            blob = wire.canonical_bytes(wire.answer_to_json(answer))
            side_blob = wire.canonical_bytes(wire.side_to_json(pos_side, values))
            got_query = _parse_query(query_blob)
            got = _parse_answer(blob)
            got_side, got_values = _parse_side(side_blob)
            result = protocol.fsi_decode(got, got_query, got_side, got_values, v)
            return v, query, answer, got, result, len(query_blob) + len(blob) + len(side_blob)

        out = timed(rec, kind, serve)
        if out is None:
            return
        (v, query, answer, got, result, wire_in), seconds = out
        rec.add("wire_bytes_in", wire_in)
        eta = query.known_count + 1
        exact = all(
            store.messages[layout.class_members[i][p]] == tuple(sym)
            for (i, p), sym in result.decoded
        )
        if rec.ok(kind, seconds, [
            ("wire_roundtrip", got == answer),
            ("download", protocol.download_cost(got) == (gamma - eta + 1) * params.msg_len),
            ("rate", protocol.achieved_rate(got, params.msg_len) == rates.fsi_rate(gamma, eta)),
            ("new_from_desired", result.new_from_class[v] >= 1),
            ("bit_exact", exact),
        ]):
            rec.add("payload_bytes", len(result.decoded) * params.msg_len * world["width"])

    def summary(self, rec, pass_s):
        busy = sum(s for kind, v in rec.latencies.items() if kind.startswith("bulk:") for s in v)
        payload = rec.counts.get("payload_bytes", 0)
        return {"payload_MBps": (payload / 1e6 / busy if busy else 0.0, "MB/s")}


# --- privacy-audit --------------------------------------------------------------

AUDIT_CAP = 20_000
AUDIT_PER_PROFILE = 2  # largest instances per profile: uncoded-heavy, parity-heavy
STAT_TRIALS = 10_000


def _audit_instances(instances, cap, per_profile):
    """Largest msg_len=1 instances under the cap, half of each profile.

    Uncoded-heavy means most classes take the uncoded branch (server
    randomness enumerated), parity-heavy means most take the parity branch.
    """
    ranked = []
    for params in instances:
        if params.msg_len != 1:
            continue
        layout = model.build_layout(params, 0)
        work = audit.exact_audit_work(layout)
        if work > cap:
            continue
        uncoded = sum(
            1 for mu, k in zip(params.class_sizes, params.side_counts)
            if protocol.class_plan(mu, k)[0] == "uncoded"
        )
        ranked.append((work, params.class_sizes, params.side_counts, params, 2 * uncoded > params.num_classes))
    ranked.sort(key=lambda r: (-r[0], r[1], r[2]))
    chosen = []
    for heavy_uncoded in (True, False):
        chosen += [r[3] for r in ranked if r[4] == heavy_uncoded][:per_profile]
    return chosen


class TimingServer(audit.UsiServer):
    """Honest server that counts and times its answer builds."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.builds = 0
        self.answers = set()

    def answer_for(self, query, store, choice, v=None, side=None):
        answer = self.tracer.call(
            "audit.answer_for", False, super().answer_for, query, store, choice, v=v, side=side
        )
        self.builds += 1
        self.answers.add(answer)
        return answer


class PrivacyAudit:
    name = "privacy-audit"
    latency = None

    def setup(self, seed, smoke):
        clear_program_caches()
        config = harness.config_from_dict(SMOKE_GRID if smoke else GRID)
        cap = 2_000 if smoke else AUDIT_CAP
        chosen = _audit_instances(config.instances, cap, 1 if smoke else AUDIT_PER_PROFILE)
        exact = []
        for params in chosen:
            s = harness.trial_seed(seed, "audit:" + harness.instance_id(params), 0)
            store = model.random_store(model.build_layout(params, s), s + 1)
            exact.append((store, audit.exact_audit_work(store.layout)))
        build_codes(chosen)
        s = harness.trial_seed(seed, "audit-mutants", 0)
        mutant_store = model.random_store(
            model.build_layout(InstanceParams((4, 2), (0, 1), q=3), s), s + 1
        )
        build_codes([mutant_store.layout.params])
        stat_layout = model.build_layout(
            InstanceParams((10, 10), (1, 0), msg_len=1, q=2),
            harness.trial_seed(seed, "audit-statistical", 0),
        )
        return {
            "seed": seed, "cap": cap, "exact": exact, "mutant_store": mutant_store,
            "stat_layout": stat_layout, "stat_trials": 200 if smoke else STAT_TRIALS,
        }

    def run_pass(self, state, index, rec):
        tracer = rec.tracer
        for store, work in state["exact"]:
            server = TimingServer(tracer) if tracer else None
            out = timed(rec, "exact", audit.audit_exact, store, server=server, cap=state["cap"])
            if out is None:
                continue
            verdict, seconds = out
            if rec.ok("exact", seconds, [
                ("passed", verdict.passed),
                ("tv_zero", verdict.answer_tv_distance == 0),
                ("query_invariant", verdict.query_invariant),
            ]):
                rec.add("audit_triples", work)
                rec.add("audit_exact_s", seconds)
            if server is not None:
                rec.add("audit_answer_builds", server.builds)
                rec.add("audit_distinct_answers", len(server.answers))
        for cls in audit.MUTANT_SERVERS:
            out = timed(rec, "mutant", audit.audit_exact, state["mutant_store"], server=cls())
            if out is not None:
                verdict, seconds = out
                rec.ok("mutant", seconds, [("mutant_caught", not verdict.passed)])
        server = TimingServer(tracer) if tracer else None
        out = timed(
            rec, "statistical", audit.audit_statistical, state["stat_layout"],
            state["stat_trials"], harness.trial_seed(state["seed"], "stat-trials", index),
            server=server,
        )
        if out is not None:
            verdict, seconds = out
            if rec.ok("statistical", seconds, [
                ("passed", verdict.passed),
                ("mi_below_threshold", verdict.mi_estimate < verdict.mi_threshold),
                ("query_invariant", verdict.query_invariant),
            ]):
                rec.add("stat_trials", verdict.trials)
                rec.add("stat_s", seconds)

    def summary(self, rec, pass_s):
        exact_s = rec.counts.get("audit_exact_s", 0.0)
        stat_s = rec.counts.get("stat_s", 0.0)
        return {
            "audit_triples_per_s": (rec.counts.get("audit_triples", 0) / exact_s if exact_s else 0.0, "1/s"),
            "stat_audit_trials_per_s": (rec.counts.get("stat_trials", 0) / stat_s if stat_s else 0.0, "1/s"),
        }


# --- converse -------------------------------------------------------------------

SEARCH_FIELDS = ((2, 5), (3, 4))  # (q, largest f searched), as scripts/converse_scan.py
SMOKE_SEARCH_FIELDS = ((2, 3), (3, 3))
SEARCH_BUDGET = 2_000_000


def converse_shapes(max_messages):
    """Every ordered class-size split of f <= max_messages, every side profile."""
    for f in range(2, max_messages + 1):
        for gamma in range(2, f + 1):
            for split in itertools.combinations(range(1, f), gamma - 1):
                sizes = tuple(b - a for a, b in zip((0,) + split, split + (f,)))
                for counts in itertools.product(*[range(mu) for mu in sizes]):
                    yield sizes, counts


class Converse:
    name = "converse"
    latency = None

    def setup(self, seed, smoke):
        clear_program_caches()
        searches = []
        for q, max_f in SMOKE_SEARCH_FIELDS if smoke else SEARCH_FIELDS:
            for sizes, counts in converse_shapes(max_f):
                inst = picod.instance_from_params(InstanceParams(sizes, counts, q=q))
                searches.append((inst, picod.broadcast_lower_bound(inst)))
        config = harness.config_from_dict(SMOKE_GRID if smoke else GRID)
        grid = [p for p in config.instances if p.msg_len == 1]
        build_codes(grid)
        return {"seed": seed, "searches": searches, "grid": grid}

    def run_pass(self, state, index, rec):
        for inst, bound in state["searches"]:
            out = timed(rec, "search", self._search, inst, bound)
            if out is None:
                continue
            (result, cert), seconds = out
            if rec.ok("search", seconds, [
                ("found", result.found),
                ("min_length_is_bound", result.min_length == bound),
                ("certificate", cert.ok and cert.rank_floor == bound),
            ]):
                rec.add("candidates_examined", result.examined)
                rec.add("search_s", seconds)
                rec.add("certificate_search_fallbacks", cert.strategy == "search")
        seed = state["seed"]
        for params in state["grid"]:
            s = harness.trial_seed(seed, "converse:" + harness.instance_id(params), index)
            out = timed(rec, "scheme_certificate", self._scheme_check, params, s)
            if out is None:
                continue
            (matrix, rank, satisfied, cert, bound), seconds = out
            if rec.ok("scheme_certificate", seconds, [
                ("all_clients", satisfied),
                ("length_is_bound", matrix.length == bound),
                ("rank_is_bound", rank == bound),
                ("certificate", cert.ok and cert.rank_floor == bound),
                ("collected", len(cert.collected) >= bound),
            ]):
                rec.add("certificate_search_fallbacks", cert.strategy == "search")

    @staticmethod
    def _search(inst, bound):
        result = picod.min_code_length_bruteforce(inst, bound, budget=SEARCH_BUDGET)
        return result, picod.rank_lower_bound_certificate(result.witness, inst)

    @staticmethod
    def _scheme_check(params, seed):
        """Criterion 5 on one instance: scheme answer -> matrix -> checks."""
        rng = random.Random(seed)
        layout = model.build_layout(params, rng)
        store = model.random_store(layout, rng)
        side = model.sample_side_info(layout, rng)
        answer = protocol.usi_answer(protocol.usi_query(0, side), store, rng)
        matrix = picod.answer_to_encoding_matrix(answer, layout)
        inst = picod.PicodInstance(
            layout.class_members, params.side_counts, params.num_classes, params.q
        )
        bound = picod.broadcast_lower_bound(inst)
        satisfied = picod.all_clients_satisfied(matrix, inst)
        cert = picod.rank_lower_bound_certificate(matrix, inst)
        return matrix, matrix.rank(), satisfied, cert, bound

    def summary(self, rec, pass_s):
        return {"converse_s": (pass_s, "s")}  # time to the certified minimum for the whole set


WORKLOADS = {w.name: w for w in (GridRounds(), BulkPayload(), PrivacyAudit(), Converse())}


def trace_targets(observe_answer, observe_bytes):
    """Functions the traced run times: (module, attr, span name, record, hook).

    Names start with the layer.  Hot calls are aggregated, not recorded.
    """
    this = sys.modules[__name__]
    spans = [
        (harness, "run_trial", "harness.run_trial"),
        (model, "build_layout", "model.build_layout"),
        (model, "random_store", "model.random_store"),
        (model, "sample_side_info", "model.sample_side_info"),
        (model, "held_messages", "model.held_messages"),
        (model, "positional_side_info", "model.positional_side_info"),
        (model, "enumerate_side_info_sets", "model.enumerate_side_info_sets"),
        (protocol, "usi_query", "protocol.query.usi"),
        (protocol, "fsi_query", "protocol.query.fsi"),
        (protocol, "fsi_answer", "protocol.answer.fsi"),
        (protocol, "decode_answer", "protocol.decode.usi"),
        (protocol, "fsi_decode", "protocol.decode.fsi"),
        (audit, "audit_exact", "audit.audit_exact"),
        (audit, "audit_statistical", "audit.audit_statistical"),
        (picod, "min_code_length_bruteforce", "picod.search"),
        (picod, "rank_lower_bound_certificate", "picod.certificate"),
        (picod, "all_clients_satisfied", "picod.all_clients_satisfied"),
        (picod, "answer_to_encoding_matrix", "picod.answer_to_encoding_matrix"),
    ]
    hot = [
        (linalg, "echelon", "linalg.echelon"),
        (picod, "client_satisfied", "picod.client_satisfied"),
        (wire, "answer_to_json", "wire.encode.answer"),
        (wire, "side_to_json", "wire.encode.side"),
        (wire, "query_to_json", "wire.encode.query"),
        (wire, "answer_from_json", "wire.decode.answer"),
        (wire, "side_from_json", "wire.decode.side"),
        (wire, "query_from_json", "wire.decode.query"),
        (this, "_parse_answer", "wire.decode.json"),
        (this, "_parse_side", "wire.decode.json"),
        (this, "_parse_query", "wire.decode.json"),
    ]
    targets = [(m, a, n, True, None) for m, a, n in spans]
    targets += [(m, a, n, False, None) for m, a, n in hot]
    targets.append((protocol, "usi_answer", "protocol.answer.usi", True, observe_answer))
    targets.append((wire, "canonical_bytes", "wire.encode.bytes", False, observe_bytes))
    return targets

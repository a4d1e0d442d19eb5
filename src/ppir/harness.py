"""Batch experiment driver: seeded trials over instance grids, reports, replay.

A run takes an ExperimentConfig (usually loaded from a YAML file), executes
`trials` seeded protocol rounds per instance, checks the exact download
cost, rate and recovery on every round, and optionally attaches converse
oracle results and privacy audit verdicts.  Reports are written as JSON
and/or CSV; given the same config and master seed the report bytes are
identical run to run (trial seeds derive from a stable hash, wall-clock
times never enter the files).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import jsonschema
import yaml

from . import picod
from .audit import audit_exact, audit_statistical
from .errors import ConfigError, EnumerationCapError, ParameterError, SearchBudgetError
from .fields import next_prime
from .model import (
    InstanceParams,
    as_rng,
    build_layout,
    held_messages,
    positional_side_info,
    random_store,
    sample_side_info,
)
from .protocol import (
    achieved_rate,
    decode_answer,
    download_cost,
    expected_download_rows,
    fsi_answer,
    fsi_decode,
    fsi_query,
    usi_answer,
    usi_query,
)
from .rates import fsi_rate, multi_rate, usi_capacity
from .wire import answer_from_json, query_from_json, side_from_json

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "scheme": {"enum": ["usi", "fsi", "musi"]},
        "demand": {"type": "integer", "minimum": 1},
        "num_desired": {"type": "integer", "minimum": 1},
        "trials": {"type": "integer", "minimum": 0},
        "msg_len": {"type": "integer", "minimum": 1},
        "instances": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["class_sizes", "side_counts"],
                "properties": {
                    "class_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2},
                    "side_counts": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "q": {"type": "integer", "minimum": 2},
                    "msg_len": {"type": "integer", "minimum": 1},
                },
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "num_classes": {"type": "array", "items": {"type": "integer", "minimum": 2}},
                "max_class_size": {"type": "integer", "minimum": 1},
                "msg_len": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            },
            "required": ["num_classes", "max_class_size"],
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "budget": {"type": "integer", "minimum": 1},
                "l_max": {"type": "integer", "minimum": 1},
            },
        },
        "audit": {"enum": ["off", "exact", "statistical"]},
        "audit_trials": {"type": "integer", "minimum": 1},
        "audit_cap": {"type": "integer", "minimum": 1},
        "output": {"type": "string"},
        "format": {"enum": ["json", "csv", "both"]},
        "include_records": {"type": "boolean"},
    },
}


def auto_field_size(class_sizes, side_counts, demand: int = 1) -> int:
    """Smallest prime covering every parity-branch code length."""
    need = 2
    for mu, k in zip(class_sizes, side_counts):
        if k + demand >= mu - k:
            need = max(need, 2 * mu - k)
    return next_prime(need)


@dataclass(frozen=True)
class ExperimentConfig:
    instances: tuple[InstanceParams, ...]
    scheme: str = "usi"
    demand: int = 1
    num_desired: int = 1
    trials: int = 100
    master_seed: int = 0
    oracle_enabled: bool = False
    oracle_budget: int = 2_000_000
    oracle_l_max: int = 4
    audit_mode: str = "off"
    audit_trials: int = 10_000
    audit_cap: int = 50_000
    output: str | None = None
    formats: tuple[str, ...] = ("json",)
    include_records: bool = True


def grid_instances(grid: dict, msg_lens, demand: int):
    """Deduplicated grid: sorted (size, count) multisets per class count.

    grid holds `num_classes` (a list) and `max_class_size`; every class of
    every instance can yield `demand` new messages.
    """
    out = []
    sizes = range(1, grid["max_class_size"] + 1)
    for gamma in grid["num_classes"]:
        pairs = [(mu, k) for mu in sizes for k in range(mu)]
        for combo in itertools.combinations_with_replacement(pairs, gamma):
            class_sizes = tuple(mu for mu, _ in combo)
            side_counts = tuple(k for _, k in combo)
            if any(mu < k + demand for mu, k in combo):
                continue
            q = auto_field_size(class_sizes, side_counts, demand)
            for msg_len in msg_lens:
                out.append(
                    InstanceParams(class_sizes, side_counts, msg_len=msg_len, q=q)
                )
    return out


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message}") from exc
    demand = doc.get("demand", 1)
    msg_len = doc.get("msg_len", 1)
    instances = []
    for item in doc.get("instances", []):
        class_sizes = tuple(item["class_sizes"])
        side_counts = tuple(item["side_counts"])
        for mu, k in zip(class_sizes, side_counts):
            if mu == k:
                raise ConfigError(
                    f"instance {item} has a fully held class (size {mu} = side count): "
                    "the mixed-side-information regime has no constructive scheme; "
                    "use the capacity calculator's conjecture bounds instead"
                )
        q = item.get("q") or auto_field_size(class_sizes, side_counts, demand)
        try:
            instances.append(
                InstanceParams(
                    class_sizes,
                    side_counts,
                    msg_len=item.get("msg_len", msg_len),
                    q=q,
                )
            )
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
    if "grid" in doc:
        instances.extend(
            grid_instances(doc["grid"], doc["grid"].get("msg_len", [msg_len]), demand)
        )
    if not instances:
        raise ConfigError("no instances configured")
    oracle = doc.get("oracle", {})
    fmt = doc.get("format", "json")
    return ExperimentConfig(
        instances=tuple(instances),
        scheme=doc.get("scheme", "usi"),
        demand=demand,
        num_desired=doc.get("num_desired", 1),
        trials=doc.get("trials", 100),
        master_seed=doc.get("seed", 0),
        oracle_enabled=oracle.get("enabled", False),
        oracle_budget=oracle.get("budget", 2_000_000),
        oracle_l_max=oracle.get("l_max", 4),
        audit_mode=doc.get("audit", "off"),
        audit_trials=doc.get("audit_trials", 10_000),
        audit_cap=doc.get("audit_cap", 50_000),
        output=doc.get("output"),
        formats=("json", "csv") if fmt == "both" else (fmt,),
        include_records=doc.get("include_records", True),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a mapping")
    return config_from_dict(doc)


def instance_id(params: InstanceParams) -> str:
    return "c{}-s{}-L{}-q{}".format(
        "x".join(map(str, params.class_sizes)),
        "x".join(map(str, params.side_counts)),
        params.msg_len,
        params.q,
    )


def trial_seed(master_seed: int, instance: str, index: int) -> int:
    blob = f"{master_seed}:{instance}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big")


@dataclass
class TrialRecord:
    instance: str
    index: int
    seed: int
    desired: tuple[int, ...]
    download_symbols: int
    rate: Fraction
    new_from_class: tuple[int, ...]
    success: bool

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "index": self.index,
            "seed": self.seed,
            "desired": list(self.desired),
            "download_symbols": self.download_symbols,
            "rate": {"num": self.rate.numerator, "den": self.rate.denominator},
            "new_from_class": list(self.new_from_class),
            "success": self.success,
        }


def run_trial(params: InstanceParams, seed: int, scheme: str, demand: int, num_desired: int):
    """One seeded protocol round; raises on any contract violation."""
    rng = as_rng(seed)
    layout = build_layout(params, rng)
    store = random_store(layout, rng)
    side = sample_side_info(layout, rng)
    gamma = params.num_classes
    if scheme == "fsi":
        pos_side = positional_side_info(layout, side)
        values = {
            lab: store.messages[layout.class_members[lab[0]][lab[1]]]
            for lab in pos_side.label_set
        }
        v = rng.randrange(gamma)
        desired = (v,)
        query = fsi_query(v, pos_side, params.class_sizes, rng)
        answer = fsi_answer(query, store)
        eta = query.known_count + 1
        expected = (gamma - eta + 1) * params.msg_len
        result = fsi_decode(answer, query, pos_side, values, v)
        pick_label = (v, query.picks[v])
        got = dict(result.decoded)[pick_label]
        truth = store.messages[layout.class_members[v][query.picks[v]]]
        ok = got == truth and download_cost(answer) == expected
        rate = achieved_rate(answer, params.msg_len)
        ok = ok and rate == fsi_rate(gamma, eta)
    else:
        values = held_messages(store, side)
        if scheme == "musi":
            desired = tuple(sorted(rng.sample(range(gamma), num_desired)))
        else:
            desired = (rng.randrange(gamma),)
        query = usi_query(desired[0], side, demand=demand)
        answer = usi_answer(query, store, rng)
        expected = expected_download_rows(params.class_sizes, params.side_counts, demand) * params.msg_len
        result = decode_answer(answer, side, values, demand=demand)
        ok = download_cost(answer) == expected
        ok = ok and all(n >= demand for n in result.new_from_class)
        ok = ok and result.total_new <= params.num_messages - params.total_side
        for lab, symbols in result.decoded:
            ok = ok and store.message_for(lab) == tuple(symbols)
        rate = achieved_rate(answer, params.msg_len)
        if demand == 1:
            ok = ok and rate == usi_capacity(params.class_sizes, params.side_counts)
        else:
            ok = ok and Fraction(demand * num_desired) * rate == multi_rate(
                params.class_sizes, params.side_counts, demand, num_desired
            )
    return TrialRecord(
        instance=instance_id(params),
        index=-1,
        seed=seed,
        desired=desired,
        download_symbols=download_cost(answer),
        rate=rate,
        new_from_class=result.new_from_class,
        success=ok,
    )


def _oracle_section(params: InstanceParams, config: ExperimentConfig, seed: int) -> dict:
    inst = picod.instance_from_params(params)
    lower = picod.broadcast_lower_bound(inst)
    upper = picod.broadcast_upper_bound(
        params.num_messages, params.total_side, inst.demand_classes
    )
    section = {"lower_bound": lower, "upper_bound": upper, "sandwich_ok": lower <= upper}
    rng = as_rng(seed)
    layout = build_layout(params, rng)
    store = random_store(layout, rng)
    side = sample_side_info(layout, rng)
    answer = usi_answer(usi_query(0, side, config.demand), store, rng)
    matrix = picod.answer_to_encoding_matrix(answer, layout)
    inst_layout = picod.PicodInstance(
        layout.class_members, params.side_counts, params.num_classes, params.q
    )
    section["answer_columns"] = matrix.length
    section["answer_rank"] = matrix.rank()
    section["answer_satisfies_all_clients"] = picod.all_clients_satisfied(matrix, inst_layout)
    cert = picod.rank_lower_bound_certificate(matrix, inst_layout)
    section["certificate_ok"] = cert.ok
    section["certificate_rank_floor"] = cert.rank_floor
    if config.demand == 1:
        try:
            search = picod.min_code_length_bruteforce(
                inst, config.oracle_l_max, budget=config.oracle_budget
            )
            section["bruteforce"] = search.to_json()
            if search.found:
                section["bruteforce_matches_bound"] = search.min_length == lower
        except SearchBudgetError as exc:
            section["bruteforce"] = {
                "skipped": str(exc),
                "exhausted_lengths": list(exc.exhausted_lengths),
            }
    return section


def _audit_section(params: InstanceParams, config: ExperimentConfig, seed: int) -> dict:
    rng = as_rng(seed)
    layout = build_layout(params, rng)
    if config.audit_mode == "exact":
        store = random_store(layout, rng)
        try:
            verdict = audit_exact(store, cap=config.audit_cap, demand=config.demand)
        except EnumerationCapError as exc:
            return {"skipped": str(exc)}
        doc = verdict.to_json()
        doc.pop("tv_table", None)
        return doc
    verdict = audit_statistical(
        layout, config.audit_trials, rng, demand=config.demand
    )
    return verdict.to_json()


def run_experiment(config: ExperimentConfig):
    """Execute the configured trials; returns (report_dict, all_passed)."""
    report_instances = []
    all_ok = True
    for params in config.instances:
        iid = instance_id(params)
        records = []
        failures = 0
        for t in range(config.trials):
            seed = trial_seed(config.master_seed, iid, t)
            record = run_trial(params, seed, config.scheme, config.demand, config.num_desired)
            record.index = t
            records.append(record)
            if not record.success:
                failures += 1
                all_ok = False
        if config.scheme == "fsi":
            capacity = None
        else:
            capacity = usi_capacity(params.class_sizes, params.side_counts)
        summary = {
            "instance": iid,
            "class_sizes": list(params.class_sizes),
            "side_counts": list(params.side_counts),
            "msg_len": params.msg_len,
            "q": params.q,
            "trials": config.trials,
            "failures": failures,
            "download_symbols": sorted({r.download_symbols for r in records}) if records else [],
            "rates": sorted({str(r.rate) for r in records}) if records else [],
        }
        if capacity is not None:
            summary["capacity"] = str(capacity)
            if config.scheme == "usi" and records:
                summary["rate_equals_capacity"] = all(
                    r.rate == capacity for r in records
                )
                all_ok = all_ok and summary["rate_equals_capacity"]
        if config.oracle_enabled:
            oracle = _oracle_section(params, config, trial_seed(config.master_seed, iid, -1))
            summary["oracle"] = oracle
            all_ok = all_ok and oracle.get("sandwich_ok", True)
            all_ok = all_ok and oracle.get("answer_satisfies_all_clients", True)
            all_ok = all_ok and oracle.get("certificate_ok", True)
        if config.audit_mode != "off":
            audit = _audit_section(params, config, trial_seed(config.master_seed, iid, -2))
            summary["audit"] = audit
            if "verdict" in audit:
                all_ok = all_ok and audit["verdict"] == "pass"
        if config.include_records:
            summary["records"] = [r.to_json() for r in records]
        elif failures:
            summary["failing_records"] = [
                r.to_json() for r in records if not r.success
            ]
        report_instances.append(summary)
    report = {
        "config": {
            "scheme": config.scheme,
            "demand": config.demand,
            "num_desired": config.num_desired,
            "trials": config.trials,
            "seed": config.master_seed,
            "instances": [instance_id(p) for p in config.instances],
        },
        "instances": report_instances,
        "all_passed": all_ok,
    }
    return report, all_ok


def report_csv(report: dict) -> str:
    fields = [
        "instance", "class_sizes", "side_counts", "msg_len", "q", "trials",
        "failures", "download_symbols", "capacity", "rates", "rate_equals_capacity",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for inst in report["instances"]:
        row = dict(inst)
        row["class_sizes"] = "x".join(map(str, inst["class_sizes"]))
        row["side_counts"] = "x".join(map(str, inst["side_counts"]))
        row["download_symbols"] = "|".join(map(str, inst["download_symbols"]))
        row["rates"] = "|".join(inst["rates"])
        writer.writerow(row)
    return buf.getvalue()


def write_report(report: dict, out_dir, formats) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out / "report.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        written.append(path)
    if "csv" in formats:
        path = out / "report.csv"
        path.write_text(report_csv(report))
        written.append(path)
    return written


def replay(query_path, answer_path, side_path, desired: int | None = None):
    """Deterministically re-decode serialized wire files."""
    with open(query_path) as fh:
        query = query_from_json(json.load(fh))
    with open(answer_path) as fh:
        answer = answer_from_json(json.load(fh))
    with open(side_path) as fh:
        side, values = side_from_json(json.load(fh))
    if query.scheme == "fsi":
        if desired is None:
            raise ParameterError("fsi replay needs the desired class")
        return fsi_decode(answer, query, side, values, desired)
    result = decode_answer(answer, side, values, demand=query.demand)
    if desired is not None and not 0 <= desired < len(result.new_from_class):
        raise ParameterError(
            f"desired class {desired} is outside 0..{len(result.new_from_class) - 1}"
        )
    return result

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
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import yaml

from .errors import (
    ConfigError,
    EnumerationCapError,
    FieldConstructionError,
    ParameterError,
    SearchBudgetError,
    UnsupportedParametersError,
    WireFormatError,
)
from .fields import next_prime
from .model import (
    InstanceParams,
    as_rng,
    build_layout,
    held_messages,
    positional_side_info,
    random_store,
    sample_positions,
    sample_side_info,
)
from .protocol import (
    achieved_rate,
    auto_field_size,
    decode_answer,
    download_cost,
    fsi_answer,
    fsi_decode,
    fsi_query,
    longest_code_length,
    usi_answer,
    usi_query,
)
from .rates import expected_download_rows, fsi_rate, multi_rate, usi_capacity
from .wire import answer_from_json, query_from_json, side_from_json

def _integer(minimum):
    def check(value, path):
        # bool is an int subclass and 2.0 compares equal to 2; neither is an integer here
        if type(value) is not int or value < minimum:
            raise ConfigError(f"{path} must be an integer >= {minimum}, got {value!r}")

    return check


def _typed(kind, name):
    def check(value, path):
        if type(value) is not kind:
            raise ConfigError(f"{path} must be {name}, got {value!r}")

    return check


def _one_of(*choices):
    def check(value, path):
        if value not in choices:
            raise ConfigError(f"{path} must be one of {list(choices)}, got {value!r}")

    return check


def _list_of(item, min_items=0):
    def check(value, path):
        if type(value) is not list or len(value) < min_items:
            raise ConfigError(f"{path} must be a list of at least {min_items} items, got {value!r}")
        for i, element in enumerate(value):
            item(element, f"{path}[{i}]")

    return check


def _mapping(fields, required=()):
    def check(value, path):
        if type(value) is not dict:
            raise ConfigError(f"{path} must be a mapping, got {value!r}")
        prefix = "" if path == "config" else path + "."
        for key in value:
            if key not in fields:
                raise ConfigError(f"{prefix}{key} is not a known key")
        for key in required:
            if key not in value:
                raise ConfigError(f"{prefix}{key} is required")
        for key, element in value.items():
            fields[key](element, prefix + key)

    return check


_BOOL = _typed(bool, "true or false")
# checks `ppir run`'s flags share with the config keys they override
_SEED = _integer(0)
_TRIALS = _integer(0)
_BUDGET = _integer(1)


def _audit_trials(value, path):
    from .audit import MIN_TRIALS  # here: importing the harness does not load the audit

    _integer(MIN_TRIALS)(value, path)


_CHECK_CONFIG = _mapping(
    {
        "seed": _SEED,
        "scheme": _one_of("usi", "fsi", "musi"),
        "demand": _integer(1),
        "num_desired": _integer(1),
        "trials": _TRIALS,
        "msg_len": _integer(1),
        "instances": _list_of(
            _mapping(
                {
                    "class_sizes": _list_of(_integer(1), min_items=2),
                    "side_counts": _list_of(_integer(0)),
                    "q": _integer(2),
                    "msg_len": _integer(1),
                },
                required=("class_sizes", "side_counts"),
            )
        ),
        "grid": _mapping(
            {
                "num_classes": _list_of(_integer(2)),
                "max_class_size": _integer(1),
                "msg_len": _list_of(_integer(1)),
            },
            required=("num_classes", "max_class_size"),
        ),
        "oracle": _mapping({"enabled": _BOOL, "budget": _BUDGET, "l_max": _integer(1)}),
        "audit": _one_of("off", "exact", "statistical"),
        "audit_trials": _audit_trials,
        "audit_cap": _integer(1),
        "output": _typed(str, "a string"),
        "format": _one_of("json", "csv", "both"),
        "include_records": _BOOL,
    }
)


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked run; config_from_dict builds it and states every default."""

    instances: tuple[InstanceParams, ...]
    scheme: str
    demand: int
    num_desired: int
    trials: int
    master_seed: int
    oracle_enabled: bool
    oracle_budget: int
    oracle_l_max: int
    audit_mode: str
    audit_trials: int
    audit_cap: int
    output: str | None
    formats: tuple[str, ...]
    include_records: bool


def grid_instances(grid: dict, msg_lens, demand: int, scheme: str = "usi"):
    """Deduplicated grid: sorted (size, count) multisets per class count.

    grid holds `num_classes` (a list) and `max_class_size`; q fits `scheme`.
    Instances that `longest_code_length` refuses, with a class short of
    `demand` new messages, are left out, for fsi too: the oracle section
    sends a usi answer at that demand.
    """
    out = []
    sizes = range(1, grid["max_class_size"] + 1)
    for gamma in grid["num_classes"]:
        pairs = [(mu, k) for mu in sizes for k in range(mu)]
        for combo in itertools.combinations_with_replacement(pairs, gamma):
            class_sizes = tuple(mu for mu, _ in combo)
            side_counts = tuple(k for _, k in combo)
            try:
                q = auto_field_size(class_sizes, side_counts, demand, scheme)
            except UnsupportedParametersError:
                continue
            for msg_len in msg_lens:
                out.append(
                    InstanceParams(class_sizes, side_counts, msg_len=msg_len, q=q)
                )
    return out


def config_from_dict(doc: dict) -> ExperimentConfig:
    if type(doc) is dict and doc.get("audit") is False:
        doc = {**doc, "audit": "off"}  # YAML 1.1 reads an unquoted `off` as false
    _CHECK_CONFIG(doc, "config")
    demand = doc.get("demand", 1)
    scheme = doc.get("scheme", "usi")
    if scheme == "fsi" and doc.get("audit") == "statistical":
        raise ConfigError(
            "scheme fsi has no statistical audit; use audit: exact (query marginal) or off"
        )
    msg_len = doc.get("msg_len", 1)
    instances = []
    for n, item in enumerate(doc.get("instances", [])):
        class_sizes = tuple(item["class_sizes"])
        side_counts = tuple(item["side_counts"])
        try:
            need = longest_code_length(class_sizes, side_counts, demand, scheme)
            q = item.get("q") or next_prime(need)
            params = InstanceParams(
                class_sizes, side_counts, msg_len=item.get("msg_len", msg_len), q=q
            )
        except FieldConstructionError as exc:
            raise ConfigError(f"instances[{n}].q: {exc}") from exc
        except ParameterError as exc:
            raise ConfigError(f"instances[{n}]: {exc}") from exc
        if q < need:
            raise ConfigError(
                f"instances[{n}].q: q={q} is below {need}, the longest code "
                f"the {scheme} scheme needs for this instance"
            )
        instances.append(params)
    if "grid" in doc:
        instances.extend(
            grid_instances(doc["grid"], doc["grid"].get("msg_len", [msg_len]), demand, scheme)
        )
    if not instances:
        raise ConfigError("no instances configured")
    num_desired = doc.get("num_desired", 1)
    fewest = min(p.num_classes for p in instances)
    if scheme == "musi" and num_desired > fewest:
        raise ConfigError(
            f"num_desired {num_desired} exceeds the {fewest} classes of an instance"
        )
    oracle = doc.get("oracle", {})
    fmt = doc.get("format", "json")
    return ExperimentConfig(
        instances=tuple(instances),
        scheme=scheme,
        demand=demand,
        num_desired=num_desired,
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


# `ppir run` flag -> (the ExperimentConfig field it sets, its config key's check)
_RUN_FLAGS = {
    "--seed": ("master_seed", _SEED),
    "--trials": ("trials", _TRIALS),
    "--budget": ("oracle_budget", _BUDGET),
}


def run_flag_overrides(values: dict) -> dict:
    """ExperimentConfig fields for the `ppir run` flags in `values` that are set.

    Each value passes the check of the config key it overrides, under the
    flag's name, so `--trials -3` is a ConfigError as `trials: -3` is.
    """
    out = {}
    for flag, value in values.items():
        if value is not None:
            field, check = _RUN_FLAGS[flag]
            check(value, flag)
            out[field] = value
    return out


def load_config(path) -> ExperimentConfig:
    try:
        # binary, so that PyYAML decodes and a bad encoding is a YAMLError
        with open(path, "rb") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
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
    """One round's outcome; failed_checks names each check of run_trial it failed."""

    instance: str
    index: int
    seed: int
    desired: tuple[int, ...]
    download_symbols: int
    rate: Fraction
    new_from_class: tuple[int, ...]
    success: bool
    failed_checks: tuple[str, ...] = ()  # stderr only, never in report.json

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


@lru_cache(maxsize=4096)
def _instance_plan(params: InstanceParams, scheme: str, demand: int, num_desired: int):
    """run_trial's per-instance constants: id, download, rate and unheld count.

    An fsi round's download and rate follow from its query, so both are None.
    The bound covers a 1,600-instance grid swept one round per instance.
    """
    unheld = params.num_messages - params.total_side
    if scheme == "fsi":
        return instance_id(params), None, None, unheld
    sizes, counts = params.class_sizes, params.side_counts
    if demand == 1:
        rate = usi_capacity(sizes, counts)
    else:
        rate = multi_rate(sizes, counts, demand, num_desired) / (demand * num_desired)
    download = expected_download_rows(sizes, counts, demand) * params.msg_len
    return instance_id(params), download, rate, unheld


def run_trial(params: InstanceParams, seed: int, scheme: str, demand: int, num_desired: int):
    """One seeded protocol round; raises on any contract violation.

    Every check runs on every round: cost and rate against the closed forms,
    new_count (each class yields `demand` new messages), total_new (no more
    than the unheld messages) and bit_exact (decoded symbols equal the
    store's); an fsi round has no new_count or total_new check.
    """
    iid, download, target_rate, unheld = _instance_plan(params, scheme, demand, num_desired)
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
        result = fsi_decode(answer, query, pos_side, values, v)
        got = dict(result.decoded)[(v, query.picks[v])]
        truth = store.messages[layout.class_members[v][query.picks[v]]]
        cost = download_cost(answer)
        rate = achieved_rate(answer, params.msg_len)
        checks = (
            ("cost", cost == (gamma - eta + 1) * params.msg_len),
            ("rate", rate == fsi_rate(gamma, eta)),
            ("bit_exact", got == truth),
        )
    else:
        values = held_messages(store, side)
        if scheme == "musi":
            desired = sample_positions(rng, gamma, num_desired)
        else:
            desired = (rng.randrange(gamma),)
        query = usi_query(desired[0], side, demand=demand)
        answer = usi_answer(query, store, rng)
        result = decode_answer(answer, side, values, demand=demand)
        cost = download_cost(answer)
        rate = achieved_rate(answer, params.msg_len)
        message_for = store.message_for
        checks = (
            ("cost", cost == download),
            ("rate", rate == target_rate),
            ("new_count", all(n >= demand for n in result.new_from_class)),
            ("total_new", result.total_new <= unheld),
            ("bit_exact", all(message_for(lab) == tuple(sym) for lab, sym in result.decoded)),
        )
    failed = tuple(name for name, ok in checks if not ok)
    return TrialRecord(
        instance=iid,
        index=-1,
        seed=seed,
        desired=desired,
        download_symbols=cost,
        rate=rate,
        new_from_class=result.new_from_class,
        success=not failed,
        failed_checks=failed,
    )


def _oracle_section(params: InstanceParams, config: ExperimentConfig, seed: int) -> dict:
    from . import picod

    inst = picod.instance_from_params(params)
    lower = picod.broadcast_lower_bound(inst)
    upper = picod.broadcast_upper_bound(
        params.num_messages, params.total_side, inst.demand_classes
    )
    section = {"lower_bound": lower, "upper_bound": upper, "sandwich_ok": lower <= upper}
    try:
        inst.check_family_cap()
    except EnumerationCapError as exc:
        section["skipped"] = str(exc)
        return section
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
    from .audit import audit_exact, audit_fsi_query_exact, audit_statistical

    rng = as_rng(seed)
    layout = build_layout(params, rng)
    if config.audit_mode == "exact":
        try:
            if config.scheme == "fsi":
                verdict = audit_fsi_query_exact(layout, cap=config.audit_cap)
            else:
                store = random_store(layout, rng)
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
    """Execute the configured trials; returns (report_dict, all_passed).

    Each failing trial gets one stderr line naming its failed checks; the
    report itself does not carry them.
    """
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
                print(
                    f"failed: {iid} trial {t} (seed {seed}): "
                    + ", ".join(record.failed_checks),
                    file=sys.stderr,
                )
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


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise WireFormatError(f"cannot read {path}: {exc}") from exc


def replay(query_path, answer_path, side_path, desired: int | None = None):
    """Deterministically re-decode serialized wire files."""
    query = query_from_json(_read_json(query_path))
    answer = answer_from_json(_read_json(answer_path))
    side, values = side_from_json(_read_json(side_path))
    if query.scheme == "fsi":
        if desired is None:
            raise ParameterError("fsi replay needs the desired class")
        return fsi_decode(answer, query, side, values, desired)
    if query.side_counts != side.per_class_counts:  # the usi decode never reads them
        raise WireFormatError(
            f"query side_counts {list(query.side_counts)} contradict the side "
            f"document's per_class_counts {list(side.per_class_counts)}"
        )
    result = decode_answer(answer, side, values, demand=query.demand)
    if desired is not None and not 0 <= desired < len(result.new_from_class):
        raise ParameterError(
            f"desired class {desired} is outside 0..{len(result.new_from_class) - 1}"
        )
    return result

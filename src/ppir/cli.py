"""Command-line interface.

Subcommands: run (experiment config), capacity (rate calculators), oracle
(bounds, brute-force minimum length, certificate), audit (privacy), replay
(decode serialized wire files).  Exit codes: 0 pass, 1 assertion failure
(`run` names each failing trial's checks on stderr), 2 configuration or
format error, which covers every error `replay` raises and an instance the
command-line parameters cannot describe, 3 internal error (an exception
that is not a `PpirError`, reported on one line), 141 when the reader of
stdout closed it early (128 + SIGPIPE, as a shell reports a pipe writer the
signal ended), with nothing on stderr.  Each subcommand imports
only the modules it uses, so `capacity` starts without loading the
protocol, oracle, audit or config machinery.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    ConfigError,
    EnumerationCapError,
    FieldConstructionError,
    ParameterError,
    PpirError,
    SearchBudgetError,
    WireFormatError,
)


def int_list(text: str):
    """argparse type for "3,3": a malformed list is a usage error (exit 2)."""
    return tuple(int(x) for x in text.split(",") if x != "")


def _from_flags(build, *args, **kwargs):
    """build(*args, **kwargs) on command-line values: a ParameterError is bad input."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _params_from_args(args):
    from .model import InstanceParams
    from .protocol import auto_field_size

    q = args.q
    if q is None:
        q = _from_flags(auto_field_size, args.class_sizes, args.side_counts)
    try:
        return _from_flags(
            InstanceParams, args.class_sizes, args.side_counts, msg_len=args.msg_len, q=q
        )
    except FieldConstructionError as exc:
        raise ConfigError(f"--q: {exc}") from exc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_run(args) -> int:
    from .harness import load_config, report_csv, run_experiment, run_flag_overrides, write_report

    config = load_config(args.config)
    overrides = run_flag_overrides(
        {"--seed": args.seed, "--trials": args.trials, "--budget": args.budget}
    )
    if args.out is not None:
        overrides["output"] = args.out
    if args.format is not None:
        overrides["formats"] = ("json", "csv") if args.format == "both" else (args.format,)
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    report, ok = run_experiment(config)
    if config.output:
        for path in write_report(report, config.output, config.formats):
            print(f"wrote {path}")
    elif "csv" in config.formats:
        sys.stdout.write(report_csv(report))
    else:
        _emit(report)
    return 0 if ok else 1


def cmd_capacity(args) -> int:
    from .rates import msi_rate_bounds, rate_report

    class_sizes, side_counts = args.class_sizes, args.side_counts
    # rate_report refuses mismatched lengths, as every other bad shape
    if len(side_counts) == len(class_sizes) and any(
        mu == k for mu, k in zip(class_sizes, side_counts)
    ):
        identified = sum(1 for mu, k in zip(class_sizes, side_counts) if mu == k)
        lo, hi = _from_flags(
            msi_rate_bounds, sum(class_sizes), sum(side_counts), len(class_sizes), identified
        )
        _emit(
            {
                "regime": "mixed-side-information",
                "status": "CONJECTURE",
                "rate_lower": {"num": lo.numerator, "den": lo.denominator},
                "rate_upper": {"num": hi.numerator, "den": hi.denominator},
                "identified": identified,
            }
        )
        return 0
    report = _from_flags(
        rate_report,
        class_sizes,
        side_counts,
        identified=args.identified,
        demand=args.demand,
        num_desired=args.num_desired,
    )
    _emit(report.to_json())
    return 0


def cmd_oracle(args) -> int:
    from . import picod

    floors = (("--t", args.t, 1), ("--l-max", args.l_max, 1), ("--budget", args.budget, 0))
    for flag, value, least in floors:
        if value is not None and value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    params = _params_from_args(args)
    t = params.num_classes if args.t is None else args.t
    inst = _from_flags(picod.instance_from_params, params, demand_classes=t)
    lower = picod.broadcast_lower_bound(inst)
    upper = picod.broadcast_upper_bound(params.num_messages, params.total_side, t)
    doc = {
        "instance": {
            "class_sizes": list(params.class_sizes),
            "side_counts": list(params.side_counts),
            "q": params.q,
            "demand_classes": t,
        },
        "lower_bound": lower,
        "upper_bound": upper,
        "generic_min_field_size": picod.generic_min_field_size(params.num_messages),
    }
    ok = lower <= upper
    exhausted = ()
    if not args.skip_search:
        try:
            search = picod.min_code_length_bruteforce(
                inst, lower if args.l_max is None else args.l_max, budget=args.budget
            )
            print(
                f"search: checked {search.checked} of {search.examined} candidates, "
                f"pruned {search.pruned} prefixes, {search.group_elements} group elements",
                file=sys.stderr,
            )
            doc["bruteforce"] = search.to_json()
            exhausted = search.exhausted_lengths
            if search.found:
                doc["bruteforce_matches_bound"] = search.min_length == lower
                ok = ok and search.min_length == lower
                cert = picod.rank_lower_bound_certificate(search.witness, inst)
                doc["certificate"] = cert.to_json()
                ok = ok and cert.ok
        except SearchBudgetError as exc:
            doc["bruteforce"] = {
                "skipped": str(exc),
                "exhausted_lengths": list(exc.exhausted_lengths),
            }
            exhausted = exc.exhausted_lengths
    if upper in exhausted:
        # the search found no length-`upper` code, so q is below the field the bound needs
        ok = False
        print(
            f"upper bound {upper} refuted over GF({params.q}): the generic upper bound "
            f"needs q >= {doc['generic_min_field_size']}",
            file=sys.stderr,
        )
    _emit(doc)
    return 0 if ok else 1


def cmd_audit(args) -> int:
    from .audit import MIN_TRIALS, MUTANT_SERVERS, audit_exact, audit_statistical
    from .model import build_layout, random_store
    from .protocol import longest_code_length

    for flag, value, least in (("--trials", args.trials, MIN_TRIALS), ("--cap", args.cap, 1)):
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    params = _params_from_args(args)
    # here, not in _params_from_args: oracle searches a field below the scheme's on purpose
    need = longest_code_length(params.class_sizes, params.side_counts)
    if params.q < need:
        raise ConfigError(
            f"--q: q={params.q} is below {need}, the longest code the usi scheme "
            "needs for this instance"
        )
    layout = build_layout(params, args.seed)
    server = None
    if args.mutant:
        by_name = {cls.name: cls for cls in MUTANT_SERVERS}
        if args.mutant not in by_name:
            raise ConfigError(
                f"unknown mutant {args.mutant!r}; have {sorted(by_name)}"
            )
        server = by_name[args.mutant]()
    if args.mode == "exact":
        store = random_store(layout, args.seed + 1)
        try:
            verdict = audit_exact(store, server=server, cap=args.cap)
        except EnumerationCapError as exc:  # the audit --cap asks for cannot run
            raise ConfigError(str(exc)) from exc
        notes, effort = verdict.notes, verdict.effort
        print(
            f"audit: work {notes['work']} of cap {args.cap}, {notes['pairs']} (v, S) pairs, "
            f"{effort['lists_counted']} answer lists counted, "
            f"{effort['distinct_answers']} distinct answers",
            file=sys.stderr,
        )
    else:
        verdict = audit_statistical(
            layout, args.trials, args.seed + 1, server=server
        )
    doc = verdict.to_json()
    if args.mode == "exact" and len(doc.get("tv_table", [])) > 50:
        doc["tv_table"] = doc["tv_table"][:50] + ["... truncated"]
    _emit(doc)
    return 0 if verdict.passed else 1


def cmd_replay(args) -> int:
    from .harness import replay

    result = replay(args.query, args.answer, args.side, desired=args.desired)
    _emit(
        {
            "new_from_class": list(result.new_from_class),
            "decoded": [
                {"label": list(lab), "symbols": list(sym)}
                for lab, sym in result.decoded
            ],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppir",
        description="Pliable private retrieval with side information: simulator and calculators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="YAML config path")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--format", choices=["json", "csv", "both"])
    p_run.add_argument("--budget", type=int)
    p_run.set_defaults(func=cmd_run)

    p_cap = sub.add_parser("capacity", help="exact rate calculators")
    p_cap.add_argument("--class-sizes", type=int_list, required=True)
    p_cap.add_argument("--side-counts", type=int_list, required=True)
    p_cap.add_argument("--identified", type=int, default=None)
    p_cap.add_argument("--demand", type=int, default=1)
    p_cap.add_argument("--num-desired", type=int, default=1)
    p_cap.set_defaults(func=cmd_capacity)

    p_oracle = sub.add_parser("oracle", help="converse bounds and brute-force search")
    p_oracle.add_argument("--class-sizes", type=int_list, required=True)
    p_oracle.add_argument("--side-counts", type=int_list, required=True)
    p_oracle.add_argument("--q", type=int, default=None)
    p_oracle.add_argument("--msg-len", type=int, default=1)
    p_oracle.add_argument("--t", type=int, default=None)
    p_oracle.add_argument("--l-max", type=int, default=None)
    p_oracle.add_argument("--budget", type=int, default=2_000_000)
    p_oracle.add_argument("--skip-search", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_audit = sub.add_parser("audit", help="privacy audit")
    p_audit.add_argument("--class-sizes", type=int_list, required=True)
    p_audit.add_argument("--side-counts", type=int_list, required=True)
    p_audit.add_argument("--q", type=int, default=None)
    p_audit.add_argument("--msg-len", type=int, default=1)
    p_audit.add_argument("--mode", choices=["exact", "statistical"], default="exact")
    p_audit.add_argument("--trials", type=int, default=10_000)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--cap", type=int, default=50_000)
    p_audit.add_argument("--mutant", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_replay = sub.add_parser("replay", help="re-decode serialized wire files")
    p_replay.add_argument("--query", required=True)
    p_replay.add_argument("--answer", required=True)
    p_replay.add_argument("--side", required=True)
    p_replay.add_argument("--desired", type=int, default=None)
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`ppir run cfg.yaml | head -1`): not a bug.
        # Point stdout at devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except PpirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # replay's only inputs are its files, so anything it rejects is a format error
        if isinstance(exc, (ConfigError, WireFormatError)) or args.func is cmd_replay:
            return 2
        return 1
    except Exception as exc:  # a bug, not bad input: one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

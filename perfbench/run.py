#!/usr/bin/env python3
"""ppir benchmark: four closed-loop workloads, one client, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-rounds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The program is imported from ./src of the checkout; without it the run
fails with exit code 2 before measuring anything.  A run sets up its
workload several times (median reported as setup_s), then executes whole
passes over the workload's fixed operation set until --seconds have
elapsed, checking every timed result.  With --trace 1 passes alternate
between untraced and traced, the traced ones giving the per-layer numbers
and the tracing overhead.  Human-readable lines and a detail JSON line come
first; the last line of stdout is the summary object
{"correct", "attempted", "failed", "metrics"}.  Spans of traced runs are
written to .perfbench_out/ in the checkout.  Any failed check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 5
CLI_RUNS = 16  # cold starts per run; one sample is noisy (±15 % on a shared 2-CPU box)
IMPORTTIME_RUNS = 5
CLI_ARGS = ["capacity", "--class-sizes", "3,3", "--side-counts", "1,1"]

# workload-specific metrics that smoke mode requires (beyond the shared ones)
NAMED_E2E = {
    "grid-rounds": ["rounds_per_s", "round_p50_us", "round_p99_us", "cli_cold_start_ms"],
    "bulk-payload": ["payload_MBps", "bulk_round_p50_ms"],
    "privacy-audit": ["audit_triples_per_s", "stat_audit_trials_per_s"],
    "converse": ["converse_s"],
}
SHARED_E2E = ["setup_s", "peak_rss_MB", "error_rate"]
NAMED_LAYER = [
    "fields.mac_Mps.prime", "fields.mac_Mps.binary", "fields.bytes_moved_MB",
    "linalg.echelon_calls", "linalg.echelon_s",
    "mds.encode_MBps", "mds.decode_MBps", "mds.encode_s", "mds.decode_s",
    "mds.code_cache_hit_ratio", "mds.pattern_reuse_ratio",
    "model.world_s", "model.world_share",
    "protocol.query_s", "protocol.answer_s", "protocol.decode_s", "protocol.parity_share",
    "harness.verify_s",
    "wire.encode_s", "wire.bytes_out", "wire.decode_s", "wire.parse_MBps",
    "audit.triples", "audit.answer_builds", "audit.build_ratio", "audit.distinct_answers",
    "audit.answer_s", "audit.self_s",
    "picod.candidates_examined", "picod.candidates_per_s", "picod.client_checks",
    "picod.certificate_s", "picod.certificate_search_fallbacks",
    "cli.import_ms", "cli.jsonschema_import_ms",
    "trace.overhead_pct",
]


LAYERS = ("bench", "harness", "model", "protocol", "mds", "linalg", "wire", "audit", "picod")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program source to import)."""


def load_program():
    src = ROOT / "src"
    if not (src / "ppir" / "__init__.py").is_file():
        raise SetupError(f"no program source at {src / 'ppir'}")
    sys.path.insert(0, str(src))
    import ppir

    if Path(ppir.__file__).resolve().parent != (src / "ppir").resolve():
        raise SetupError(f"imported ppir from {ppir.__file__}, not from {src}")


# --- statistics -------------------------------------------------------------------


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values):
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        beyond = n - max(1, math.ceil(p / 100 * n))
        if beyond >= 10:
            return p, percentile(ordered, p), beyond
    return 100, ordered[-1], 0


def metric(value, unit, **extra):
    doc = {"value": value, "unit": unit}
    doc.update(extra)
    return doc


def latency_metrics(prefix, seconds, scale, unit):
    """p50 and p99 plus the tail rule's percentile, each with its sample count."""
    if not seconds:
        return {}
    ordered = sorted(seconds)
    n = len(ordered)
    p, value, beyond = tail(ordered)
    p99_beyond = n - max(1, math.ceil(0.99 * n))
    return {
        f"{prefix}_p50_{unit}": metric(statistics.median(ordered) * scale, unit, samples=n),
        f"{prefix}_p99_{unit}": metric(
            percentile(ordered, 99) * scale, unit, samples=n, samples_beyond=p99_beyond
        ),
        f"{prefix}_tail_{unit}": metric(
            value * scale, unit, percentile=p, samples=n, samples_beyond=beyond
        ),
    }


# --- the command-line program, measured as a user starts it ------------------------


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_cold_start():
    """Wall time (ms) of one fresh-interpreter `ppir.cli capacity` run, and a problem or None."""
    from ppir import rates

    want = rates.usi_capacity((3, 3), (1, 1))
    cmd = [sys.executable, "-m", "ppir.cli", *CLI_ARGS]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_cli_env(), capture_output=True, text=True, timeout=120)
    elapsed_ms = (perf_counter() - start) * 1e3
    try:
        cap = json.loads(proc.stdout)["capacity"]
        good = proc.returncode == 0 and (cap["num"], cap["den"]) == (want.numerator, want.denominator)
    except (ValueError, KeyError, TypeError):
        good = False
    if good:
        return elapsed_ms, None
    return elapsed_ms, f"cli capacity: exit {proc.returncode}, stderr {proc.stderr[-200:]!r}"


def cli_import_times(runs):
    """Median cumulative import time (ms) of ppir.cli and of jsonschema."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import ppir.cli"]
    found = {"ppir.cli": [], "jsonschema": []}
    for _ in range(runs):
        proc = subprocess.run(cmd, cwd=ROOT, env=_cli_env(), capture_output=True, text=True, timeout=120)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                try:
                    found[parts[2].strip()].append(int(parts[1]) / 1e3)
                except ValueError:
                    continue
    medians = {name: statistics.median(v) if v else 0.0 for name, v in found.items()}
    medians["runs"] = runs
    return medians


# --- one run ----------------------------------------------------------------------------


def stamp(seed, workload, trace):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ppir").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def git_sha():
    """HEAD of a git checkout, read from .git without running git; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(tracer, account, rec, traced_passes, answers, wire_out, cache_delta, cli, overhead):
    """Per-layer numbers from the traced passes, per pass where absolute."""
    per = 1 / traced_passes
    busy = tracer.sum_total_s("bench.")

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    mds_prime = tracer.sum_self_s("mds.encode.prime") + tracer.sum_self_s("mds.decode.prime")
    mds_binary = tracer.sum_self_s("mds.encode.binary") + tracer.sum_self_s("mds.decode.binary")
    encode_s = tracer.sum_self_s("mds.encode")
    decode_s = tracer.sum_self_s("mds.decode")
    wire_decode_s = tracer.sum_self_s("wire.decode")
    hits, misses = cache_delta
    triples = rec.counts.get("audit_triples", 0)
    builds = rec.counts.get("audit_answer_builds", 0)
    examined = rec.counts.get("candidates_examined", 0)
    world_s = tracer.sum_self_s("model.")
    computed = {"computed": True}
    return {
        "fields.mac_Mps.prime": metric(rate(account.macs["prime"] / 1e6, mds_prime), "MMAC/s", **computed),
        "fields.mac_Mps.binary": metric(rate(account.macs["binary"] / 1e6, mds_binary), "MMAC/s", **computed),
        "fields.bytes_moved_MB": metric(account.bytes_moved / 1e6 * per, "MB/pass", **computed),
        "linalg.echelon_calls": metric(tracer.calls["linalg.echelon"] * per, "count/pass"),
        "linalg.echelon_s": metric(tracer.total_s["linalg.echelon"] * per, "s/pass"),
        "mds.encode_MBps": metric(rate(account.encode_bytes / 1e6, encode_s), "MB/s"),
        "mds.decode_MBps": metric(rate(account.decode_bytes / 1e6, decode_s), "MB/s"),
        "mds.encode_s": metric(encode_s * per, "s/pass"),
        "mds.decode_s": metric(decode_s * per, "s/pass"),
        "mds.code_cache_hit_ratio": metric(rate(hits, hits + misses), "ratio"),
        "mds.pattern_reuse_ratio": metric(rate(account.pattern_repeats, account.decode_calls), "ratio"),
        "model.world_s": metric(world_s * per, "s/pass"),
        "model.world_share": metric(rate(world_s, busy), "ratio"),
        "protocol.query_s": metric(tracer.sum_self_s("protocol.query") * per, "s/pass"),
        "protocol.answer_s": metric(tracer.sum_self_s("protocol.answer") * per, "s/pass"),
        "protocol.decode_s": metric(tracer.sum_self_s("protocol.decode") * per, "s/pass"),
        "protocol.parity_share": metric(rate(answers["parity"], answers["parity"] + answers["uncoded"]), "ratio"),
        "harness.verify_s": metric(tracer.self_s["harness.run_trial"] * per, "s/pass"),
        "wire.encode_s": metric(tracer.sum_self_s("wire.encode") * per, "s/pass"),
        "wire.bytes_out": metric(wire_out[0] * per, "count/pass"),
        "wire.decode_s": metric(wire_decode_s * per, "s/pass"),
        "wire.parse_MBps": metric(rate(rec.counts.get("wire_bytes_in", 0) / 1e6, wire_decode_s), "MB/s"),
        "audit.triples": metric(triples * per, "count/pass"),
        "audit.answer_builds": metric(builds * per, "count/pass"),
        "audit.build_ratio": metric(rate(builds, triples), "ratio"),
        "audit.distinct_answers": metric(rec.counts.get("audit_distinct_answers", 0) * per, "count/pass"),
        "audit.answer_s": metric(tracer.total_s["audit.answer_for"] * per, "s/pass"),
        "audit.self_s": metric(tracer.sum_self_s("audit.") * per, "s/pass"),
        "picod.candidates_examined": metric(examined * per, "count/pass"),
        "picod.candidates_per_s": metric(rate(examined, tracer.total_s["picod.search"]), "1/s"),
        "picod.client_checks": metric(tracer.calls["picod.client_satisfied"] * per, "count/pass"),
        "picod.certificate_s": metric(tracer.total_s["picod.certificate"] * per, "s/pass"),
        "picod.certificate_search_fallbacks": metric(
            rec.counts.get("certificate_search_fallbacks", 0) * per, "count/pass"
        ),
        "cli.import_ms": metric(cli["ppir.cli"], "ms", samples=cli["runs"]),
        "cli.jsonschema_import_ms": metric(cli["jsonschema"], "ms", samples=cli["runs"]),
        "trace.overhead_pct": metric(overhead, "%"),
        "trace.layer_coverage": metric(rate(busy - tracer.sum_self_s("bench."), busy), "ratio"),
        "trace.layer_self_s": {
            "value": {layer: tracer.sum_self_s(layer + ".") * per for layer in LAYERS},
            "unit": "s/pass",
        },
    }


def run_workload(name, seed, seconds, trace, smoke=False):
    """Set up, measure and check one workload; returns the detail document."""
    from tracer import Instrumented, KernelAccount, Tracer

    import workloads
    from ppir import mds

    wl = workloads.WORKLOADS[name]
    setup_times = []
    for _ in range(1 if smoke else SETUP_REPS):
        start = perf_counter()
        state = wl.setup(seed, smoke)
        setup_times.append(perf_counter() - start)

    tracer = Tracer()
    account = KernelAccount()
    answers = {"parity": 0, "uncoded": 0}
    wire_out = [0]

    def observe_answer(answer):
        for payload in answer.payloads:
            answers[payload.mode] += 1

    def observe_bytes(blob):
        wire_out[0] += len(blob)

    instrument = Instrumented(
        tracer, account, workloads.trace_targets(observe_answer, observe_bytes), [workloads]
    )
    plain = workloads.Recorder()
    traced = workloads.Recorder(tracer)
    plain_passes, traced_passes = [], []
    pass_medians = []  # median operation latency of each untraced pass
    cache_before = mds.make_mds.cache_info()
    cli_runs = 2 if smoke else CLI_RUNS
    cli_times, cli_problems = [], []

    def sample_cli():
        elapsed_ms, problem = cli_cold_start()
        cli_times.append(elapsed_ms)
        if problem:
            cli_problems.append(problem)

    begin = perf_counter()
    index = 0
    while (
        perf_counter() - begin < seconds
        or not plain_passes
        or (trace and not traced_passes)
    ):
        # cold starts are spread over the run so they sample the same machine state as the passes
        while len(cli_times) < cli_runs and perf_counter() - begin >= len(cli_times) * seconds / cli_runs:
            sample_cli()
        if trace and index % 2 == 1:
            before = traced.busy_s
            with instrument:
                wl.run_pass(state, index, traced)
            traced_passes.append(traced.busy_s - before)
        else:
            before, first = plain.busy_s, len(plain.op_seconds)
            wl.run_pass(state, index, plain)
            plain_passes.append(plain.busy_s - before)
            pass_medians.append(statistics.median(plain.op_seconds[first:]))
        index += 1
    cache_after = mds.make_mds.cache_info()
    while len(cli_times) < cli_runs:
        sample_cli()
    measure_s = perf_counter() - begin
    attempted = plain.attempted + traced.attempted + len(cli_times)
    failed = plain.failed + traced.failed + len(cli_problems)
    failures = plain.failures + traced.failures + [("cli", p) for p in cli_problems]

    pass_s = statistics.median(plain_passes)
    e2e = {
        "setup_s": metric(statistics.median(setup_times), "s", samples=len(setup_times)),
        "pass_s": metric(pass_s, "s", samples=len(plain_passes)),
        "op_p50_ms": metric(
            statistics.median(pass_medians) * 1e3, "ms",
            samples=len(plain.op_seconds), statistic="median over passes of the pass median",
        ),
        "peak_rss_MB": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_cold_start_ms": metric(statistics.median(cli_times), "ms", samples=len(cli_times)),
        "error_rate": metric(failed / attempted, "ratio", attempted=attempted, failed=failed),
    }
    named = {n: metric(v, u) for n, (v, u) in wl.summary(plain, pass_s).items()}
    if wl.latency is not None:
        kinds, prefix, scale, unit = wl.latency
        samples = [s for kind, v in plain.latencies.items() if kind.startswith(kinds) for s in v]
        named.update(latency_metrics(prefix, samples, scale, unit))
    detail_metrics = {**e2e, **named}
    for kind, values in sorted(plain.latencies.items()):
        detail_metrics.update(latency_metrics("op." + kind, values, 1e3, "ms"))

    layers = {}
    trace_file = None
    if trace:
        overhead = 100 * (statistics.median(traced_passes) / pass_s - 1)
        cli = cli_import_times(2 if smoke else IMPORTTIME_RUNS)
        cache_delta = (cache_after.hits - cache_before.hits, cache_after.misses - cache_before.misses)
        layers = layer_metrics(
            tracer, account, traced, len(traced_passes), answers, wire_out, cache_delta, cli, overhead
        )
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
        doc = tracer.to_json()
        doc["stamp"] = stamp(seed, name, trace)
        trace_file.write_text(json.dumps(doc))
        detail_metrics.update(layers)
        detail_metrics["trace.untraced_pass_s"] = metric(pass_s, "s", samples=len(plain_passes))
        detail_metrics["trace.traced_pass_s"] = metric(
            statistics.median(traced_passes), "s", samples=len(traced_passes)
        )

    detail = {
        "stamp": stamp(seed, name, trace),
        "seconds": seconds,
        "measured_s": measure_s,
        "passes": {"untraced": len(plain_passes), "traced": len(traced_passes)},
        "closed_loop": {"clients": 1, "threads": 1},
        "msg_len_per_field": {str(q): l for q, l in workloads.BULK_L.items()} if name == "bulk-payload" else None,
        "metrics": detail_metrics,
        "checks": {"attempted": attempted, "failed": failed, "failures": failures},
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    return detail


def contract_summary(detail, trace):
    """The last stdout line: every end_to_end (or per_layer) metric of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = detail["metrics"]
    checks = detail["checks"]
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names},
    }


def print_detail(detail):
    for name, doc in detail["metrics"].items():
        extra = {k: v for k, v in doc.items() if k not in ("value", "unit")}
        value = doc["value"]
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else json.dumps(value)
        print(f"{detail['stamp']['workload']:14} {name:36} {shown} {doc['unit']:10} {json.dumps(extra) if extra else ''}")
    for kind, reason in detail["checks"]["failures"]:
        print(f"FAILED {kind}: {reason}", file=sys.stderr)
    print(json.dumps({"detail": detail}))


def smoke():
    """Every workload at minimal size, traced and untraced; checks names and error_rate."""
    problems = []
    for name in ("grid-rounds", "bulk-payload", "privacy-audit", "converse"):
        detail = run_workload(name, seed=0, seconds=0, trace=1, smoke=True)
        print_detail(detail)
        metrics = detail["metrics"]
        for want in SHARED_E2E + NAMED_E2E[name] + NAMED_LAYER:
            doc = metrics.get(want)
            if doc is None or not isinstance(doc.get("unit"), str) or not doc["unit"]:
                problems.append(f"{name}: metric {want} missing or without unit")
        contract_summary(detail, 0)  # raises KeyError on a missing end_to_end metric
        contract_summary(detail, 1)
        if metrics["error_rate"]["value"] != 0:
            problems.append(f"{name}: error_rate {metrics['error_rate']['value']}")
    for p in problems:
        print("SMOKE:", p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(NAMED_E2E))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes, all workloads, self-check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        load_program()
        if not (ROOT / "BENCHMARK.json").is_file():
            raise SetupError(f"no BENCHMARK.json at {ROOT}")
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_detail(detail)
    summary = contract_summary(detail, args.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark two revisions against each other and write a BENCH_<n>.json file.

Example, from the root of a git checkout:

    python3 scripts/bench.py --parent HEAD~1 --change HEAD --pairs 10 --out BENCH_6.json

Each revision is exported with `git archive` into .bench_build/<sha>/;
`--change WORKTREE` benchmarks the checkout itself, uncommitted edits
included.  For every workload of BENCHMARK.json the script runs
`perfbench/run.py` (untraced, for BENCHMARK.json's `run_seconds`) once per
side in each of `--pairs` pairs, both sides on the same seed, alternating
which side goes first.  The file
holds, per workload and metric, each side's median and quartiles, the
change/parent ratio of the medians and how many pairs the change won;
every run's summary metrics and `stamp` are kept under "runs".
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def checkout(rev: str) -> tuple[Path, str]:
    """Source directory and resolved name of a revision (or the work tree)."""
    if rev == "WORKTREE":
        return ROOT, "WORKTREE"
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest = BUILD / sha
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
    return dest, sha


def run_once(src: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its summary metrics, check counts and stamp."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=src, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {src}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: doc["value"] for name, doc in summary["metrics"].items()},
        "stamp": detail["stamp"],
    }


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent_runs, change_runs, spec) -> dict:
    """Per metric: both sides' spread, the median ratio and the change's pair wins."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [r["metrics"][name] for r in parent_runs]
        after = [r["metrics"][name] for r in change_runs]
        wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        p, c = spread(before), spread(after)
        ratio = c["median"] / p["median"] if p["median"] else None
        worse = None if ratio is None else (ratio - 1 if lower else 1 - ratio)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": p,
            "change": c,
            "change_over_parent": ratio,
            "change_wins": wins,
            "pairs": len(before),
            "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            "within_bound": worse is None or worse <= metric["bound"],
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision, or WORKTREE")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="pair i runs on seed + i")
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_6.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")

    sides = {"parent": checkout(args.parent), "change": checkout(args.change)}
    doc = {
        "revisions": {side: name for side, (_, name) in sides.items()},
        "pairs": args.pairs,
        "seconds": spec["run_seconds"],
        "seeds": [args.seed + i for i in range(args.pairs)],
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side][0], workload, args.seed + i, spec["run_seconds"]))
                last = runs[side][-1]
                print(f"{workload} pair {i} {side}: {json.dumps(last['metrics'])}", file=sys.stderr)
        doc["workloads"][workload] = {
            "metrics": compare(runs["parent"], runs["change"], spec),
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, result in doc["workloads"].items():
        for name, m in result["metrics"].items():
            print(
                f"{workload:14} {name:18} {m['parent']['median']:10.4g} -> {m['change']['median']:10.4g}"
                f"  wins {m['change_wins']}/{m['pairs']}  within bound: {m['within_bound']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

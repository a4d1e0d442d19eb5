#!/usr/bin/env python3
"""Exact privacy audits across a grid, plus mutant-server sanity checks.

Prints one line per enumerable instance (total-variation distance must be
exactly zero), then confirms each shipped mutant fails on a reference
instance, and ends with a summary line: instances audited and skipped,
mutants caught, and the seconds the grid's audits took.

Example:
    python3 scripts/privacy_sweep.py --max-class-size 4 --cap 20000
"""

import argparse
import sys
import time

from ppir.audit import MUTANT_SERVERS, audit_exact, exact_audit_work
from ppir.harness import grid_instances
from ppir.model import InstanceParams, build_layout, random_store


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-classes", type=int, nargs="+", default=[2])
    parser.add_argument("--max-class-size", type=int, default=4)
    parser.add_argument("--cap", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    failures = audited = skipped = caught = 0
    audit_s = 0.0
    grid = {"num_classes": args.num_classes, "max_class_size": args.max_class_size}
    for params in grid_instances(grid, (1,), 1):
        shape = f"{params.class_sizes}/{params.side_counts}"
        layout = build_layout(params, args.seed)
        work = exact_audit_work(layout)
        if work > args.cap:
            skipped += 1
            print(f"{shape}: skipped (work {work})")
            continue
        store = random_store(layout, args.seed + 1)
        started = time.perf_counter()
        verdict = audit_exact(store, cap=args.cap)
        audit_s += time.perf_counter() - started
        audited += 1
        if not verdict.passed:
            failures += 1
        print(f"{shape}: {verdict.verdict} tv={verdict.answer_tv_distance} work={work}")

    params = InstanceParams((4, 2), (0, 1), q=3)
    store = random_store(build_layout(params, args.seed + 2), args.seed + 3)
    for cls in MUTANT_SERVERS:
        verdict = audit_exact(store, server=cls())
        if verdict.passed:
            failures += 1
        else:
            caught += 1
        status = "MISSED" if verdict.passed else "caught"
        print(f"mutant {cls.name}: {status} (tv={verdict.answer_tv_distance})")
    print(
        f"summary: {audited} audited, {skipped} skipped, {caught} mutants caught, "
        f"audit {audit_s:.2f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Exact privacy audits across a grid, plus mutant-server sanity checks.

Prints one line per enumerable instance (total-variation distance must be
exactly zero) and then confirms each shipped mutant fails on a reference
instance.

Example:
    python3 scripts/privacy_sweep.py --max-class-size 4 --cap 20000
"""

import argparse
import sys

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

    failures = 0
    grid = {"num_classes": args.num_classes, "max_class_size": args.max_class_size}
    for params in grid_instances(grid, (1,), 1):
        shape = f"{params.class_sizes}/{params.side_counts}"
        layout = build_layout(params, args.seed)
        work = exact_audit_work(layout)
        if work > args.cap:
            print(f"{shape}: skipped (work {work})")
            continue
        verdict = audit_exact(random_store(layout, args.seed + 1), cap=args.cap)
        if not verdict.passed:
            failures += 1
        print(f"{shape}: {verdict.verdict} tv={verdict.answer_tv_distance} work={work}")

    params = InstanceParams((4, 2), (0, 1), q=3)
    store = random_store(build_layout(params, args.seed + 2), args.seed + 3)
    for cls in MUTANT_SERVERS:
        verdict = audit_exact(store, server=cls())
        caught = "caught" if not verdict.passed else "MISSED"
        if verdict.passed:
            failures += 1
        print(f"mutant {cls.name}: {caught} (tv={verdict.answer_tv_distance})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

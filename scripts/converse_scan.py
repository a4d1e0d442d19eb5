#!/usr/bin/env python3
"""Brute-force minimum broadcast length vs the closed-form bound on tiny instances.

Scans every class shape with at most --max-messages messages over the given
fields, prints one line per instance and a closing summary line (instances,
skipped, mismatches, the searches' summed checked and pruned counts, total
search seconds), and exits nonzero on any mismatch.
Every witness found also goes through `rank_lower_bound_certificate`; a
CertificateError counts as a mismatch.  The search space grows as
(q^f)^l, so keep f small.

Example:
    python3 scripts/converse_scan.py --max-messages 4 --fields 2 3
"""

import argparse
import itertools
import sys
import time

from ppir.cli import run_piped
from ppir.errors import CertificateError, SearchBudgetError
from ppir.model import InstanceParams
from ppir.picod import (
    broadcast_lower_bound,
    broadcast_upper_bound,
    instance_from_params,
    min_code_length_bruteforce,
    rank_lower_bound_certificate,
)


def shapes(max_messages):
    for f in range(2, max_messages + 1):
        for gamma in range(2, f + 1):
            for split in itertools.combinations(range(1, f), gamma - 1):
                sizes = tuple(
                    b - a for a, b in zip((0,) + split, split + (f,))
                )
                for counts in itertools.product(*[range(mu) for mu in sizes]):
                    yield sizes, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-messages", type=int, default=4)
    parser.add_argument("--fields", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--budget", type=int, default=2_000_000)
    args = parser.parse_args()

    searched = skipped = mismatches = checked = pruned = 0
    search_s = 0.0
    for sizes, counts in shapes(args.max_messages):
        for q in args.fields:
            instance = instance_from_params(InstanceParams(sizes, counts, q=q))
            lower = broadcast_lower_bound(instance)
            upper = broadcast_upper_bound(sum(sizes), sum(counts), len(sizes))
            searched += 1
            started = time.perf_counter()
            try:
                result = min_code_length_bruteforce(instance, lower, budget=args.budget)
            except SearchBudgetError as exc:
                search_s += time.perf_counter() - started
                skipped += 1
                print(f"{sizes} {counts} GF({q}): skipped ({exc})")
                continue
            elapsed = time.perf_counter() - started
            search_s += elapsed
            checked += result.checked
            pruned += result.pruned
            found = result.min_length if result.found else f">{lower}"
            status = "ok" if result.found and result.min_length == lower else "MISMATCH"
            if result.found:
                try:
                    rank_lower_bound_certificate(result.witness, instance)
                except CertificateError as exc:
                    status = f"MISMATCH (certificate: {exc})"
            if status != "ok":
                mismatches += 1
            print(
                f"{sizes} {counts} GF({q}): min={found} bound={lower} "
                f"upper={upper} examined={result.examined} checked={result.checked} "
                f"pruned={result.pruned} "
                f"({elapsed:.2f}s) {status}"
            )
    print(
        f"summary: {searched} shapes, {skipped} skipped, {mismatches} mismatches, "
        f"checked {checked}, pruned {pruned}, search {search_s:.2f}s"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(run_piped(main))

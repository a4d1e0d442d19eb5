#!/usr/bin/env python3
"""Sweep an instance grid and print a capacity/regime table as CSV.

Example:
    python3 scripts/rate_table.py --num-classes 2 3 --max-class-size 4
"""

import argparse
import csv
import sys

from ppir.cli import run_piped
from ppir.harness import grid_instances
from ppir.rates import rate_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-classes", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--max-class-size", type=int, default=4)
    args = parser.parse_args()

    writer = csv.DictWriter(
        sys.stdout,
        fieldnames=[
            "class_sizes",
            "side_counts",
            "capacity",
            "ppir_rate",
            "pir_si_rate",
            "regimes",
        ],
        lineterminator="\n",
    )
    writer.writeheader()
    grid = {"num_classes": args.num_classes, "max_class_size": args.max_class_size}
    for params in grid_instances(grid, (1,), 1):
        writer.writerow(rate_report(params.class_sizes, params.side_counts).csv_row())


if __name__ == "__main__":
    sys.exit(run_piped(main))

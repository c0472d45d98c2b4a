#!/usr/bin/env python3
"""Reproduce the reference valuation outputs end to end.

Writes the J.League valuation table (text and CSV), the acquisition
premium summary, and the two scatter figures, each rendered by the
clubval command that prints it, then prints a short comparison of
computed aggregates against the reported reference row.

Usage: python3 scripts/reproduce_valuations.py [--out-dir OUT]
"""

import argparse
import sys
from pathlib import Path

from clubval import (
    FxRate,
    aggregate,
    bundled_jleague_dataset,
    bundled_jleague_reported_values,
    bundled_transactions,
    premium_ranges,
    premiums_by_case,
    valuate_all,
)
from clubval.cli import run_cli


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # The rate is passed, not resolved, so VALUATE_FX_RATE cannot change
    # premiums.txt away from the ranges printed below.
    fx = FxRate()
    documents = (
        ("jleague_valuations.txt", ["apply", "--bundled", "jleague"]),
        ("jleague_valuations.csv", ["apply", "--bundled", "jleague", "--format", "csv"]),
        ("premiums.txt", ["premiums", "--fx-rate", repr(fx.yen_per_euro)]),
        ("scatter_combined.svg", ["plot", "--bundled", "combined"]),
        ("scatter_jleague.svg", ["plot", "--bundled", "jleague"]),
    )
    for name, argv in documents:
        if run_cli([*argv, "--out", str(out / name)]) != 0:
            sys.exit(f"clubval {' '.join(argv)} failed")

    records = bundled_jleague_dataset()
    results = valuate_all(records)
    aggregates = aggregate(results, records)
    ranges = premium_ranges(premiums_by_case(bundled_transactions(), results, fx))
    reported = bundled_jleague_reported_values()
    worst_fv1 = max(abs(r.fv1 - reported[r.club][0]) for r in results)
    worst_fv2 = max(abs(r.fv2 - reported[r.club][1]) for r in results)
    print(f"clubs valued: {len(results)}")
    print(f"largest |computed - reported| FV1: {worst_fv1:.4f} m EUR")
    print(f"largest |computed - reported| FV2: {worst_fv2:.4f} m EUR")
    print(f"mean FV1 {aggregates.mean_fv1:.1f}, mean FV2 {aggregates.mean_fv2:.1f}")
    print(
        f"mean of ratios {aggregates.mean_of_ratios_pct:.1f}%, "
        f"ratio of means {aggregates.ratio_of_means_pct:.1f}%"
    )
    for name, (low, high) in sorted(ranges.items()):
        print(f"{name} premium range: {100 * low:.1f}% to {100 * high:.1f}%")
    print(f"outputs written to {out}/")


if __name__ == "__main__":
    main()

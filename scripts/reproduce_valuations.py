#!/usr/bin/env python3
"""Reproduce the reference valuation outputs end to end.

Writes the J.League valuation table (text and CSV), the acquisition
premium summary, and the two scatter figures, then prints a short
comparison of computed aggregates against the reported reference row.

Usage: python3 scripts/reproduce_valuations.py [--out-dir OUT]
"""

import argparse
from pathlib import Path

from clubval import (
    FORMULA_1,
    FORMULA_2,
    FxRate,
    RenderSpec,
    ScatterSeries,
    aggregate,
    bundled_european_reference,
    bundled_jleague_dataset,
    bundled_jleague_reported_values,
    bundled_transactions,
    emit_scatter,
    premium_ranges,
    premiums_by_case,
    render_premium_table,
    render_valuation_table,
    valuate_all,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = bundled_jleague_dataset()
    results = valuate_all(records, FORMULA_1, FORMULA_2)
    aggregates = aggregate(results, records)

    for fmt, suffix in (("text", "txt"), ("csv", "csv")):
        doc = render_valuation_table(
            results, records, aggregates, RenderSpec(format=fmt)
        )
        (out / f"jleague_valuations.{suffix}").write_text(doc, encoding="utf-8")

    fx = FxRate()
    cases = bundled_transactions()
    premiums = premiums_by_case(cases, results, fx)
    ranges = premium_ranges(premiums)
    premium_doc = render_premium_table(premiums, ranges, RenderSpec(format="text"))
    (out / "premiums.txt").write_text(premium_doc, encoding="utf-8")

    jleague_series = ScatterSeries(
        label="J.League",
        points=tuple((r.fv1, r.fv2, r.club) for r in results),
    )
    european_series = ScatterSeries(
        label="European reference",
        points=tuple(
            (ref.fv1, ref.fv2, ref.club) for ref in bundled_european_reference()
        ),
    )
    svg_spec = RenderSpec(format="svg", scale="log10")
    (out / "scatter_combined.svg").write_text(
        emit_scatter([jleague_series, european_series], svg_spec, guide_line=True),
        encoding="utf-8",
    )
    (out / "scatter_jleague.svg").write_text(
        emit_scatter([jleague_series], svg_spec, guide_line=True),
        encoding="utf-8",
    )

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

"""Render regression reports, valuation tables, premium summaries, and
scatter figures to text, CSV, Markdown, and SVG.

All rendering is pure string building, so identical inputs give byte
identical output. Numbers are rounded half away from zero at render
time only; internal values are never rounded.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from ._record import finite, one_line, record, refuse
from .dataset import ClubRecord, _csv_doc
from .errors import DomainError, EmptyInput, IoError, NonPositiveLogInput
from .valuation import AggregateRow, PremiumResult, ValuationResult, _require_paired

# RegressionFit is only an annotation: this module loads neither regression
# nor special. The constant stands in for typing.TYPE_CHECKING, as there.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .regression import RegressionFit

TABLE_FORMATS = ("text", "csv", "md")
FORMATS = (*TABLE_FORMATS, "svg")
SCALES = ("linear", "log10")

# Decimal places of each kind of rendered number.
COEFFICIENT_PLACES = 4
STATISTIC_PLACES = 4
VALUE_PLACES = 2
RATIO_PLACES = 1
AGGREGATE_PLACES = 1
PERCENT_PLACES = 1

MAX_PLACES = 100


@record
class RenderSpec:
    """How to render: output format and plot scale."""

    format: str = "text"
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            refuse(None, "format", f"be one of {FORMATS}", self.format)
        if self.scale not in SCALES:
            refuse(None, "scale", f"be one of {SCALES}", self.scale)


@record
class ScatterSeries:
    """One plotted series: a label and (x, y, club) points in m EUR."""

    label: str
    points: tuple[tuple[float, float, str], ...]

    def __post_init__(self) -> None:
        one_line(self.label, None, "scatter label")
        if not isinstance(self.points, tuple) or any(
                not isinstance(point, tuple) or len(point) != 3 for point in self.points):
            refuse(None, "scatter points", "be a tuple of (x, y, club) tuples", self.points)
        for x, y, club in self.points:
            one_line(club, None, "scatter club")
            finite(x, club, "scatter x")
            finite(y, club, "scatter y")


def fmt_fixed(value: float, places: int) -> str:
    """Fixed-point formatting of the shortest repr, ties rounded away from zero."""
    value = float(value)
    units = abs(value) * 10.0 ** places
    # f-format rounds the value, not its repr. Under 2**40 units of the last
    # place the two lie within 2**-12 units with no shorter decimal between,
    # so they round alike unless that close to a midpoint: the repr may tie.
    if units < 2.0**40 and abs(units % 1.0 - 0.5) > 2.0**-10:
        return "%.*f" % (places, value)
    if not math.isfinite(value):
        return str(value)
    # No bundled command gets here, so decimal is loaded only on demand.
    from decimal import ROUND_HALF_UP, Context, Decimal

    # Room for the 309 integer digits of the largest finite float plus
    # MAX_PLACES decimals; the default context holds only 28 digits.
    context = Context(prec=sys.float_info.max_10_exp + 1 + MAX_PLACES)
    quantum = Decimal(1).scaleb(-places)
    return f"{Decimal(repr(value)).quantize(quantum, ROUND_HALF_UP, context):f}"


def fmt_sci(value: float) -> str:
    """Scientific notation with two decimals, e.g. 1.69E-06."""
    return f"{value:.2E}"


def _xml_escape(text: str, quote: bool = False) -> str:
    """Escape &, < and > (and " when quote is set) for SVG text and attributes."""
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text.replace('"', "&quot;") if quote else text


def write_document(doc: str, output_path: str | None = None) -> None:
    """Write to a file, or to stdout when no path is given."""
    if output_path is None or output_path == "-":
        sys.stdout.write(doc)
        return
    try:
        Path(output_path).write_text(doc, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {output_path}: {exc}") from exc


def _text_table(rows: list[list[str]], right_align: set[int]) -> str:
    # One %-conversion per column pads every cell of a row in one call.
    line = "  ".join(
        f"%{'' if i in right_align else '-'}{max(map(len, column))}s"
        for i, column in enumerate(zip(*rows))
    )
    return "\n".join([(line % tuple(row)).rstrip() for row in rows]) + "\n"


def _md_table(rows: list[list[str]], right_align: set[int]) -> str:
    header, *body = [[cell.replace("|", "\\|") for cell in row] for row in rows]
    sep = ["---:" if i in right_align else "---" for i in range(len(header))]
    lines = ["| " + " | ".join(header) + " |", "| " + " | ".join(sep) + " |"]
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(lines) + "\n"


def _emit_tables(
    spec: RenderSpec,
    blocks: list[tuple[list[list[str]], set[int]]],
    trailer: str = "",
    grouped: frozenset[int] = frozenset(),
) -> str:
    """Render row blocks, each a (rows, right-aligned columns) pair, in
    the spec's tabular format with a blank line between blocks.

    csv carries the data only. md and text follow the tables with a
    blank line and the trailer, when there is one, and print the body
    cells of the grouped columns (integer strings) with thousands
    separators, rewriting those cells in place.
    """
    if spec.format == "svg":
        raise DomainError("svg is only valid for plot rendering")
    if spec.format == "csv":
        return "\n".join(_csv_doc(rows) for rows, _ in blocks)
    table = _md_table if spec.format == "md" else _text_table
    for rows, _ in blocks:
        for row in rows[1:]:
            for i in grouped:
                row[i] = f"{int(row[i]):,}"
    doc = "\n".join(table(rows, right_align) for rows, right_align in blocks)
    return doc + ("\n" + trailer if trailer else "")


def render_regression_table(fit: RegressionFit, spec: RenderSpec) -> str:
    """One row per coefficient plus the summary statistics block."""
    cp, sp = COEFFICIENT_PLACES, STATISTIC_PLACES
    coef_rows = [["variable", "coefficient", "standard_error", "t_stat", "p_value"]]
    coef_rows.append(["intercept", "0", "", "", ""])
    for vid, coef, se, t, p in zip(
        fit.variable_ids, fit.coefficients, fit.standard_errors, fit.t_stats, fit.p_values
    ):
        coef_rows.append(
            [vid, fmt_fixed(coef, cp), fmt_fixed(se, cp), fmt_fixed(t, cp), fmt_sci(p)]
        )

    stat_rows = [["statistic", "value"]]
    stat_rows += [
        ["Multiple R", fmt_fixed(fit.multiple_r, sp)],
        ["R Square", fmt_fixed(fit.r_squared, sp)],
        ["Adjusted R Square", fmt_fixed(fit.adjusted_r_squared, sp)],
        ["Standard Error", fmt_fixed(fit.standard_error_of_regression, sp)],
        ["Observations", str(fit.n_observations)],
        ["Degrees of freedom", str(fit.dof)],
    ]

    return _emit_tables(spec, [(coef_rows, {1, 2, 3, 4}), (stat_rows, {1})])


def render_valuation_table(
    results: list[ValuationResult],
    records: list[ClubRecord],
    aggregates: AggregateRow,
    spec: RenderSpec,
) -> str:
    """Per-club valuation rows followed by Average and Median rows.

    The Average and Median ratio cells aggregate the per-club ratios
    (mean of ratios, median of ratios), not the ratio of the aggregated
    firm values.
    """
    if not results:
        raise EmptyInput("no valuation rows to render")
    _require_paired(results, records)
    vp, ap, rp = VALUE_PLACES, AGGREGATE_PLACES, RATIO_PLACES

    rows = [
        [
            "league",
            "club",
            "sns_followers",
            "revenue_meur",
            "player_market_value_meur",
            "fv1_meur",
            "fv2_meur",
            "fv1_fv2",
        ]
    ]
    for rec, res in zip(records, results):
        rows.append(
            [
                rec.league,
                rec.name,
                str(rec.sns_followers),
                fmt_fixed(rec.revenue_meur, vp),
                fmt_fixed(rec.player_market_value_meur, vp),
                fmt_fixed(res.fv1, vp),
                fmt_fixed(res.fv2, vp),
                fmt_fixed(res.ratio_pct, rp) + "%",
            ]
        )
    a = aggregates
    for label, sns, *amounts, ratio in (
        ("Average", a.mean_sns, a.mean_revenue, a.mean_pmv, a.mean_fv1, a.mean_fv2,
         a.mean_of_ratios_pct),
        ("Median", a.median_sns, a.median_revenue, a.median_pmv, a.median_fv1, a.median_fv2,
         a.median_of_ratios_pct),
    ):
        rows.append(
            ["", label, fmt_fixed(sns, 0), *[fmt_fixed(v, ap) for v in amounts],
             fmt_fixed(ratio, rp) + "%"]
        )

    note = (
        "Ratio aggregates are the mean and median of the per-club "
        "FV1/FV2 ratios.\n"
    )
    return _emit_tables(
        spec, [(rows, {2, 3, 4, 5, 6, 7})], note, grouped=frozenset({2})
    )


def render_premium_table(
    premiums: list[PremiumResult],
    ranges: dict[str, tuple[float, float]],
    spec: RenderSpec,
) -> str:
    """Per-case premiums and per-model premium ranges, in percent."""
    if not premiums:
        raise EmptyInput("no premiums to render")
    pp, vp = PERCENT_PLACES, VALUE_PLACES

    rows = [["club", "model", "implied_stake_myen", "premium_pct"]]
    for p in premiums:
        rows.append(
            [
                p.club,
                p.model_name,
                fmt_fixed(p.implied_stake_value_myen, vp),
                fmt_fixed(100.0 * p.premium, pp),
            ]
        )
    range_rows = [["model", "min_premium_pct", "max_premium_pct"]]
    for model_name in sorted(ranges):
        low, high = ranges[model_name]
        range_rows.append(
            [model_name, fmt_fixed(100.0 * low, pp), fmt_fixed(100.0 * high, pp)]
        )

    return _emit_tables(spec, [(rows, {2, 3}), (range_rows, {1, 2})])


def render_selection_table(report, spec: RenderSpec) -> str:
    """Ranked subsets with their headline fit statistics."""
    sp = STATISTIC_PLACES
    rows = [["rank", "variables", "adj_r_squared", "r_squared", "std_error", "all_significant"]]
    for rank, model in enumerate(report.ranked_models, start=1):
        rows.append(
            [
                str(rank),
                "+".join(model.variable_ids),
                fmt_fixed(model.fit.adjusted_r_squared, sp),
                fmt_fixed(model.fit.r_squared, sp),
                fmt_fixed(model.fit.standard_error_of_regression, sp),
                "yes" if model.all_significant else "no",
            ]
        )
    if len(rows) == 1:
        rows.append(["", "(none selected)", "", "", "", ""])

    trailer = ""
    if report.skipped:
        skipped = "; ".join("+".join(s) for s in report.skipped)
        trailer += f"Skipped rank-deficient subsets: {skipped}\n"
    if not report.converged:
        trailer += "Warning: selection stopped on a cycle before converging.\n"

    return _emit_tables(spec, [(rows, {0, 2, 3, 4})], trailer)


def scale_value(value: float, scale: str) -> float:
    """Map a data value onto the axis scale (identity or log10)."""
    if scale == "linear":
        return float(value)
    if scale == "log10":
        if value <= 0:
            raise NonPositiveLogInput(
                f"log10 axis requires positive values, got {value}"
            )
        return math.log10(value)
    raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")


def _axis_ticks(lo: float, hi: float, scale: str) -> list[tuple[float, str]]:
    """Ticks i * step across [lo, hi] for whole i, each with its label.

    A linear step is 1, 2 or 5 times a power of ten, the least one at or
    above a fifth of the span, and its labels carry as many decimals as
    the step, at least 2. A log10 step is 1, 2, 5, 10, 20, 50 or 100
    decades, the least one that labels at most 10 decades.
    """
    if scale == "log10":
        # Decades past the largest float have no value to label.
        hi = min(hi, sys.float_info.max_10_exp)
        lo, hi = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
        # Axes span under 700 decades, so 100 always fits.
        step = float(next(s for s in (1, 2, 5, 10, 20, 50, 100) if hi - lo < 10 * s))
        places = 0
    else:
        raw = (hi - lo) / 5.0
        magnitude = 10.0 ** math.floor(math.log10(raw))
        step = next(m * magnitude for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * magnitude)
        places = max(2, -math.floor(math.log10(step)))
    first, last = math.ceil(lo / step), math.floor(hi / step + 1e-9)
    # Rounding to the label's places drops the float residue of i * step.
    ticks = [round(i * step, places) for i in range(first, last + 1)]
    return [(t, _tick_label(t, scale, places)) for t in ticks]


def _tick_label(tick: float, scale: str, places: int) -> str:
    # Decades from 1 to 1e14 are written out below, the rest read 1eN.
    if scale == "log10" and not 0 <= tick < 15:
        return f"1e{int(tick)}"
    value = 10.0 ** tick if scale == "log10" else tick
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return fmt_fixed(value, places)


_MARKER_SHAPES = ("circle", "square", "triangle")


def _marker_element(shape: str, px: float, py: float, cls: str, club: str) -> str:
    title = f"<title>{_xml_escape(club)}</title>"
    if shape == "circle":
        return (
            f'<circle class="{cls}" cx="{px:.2f}" cy="{py:.2f}" r="4">'
            f"{title}</circle>"
        )
    if shape == "square":
        return (
            f'<rect class="{cls}" x="{px - 3.5:.2f}" y="{py - 3.5:.2f}" '
            f'width="7" height="7">{title}</rect>'
        )
    points = f"{px:.2f},{py - 4.5:.2f} {px - 4:.2f},{py + 3.5:.2f} {px + 4:.2f},{py + 3.5:.2f}"
    return f'<polygon class="{cls}" points="{points}">{title}</polygon>'


def emit_scatter(
    series: list[ScatterSeries],
    spec: RenderSpec,
    guide_line: bool = False,
) -> str:
    """Build an SVG 1.1 scatter figure of FV1 against FV2.

    One marker element per point, a distinct shape for each of at most
    three series, axes with tick labels, and optionally a y = x guide
    line (the 100 percent ratio locus).
    """
    if spec.format != "svg":
        raise DomainError(f"emit_scatter requires svg format, got {spec.format!r}")
    if not isinstance(series, list) or not all(isinstance(s, ScatterSeries) for s in series):
        refuse(None, "series", "be a list of scatter series", series)
    if len(series) > len(_MARKER_SHAPES):
        raise DomainError(f"at most {len(_MARKER_SHAPES)} series can be drawn, got {len(series)}")
    if not series or all(not s.points for s in series):
        raise EmptyInput("nothing to plot")

    scaled = [
        [(scale_value(x, spec.scale), scale_value(y, spec.scale), club) for x, y, club in s.points]
        for s in series
    ]
    xs = [x for points in scaled for x, _y, _club in points]
    ys = [y for points in scaled for _x, y, _club in points]

    def padded(values: list[float]) -> tuple[float, float]:
        lo, hi = min(values), max(values)
        pad = 0.05 * (hi - lo)
        # A spread that rounding would lose (a single value, one below a
        # billionth of the magnitude, or one among the smallest floats) is
        # padded by at least 0.5, so the axis has width and ticks advance.
        least = 1e-9 * max(abs(lo), abs(hi), 1e-290)
        if pad < least:
            pad = max(0.5, least)
        lo, hi = lo - pad, hi + pad
        if not math.isfinite(hi - lo):
            raise DomainError("plot axis range exceeds the float range")
        return lo, hi

    x_lo, x_hi = padded(xs)
    y_lo, y_hi = padded(ys)

    width, height = 720.0, 540.0
    ml, mr, mt, mb = 70.0, 160.0, 30.0, 55.0
    plot_w, plot_h = width - ml - mr, height - mt - mb

    def px(sx: float) -> float:
        return ml + (sx - x_lo) / (x_hi - x_lo) * plot_w

    def py(sy: float) -> float:
        return height - mb - (sy - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "<style>"
        ".s0{fill:#1f6fb2;}"
        ".s1{fill:#c4552d;}"
        ".s2{fill:#3a8f4d;}"
        ".axis{stroke:#333;stroke-width:1;}"
        ".tick{stroke:#333;stroke-width:1;}"
        ".grid{stroke:#ddd;stroke-width:0.5;}"
        ".guide{stroke:#888;stroke-width:1;stroke-dasharray:5 4;fill:none;}"
        "text{font-family:sans-serif;font-size:11px;fill:#222;}"
        "</style>",
        f'<line class="axis" x1="{ml:.2f}" y1="{height - mb:.2f}" '
        f'x2="{width - mr:.2f}" y2="{height - mb:.2f}"/>',
        f'<line class="axis" x1="{ml:.2f}" y1="{mt:.2f}" '
        f'x2="{ml:.2f}" y2="{height - mb:.2f}"/>',
    ]

    for t, label in _axis_ticks(x_lo, x_hi, spec.scale):
        tx = px(t)
        parts.append(
            f'<line class="tick" x1="{tx:.2f}" y1="{height - mb:.2f}" '
            f'x2="{tx:.2f}" y2="{height - mb + 5:.2f}"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{height - mb + 18:.2f}" '
            f'text-anchor="middle">{label}</text>'
        )
    for t, label in _axis_ticks(y_lo, y_hi, spec.scale):
        ty = py(t)
        parts.append(
            f'<line class="tick" x1="{ml - 5:.2f}" y1="{ty:.2f}" '
            f'x2="{ml:.2f}" y2="{ty:.2f}"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{ty + 4:.2f}" '
            f'text-anchor="end">{label}</text>'
        )

    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 12:.2f}" '
        'text-anchor="middle">FV1 (m EUR)</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + plot_h / 2:.2f})">FV2 (m EUR)</text>'
    )

    if guide_line:
        lo = max(x_lo, y_lo)
        hi = min(x_hi, y_hi)
        if hi > lo:
            parts.append(
                f'<line class="guide" x1="{px(lo):.2f}" y1="{py(lo):.2f}" '
                f'x2="{px(hi):.2f}" y2="{py(hi):.2f}"/>'
            )

    for idx, (s, points) in enumerate(zip(series, scaled)):
        shape = _MARKER_SHAPES[idx]
        label_attr = _xml_escape(s.label, quote=True)
        parts.append(f'<g class="series" data-label="{label_attr}">')
        for x, y, club in points:
            parts.append(_marker_element(shape, px(x), py(y), f"marker s{idx}", club))
        parts.append("</g>")
        legend_y = mt + 16.0 * idx
        lx = width - mr + 18.0
        parts.append(_marker_element(shape, lx, legend_y - 4.0, f"swatch s{idx}", s.label))
        parts.append(
            f'<text x="{lx + 10:.2f}" y="{legend_y:.2f}">{_xml_escape(s.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

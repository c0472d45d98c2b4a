import csv
import io
import math
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clubval.dataset import (
    ClubRecord,
    FxRate,
    bundled_european_reference,
    bundled_jleague_dataset,
    bundled_transactions,
)
from clubval.errors import DimensionMismatch, DomainError, EmptyInput, IoError, NonPositiveLogInput
from clubval.regression import DesignMatrix, ResponseVector, fit_through_origin
from clubval import report
from clubval.report import (
    MAX_PLACES,
    RenderSpec,
    ScatterSeries,
    emit_scatter,
    fmt_fixed,
    fmt_sci,
    render_premium_table,
    render_regression_table,
    render_selection_table,
    render_valuation_table,
    scale_value,
    write_document,
)
from clubval.selection import CandidateSet, SelectionReport, exhaustive_subsets
from clubval.valuation import aggregate, premium_ranges, premiums_by_case, valuate_all
from oracles import fmt_fixed_reference


def _reference_style_fit():
    """A two-predictor fit whose coefficients land on the published
    values: the response is built from them plus a fixed perturbation."""
    rng = np.random.default_rng(1234)
    x = rng.uniform(0.2, 40.0, size=(37, 2))
    y = x @ np.array([3.7233, 2.9233])
    # Perturb orthogonally to the columns so the coefficients are unchanged.
    q, _ = np.linalg.qr(np.column_stack([x, rng.standard_normal((37, 1))]))
    y = y + 25.0 * q[:, 2]
    design = DesignMatrix.from_columns([("sns_followers_m", x[:, 0]), ("revenue_meur", x[:, 1])])
    return fit_through_origin(design, ResponseVector("ev", y))


def _jleague_table_pieces():
    records = bundled_jleague_dataset()
    results = valuate_all(records)
    return results, records, aggregate(results, records)


class TestFormatting:
    def test_half_away_from_zero(self):
        assert fmt_fixed(2.5, 0) == "3"
        assert fmt_fixed(-2.5, 0) == "-3"
        assert fmt_fixed(0.125, 2) == "0.13"
        assert fmt_fixed(1.005, 2) == "1.01"
        assert fmt_fixed(341.99, 1) == "342.0"

    def test_fixed_places(self):
        assert fmt_fixed(3.7233, 4) == "3.7233"
        assert fmt_fixed(2.0, 4) == "2.0000"

    def test_beyond_default_decimal_precision(self):
        assert fmt_fixed(1e30, 2) == "1" + "0" * 30 + ".00"
        largest = sys.float_info.max
        assert fmt_fixed(largest, 4) == "17976931348623157" + "0" * 292 + ".0000"
        assert fmt_fixed(-largest, MAX_PLACES).startswith("-17976931348623157")

    @pytest.mark.parametrize("places", [7, 17, 100])
    def test_no_exponent_past_six_places(self, places):
        zeros = "0" * places
        assert fmt_fixed(0.0, places) == "0." + zeros
        assert fmt_fixed(-0.0, places) == "-0." + zeros
        assert fmt_fixed(1e-7, places) == "0." + "0000001".ljust(places, "0")
        assert fmt_fixed(5e-324, places) == "0." + zeros

    @given(
        st.floats(allow_nan=False),
        st.integers(min_value=0, max_value=MAX_PLACES),
    )
    @example(0.125, 2)
    @example(2.675, 2)
    @example(1.005, 2)
    @example(2.5, 0)
    @example(-2.5, 0)
    @example(2**51 + 0.5, 0)
    @example(1234567890123456.8, 0)
    @example(1e16, 2)
    @example(1e300, 4)
    @example(5e-324, 100)
    @example(-0.0, 3)
    # Next to a tie, at the 2**40-unit edge, and a tie in exponent form.
    @example(math.nextafter(0.125, 1.0), 2)
    @example(math.nextafter(-0.125, -1.0), 2)
    @example(2**40 / 100 - 0.005, 2)
    @example(1099511627775.5, 0)
    @example(1.5e-100, 100)
    def test_matches_decimal_reference(self, value, places):
        assert fmt_fixed(value, places) == fmt_fixed_reference(value, places)

    def test_scientific(self):
        assert fmt_sci(1.6946663864392964e-06) == "1.69E-06"
        assert fmt_sci(9.165845997573551e-15) == "9.17E-15"


class TestRegressionTable:
    def test_contains_reference_coefficients(self):
        fit = _reference_style_fit()
        doc = render_regression_table(fit, RenderSpec(format="text"))
        assert "3.7233" in doc
        assert "2.9233" in doc
        assert "intercept" in doc
        assert "Adjusted R Square" in doc

    def test_single_coefficient_fit(self):
        design = DesignMatrix.from_columns([("x", np.array([1.0, 2.0, 3.0, 4.0]))])
        fit = fit_through_origin(
            design, ResponseVector("y", np.array([2.1, 3.9, 6.2, 7.8]))
        )
        doc = render_regression_table(fit, RenderSpec(format="text"))
        lines = [l for l in doc.splitlines() if l and not l.startswith(("variable", "statistic"))]
        coef_lines = [l for l in lines if l.startswith("x ")]
        assert len(coef_lines) == 1

    def test_csv_round_trip(self):
        fit = _reference_style_fit()
        doc = render_regression_table(fit, RenderSpec(format="csv"))
        rows = [r for r in csv.reader(io.StringIO(doc)) if r]
        by_var = {r[0]: r for r in rows}
        row = by_var["sns_followers_m"]
        assert float(row[1]) == float(fmt_fixed(fit.coefficients[0], 4))
        assert float(row[2]) == float(fmt_fixed(fit.standard_errors[0], 4))
        assert float(row[4]) == float(fmt_sci(fit.p_values[0]))
        stats = {r[0]: r[1] for r in rows if len(r) == 2}
        assert float(stats["R Square"]) == float(fmt_fixed(fit.r_squared, 4))
        assert int(stats["Observations"]) == fit.n_observations

    def test_markdown_shape(self):
        fit = _reference_style_fit()
        doc = render_regression_table(fit, RenderSpec(format="md"))
        assert doc.startswith("| variable |")
        assert "| ---" in doc


def _premium_pieces():
    cases = bundled_transactions()
    results = valuate_all(bundled_jleague_dataset())
    fx = FxRate(150.0)
    premiums = premiums_by_case(cases, results, fx)
    return premiums, premium_ranges(premiums)


_TABULAR_RENDERERS = {
    "regression": lambda spec: render_regression_table(_reference_style_fit(), spec),
    "valuation": lambda spec: render_valuation_table(*_jleague_table_pieces(), spec),
    "premium": lambda spec: render_premium_table(*_premium_pieces(), spec),
    "selection": lambda spec: render_selection_table(SelectionReport(()), spec),
}


@pytest.mark.parametrize(
    "render", _TABULAR_RENDERERS.values(), ids=_TABULAR_RENDERERS.keys()
)
def test_svg_rejected(render):
    with pytest.raises(DomainError, match="svg is only valid for plot rendering"):
        render(RenderSpec(format="svg"))


def test_no_premiums_rejected():
    with pytest.raises(EmptyInput, match="no premiums to render"):
        render_premium_table([], {}, RenderSpec())


def test_trailer_and_thousands_separators_stay_out_of_csv():
    report = SelectionReport((), skipped=(("a", "b"),), converged=False)
    trailer = (
        "\nSkipped rank-deficient subsets: a+b\n"
        "Warning: selection stopped on a cycle before converging.\n"
    )
    for fmt in ("text", "md"):
        assert render_selection_table(report, RenderSpec(format=fmt)).endswith(
            "\n" + trailer
        )
    doc = render_selection_table(report, RenderSpec(format="csv"))
    assert "Skipped" not in doc and "Warning" not in doc

    pieces = _jleague_table_pieces()
    for fmt, followers in (("text", "807,734"), ("md", "807,734"), ("csv", "807734")):
        doc = render_valuation_table(*pieces, RenderSpec(format=fmt))
        assert followers in next(line for line in doc.splitlines() if "Urawa" in line)


class TestValuationTable:
    def test_row_count_and_aggregate_rows(self):
        results, records, agg = _jleague_table_pieces()
        doc = render_valuation_table(results, records, agg, RenderSpec(format="csv"))
        rows = list(csv.reader(io.StringIO(doc)))
        assert len(rows) == 1 + 60 + 2
        assert rows[-2][1] == "Average"
        assert rows[-1][1] == "Median"

    def test_urawa_row_renders_reference_value(self):
        results, records, agg = _jleague_table_pieces()
        doc = render_valuation_table(results, records, agg, RenderSpec(format="text"))
        urawa = next(l for l in doc.splitlines() if "Urawa" in l)
        assert "161.39" in urawa
        assert "40.64" in urawa

    def test_average_row_uses_mean_of_ratios(self):
        results, records, agg = _jleague_table_pieces()
        doc = render_valuation_table(results, records, agg, RenderSpec(format="text"))
        average = next(l for l in doc.splitlines() if "Average" in l)
        assert "342.0%" in average
        assert "Ratio aggregates" in doc

    def test_ratio_formatting_includes_percent(self):
        results, records, agg = _jleague_table_pieces()
        doc = render_valuation_table(results, records, agg, RenderSpec(format="csv"))
        rows = list(csv.reader(io.StringIO(doc)))
        assert rows[1][-1].endswith("%")

    def test_empty_rejected(self):
        _results, _records, agg = _jleague_table_pieces()
        with pytest.raises(EmptyInput):
            render_valuation_table([], [], agg, RenderSpec(format="text"))

    def test_records_in_another_order_rejected(self):
        # Zipped unchecked, each club's name would sit beside another
        # club's firm values.
        results, records, agg = _jleague_table_pieces()
        with pytest.raises(DimensionMismatch, match="paired with record"):
            render_valuation_table(results[:3], records[2::-1], agg, RenderSpec("text"))
        with pytest.raises(DimensionMismatch, match="3 results for 2 records"):
            render_valuation_table(results[:3], records[:2], agg, RenderSpec("text"))

    def test_follower_counts_print_exactly(self):
        # 2**60 + 1 has no float of its own, so a pass through float() shows.
        records = [ClubRecord("Big", "J1", 2**60 + 1, 1.0, 1.0)]
        results = valuate_all(records)
        pieces = (results, records, aggregate(results, records))
        rows = list(csv.reader(io.StringIO(render_valuation_table(*pieces, RenderSpec("csv")))))
        assert rows[1][2] == "1152921504606846977"
        text = render_valuation_table(*pieces, RenderSpec("text"))
        assert "1,152,921,504,606,846,977" in next(l for l in text.splitlines() if "Big" in l)

    def test_deterministic(self):
        results, records, agg = _jleague_table_pieces()
        spec = RenderSpec(format="md")
        assert render_valuation_table(
            results, records, agg, spec
        ) == render_valuation_table(results, records, agg, spec)


class TestSelectionTable:
    def test_lists_ranked_subsets(self):
        rng = np.random.default_rng(6)
        x1 = rng.uniform(1.0, 9.0, size=30)
        x2 = rng.uniform(1.0, 9.0, size=30)
        y = 2.0 * x1 + 1.0 * x2 + 0.2 * rng.standard_normal(30)
        cands = CandidateSet.from_columns(
            [("x1", x1), ("x2", x2)], ResponseVector("y", y)
        )
        report = exhaustive_subsets(cands, max_size=2)
        doc = render_selection_table(report, RenderSpec(format="text"))
        assert "x1+x2" in doc
        assert "adj_r_squared" in doc


class TestScatter:
    def _series(self):
        results = valuate_all(bundled_jleague_dataset())
        jleague = ScatterSeries(
            "J.League", tuple((r.fv1, r.fv2, r.club) for r in results)
        )
        european = ScatterSeries(
            "European reference",
            tuple((r.fv1, r.fv2, r.club) for r in bundled_european_reference()),
        )
        return [jleague, european]

    def test_scale_value(self):
        assert scale_value(100.0, "log10") == pytest.approx(2.0, abs=1e-15)
        assert scale_value(7.5, "linear") == 7.5

    def test_unknown_scale_rejected(self):
        with pytest.raises(DomainError, match=r"^scale must be one of \('linear', 'log10'\), got 'cubic'$"):
            scale_value(1.0, "cubic")

    def test_nonpositive_log_rejected(self):
        with pytest.raises(NonPositiveLogInput):
            scale_value(0.0, "log10")
        series = [ScatterSeries("bad", ((0.0, 1.0, "zero"),))]
        with pytest.raises(NonPositiveLogInput):
            emit_scatter(series, RenderSpec(format="svg", scale="log10"))

    @pytest.mark.parametrize(
        "point, message",
        [
            (("1", 2.0, "c"), "c: scatter x must be a finite number, got '1'"),
            ((1.0, None, "c"), "c: scatter y must be a finite number, got None"),
            ((math.inf, 2.0, "c"), "c: scatter x must be a finite number, got inf"),
            ((1.0, math.nan, "c"), "c: scatter y must be a finite number, got nan"),
        ],
        ids=["str", "none", "inf", "nan"],
    )
    def test_coordinate_must_be_a_finite_number(self, point, message):
        with pytest.raises(DomainError) as info:
            ScatterSeries("s", (point,))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "label, points, message",
        [
            (None, ((1.0, 2.0, "c"),), "scatter label must be a one-line string, got None"),
            ("s", ((1.0, 2.0, None),), "scatter club must be a one-line string, got None"),
            (
                "s", ((1.0, 2.0),),
                "scatter points must be a tuple of (x, y, club) tuples, got ((1.0, 2.0),)",
            ),
        ],
        ids=["label-none", "club-none", "pair"],
    )
    def test_label_club_and_point_shape_are_judged(self, label, points, message):
        # Each was accepted, or raised a bare error, and emit_scatter then failed.
        with pytest.raises(DomainError) as info:
            ScatterSeries(label, points)
        assert str(info.value) == message

    def test_marker_count_and_well_formed(self):
        doc = emit_scatter(
            self._series(), RenderSpec(format="svg", scale="log10"), guide_line=True
        )
        root = ET.fromstring(doc)
        markers = [
            el for el in root.iter() if "marker" in el.get("class", "").split()
        ]
        assert len(markers) == 60 + 37
        guides = [el for el in root.iter() if el.get("class") == "guide"]
        assert len(guides) == 1

    def test_one_marker_per_point_linear(self):
        series = [ScatterSeries("tiny", ((1.0, 2.0, "a"), (3.0, 4.0, "b")))]
        doc = emit_scatter(series, RenderSpec(format="svg", scale="linear"))
        root = ET.fromstring(doc)
        markers = [
            el for el in root.iter() if "marker" in el.get("class", "").split()
        ]
        assert len(markers) == 2

    def test_distinct_series_shapes(self):
        doc = emit_scatter(self._series(), RenderSpec(format="svg", scale="log10"))
        root = ET.fromstring(doc)
        tags = {
            el.tag.rsplit("}", 1)[-1]
            for el in root.iter()
            if "marker" in el.get("class", "").split()
        }
        assert len(tags) == 2

    def test_axis_tick_labels_present(self):
        doc = emit_scatter(self._series(), RenderSpec(format="svg", scale="log10"))
        assert "100" in doc
        assert "1,000" in doc

    def test_deterministic(self):
        spec = RenderSpec(format="svg", scale="log10")
        assert emit_scatter(self._series(), spec) == emit_scatter(
            self._series(), spec
        )

    def test_markup_in_labels_escaped(self):
        series = [ScatterSeries('A & "B" <c>', ((1.0, 2.0, "x>y & z"),))]
        doc = emit_scatter(series, RenderSpec(format="svg", scale="linear"))
        assert 'data-label="A &amp; &quot;B&quot; &lt;c&gt;"' in doc
        assert '>A &amp; "B" &lt;c&gt;</text>' in doc
        assert "<title>x&gt;y &amp; z</title>" in doc
        group = ET.fromstring(doc).find("{http://www.w3.org/2000/svg}g")
        assert group.get("data-label") == 'A & "B" <c>'

    @pytest.mark.parametrize(
        "scale, points",
        [
            # A single value whose +-0.5 padding is lost to rounding.
            ("linear", ((6e16, 6e16, "a"),)),
            # A one-ulp spread, whose tick step is below an ulp.
            ("linear", ((1e20, 1e20, "a"), (math.nextafter(1e20, 2e20),) * 2 + ("b",))),
            # Padding reaches decades past the largest float.
            ("log10", ((1e307, 1e307, "a"), (1.0, 1.0, "b"))),
        ],
    )
    def test_extreme_finite_values(self, scale, points):
        series = [ScatterSeries("s", points)]
        doc = emit_scatter(series, RenderSpec(format="svg", scale=scale), guide_line=True)
        root = ET.fromstring(doc)
        markers = [
            el for el in root.iter() if "marker" in el.get("class", "").split()
        ]
        assert len(markers) == len(points)

    @pytest.mark.parametrize(
        "low, high, labels",
        [
            (5e-324, 1e307, ["1e-300", "1e-200", "1e-100", "1", "1e100", "1e200", "1e300"]),
            (1e-6, 1e-3, ["1e-6", "1e-5", "1e-4", "1e-3"]),
        ],
    )
    def test_log_ticks_bounded_and_distinct(self, low, high, labels):
        series = [ScatterSeries("s", ((low, low, "a"), (high, high, "b")))]
        doc = emit_scatter(series, RenderSpec(format="svg", scale="log10"))
        root = ET.fromstring(doc)
        ns = "{http://www.w3.org/2000/svg}"
        for anchor in ("middle", "end"):
            got = [
                el.text for el in root.iter(f"{ns}text")
                if el.get("text-anchor") == anchor and not el.text.startswith("FV")
            ]
            assert got == labels

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e300, max_value=1e300),
                st.floats(min_value=-1e300, max_value=1e300),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example([(1e-5, 1e-5), (3e-5, 3e-5)])
    def test_linear_ticks_advance_with_distinct_labels(self, points):
        series = [ScatterSeries("s", tuple((x, y, "c") for x, y in points))]
        doc = emit_scatter(series, RenderSpec(format="svg", scale="linear"))
        root = ET.fromstring(doc)
        ns = "{http://www.w3.org/2000/svg}"
        ticks = [el for el in root.iter(f"{ns}line") if el.get("class") == "tick"]
        xs = [float(el.get("x1")) for el in ticks if el.get("x1") == el.get("x2")]
        ys = [float(el.get("y1")) for el in ticks if el.get("y1") == el.get("y2")]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(a > b for a, b in zip(ys, ys[1:]))
        for anchor in ("middle", "end"):
            labels = [
                el.text for el in root.iter(f"{ns}text")
                if el.get("text-anchor") == anchor and not el.text.startswith("FV")
            ]
            assert len(labels) == len(set(labels))

    @pytest.mark.parametrize(
        "low, high, labels",
        [
            # Steps below 0.01 carry as many decimals as the step.
            (1e-5, 3e-5, ["0.000010", "0.000015", "0.000020", "0.000025", "0.000030"]),
            # A whole tick reads as one, without the residue of i * step.
            (3851379.55, 3851380.45,
             ["3851379.60", "3851379.80", "3,851,380", "3851380.20", "3851380.40"]),
        ],
    )
    def test_linear_tick_labels(self, low, high, labels):
        series = [ScatterSeries("s", ((low, 1.0, "a"), (high, 2.0, "b")))]
        doc = emit_scatter(series, RenderSpec(format="svg", scale="linear"))
        ns = "{http://www.w3.org/2000/svg}"
        got = [
            el.text for el in ET.fromstring(doc).iter(f"{ns}text")
            if el.get("text-anchor") == "middle" and not el.text.startswith("FV")
        ]
        assert got == labels

    def test_axis_past_float_range_rejected(self):
        series = [ScatterSeries("s", ((sys.float_info.max, 1.0, "a"), (0.0, 1.0, "b")))]
        with pytest.raises(DomainError, match="float range"):
            emit_scatter(series, RenderSpec(format="svg", scale="linear"))

    def test_requires_svg_format(self):
        with pytest.raises(DomainError):
            emit_scatter(self._series(), RenderSpec(format="text"))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            emit_scatter([], RenderSpec(format="svg"))

    @pytest.mark.parametrize("series", [None, [None], ["x"]])
    def test_non_list_or_non_series_refused(self, series):
        with pytest.raises(DomainError) as info:
            emit_scatter(series, RenderSpec(format="svg"))
        assert str(info.value) == f"series must be a list of scatter series, got {series!r}"

    def test_three_series_styled_and_a_fourth_rejected(self):
        series = [ScatterSeries(f"s{i}", ((1.0 + i, 2.0, f"c{i}"),)) for i in range(4)]
        doc = emit_scatter(series[:3], RenderSpec(format="svg", scale="linear"))
        markers = [el for el in ET.fromstring(doc).iter() if "marker" in el.get("class", "")]
        assert [el.get("class") for el in markers] == ["marker s0", "marker s1", "marker s2"]
        assert len({el.tag for el in markers}) == 3
        assert all(f".s{i}{{fill:" in doc for i in range(3))
        with pytest.raises(DomainError, match="at most 3 series can be drawn, got 4"):
            emit_scatter(series, RenderSpec(format="svg", scale="linear"))

    def test_each_point_scaled_once(self, monkeypatch):
        calls = []

        def counted(value, scale):
            calls.append(value)
            return scale_value(value, scale)

        monkeypatch.setattr(report, "scale_value", counted)
        series = self._series()
        emit_scatter(series, RenderSpec(format="svg", scale="log10"))
        assert len(calls) == 2 * sum(len(s.points) for s in series)


class TestRenderSpec:
    def test_rejects_unknown_format(self):
        with pytest.raises(DomainError):
            RenderSpec(format="pdf")

    def test_rejects_unknown_scale(self):
        with pytest.raises(DomainError):
            RenderSpec(scale="log2")

    def test_holds_only_format_and_scale(self):
        assert RenderSpec._fields == ("format", "scale")


class TestWriteDocument:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "doc.txt"
        write_document("hello\n", str(target))
        assert target.read_text() == "hello\n"

    def test_stdout(self, capsys):
        write_document("to stdout\n", None)
        assert capsys.readouterr().out == "to stdout\n"

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            write_document("x", str(tmp_path / "missing" / "doc.txt"))

import math
import statistics
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clubval.dataset import (
    ClubRecord,
    FxRate,
    TransactionCase,
    TransactionPattern,
    bundled_european_reference,
    bundled_jleague_dataset,
    bundled_jleague_reported_values,
    bundled_transactions,
)
from clubval.errors import (
    DegenerateRatio,
    DomainError,
    EmptyInput,
    MissingPredictor,
    MissingPrice,
)
from clubval.valuation import (
    FORMULA_1,
    _evaluator,
    _mean,
    _median,
    FORMULA_2,
    ValuationModel,
    ValuationResult,
    aggregate,
    premium_ranges,
    premiums_by_case,
    transaction_premium,
    valuate_all,
)


def _record(name="X", league="J1", sns=0, rev=0.0, pmv=0.0):
    return ClubRecord(name, league, sns, rev, pmv)


class TestApplyModel:
    """One model applied to one club, by the evaluator valuate_all builds."""

    def test_urawa_formula_1(self):
        rec = _record("Urawa Reds", sns=807_734, rev=54.18, pmv=28.55)
        assert _evaluator(FORMULA_1)(rec) == pytest.approx(161.39, abs=0.05)

    def test_kashima_formula_2(self):
        rec = _record("Kashima Antlers", sns=792_968, rev=40.77, pmv=20.80)
        assert _evaluator(FORMULA_2)(rec) == pytest.approx(30.79, abs=0.05)

    def test_zero_record_gives_zero(self):
        rec = _record()
        assert _evaluator(FORMULA_1)(rec) == 0.0
        assert _evaluator(FORMULA_2)(rec) == 0.0

    def test_missing_predictor(self):
        model = ValuationModel("M", (("broadcasting_meur", 1.0),))
        with pytest.raises(MissingPredictor):
            valuate_all([_record()], model, FORMULA_2)

    def test_missing_predictor_names_first_club_through_valuate_all(self):
        records = [
            ClubRecord("A", "J1", 1, 1.0, 1.0, broadcasting_meur=2.0),
            ClubRecord("B", "J1", 1, 1.0, 1.0),
            ClubRecord("C", "J1", 1, 1.0, 1.0),
        ]
        model = ValuationModel("M", (("revenue_meur", 1.0), ("broadcasting_meur", 1.0)))
        with pytest.raises(MissingPredictor) as info:
            valuate_all(records, FORMULA_1, model)
        assert str(info.value) == "predictor 'broadcasting_meur' is not available for 'B'"
        unknown = ValuationModel("U", (("no_such_variable", 1.0),))
        with pytest.raises(MissingPredictor) as info:
            valuate_all(records[1:], unknown, FORMULA_2)
        assert str(info.value) == "predictor 'no_such_variable' is not available for 'B'"
        assert valuate_all([], unknown, unknown) == []

    def test_model_needs_terms(self):
        with pytest.raises(DomainError):
            ValuationModel("empty", ())

    @pytest.mark.parametrize(
        "name, terms, message",
        [
            (None, (("revenue_meur", 1.0),), "model name must be a one-line string, got None"),
            ("F\nG", (("revenue_meur", 1.0),), "model name must be a one-line string, got 'F\\nG'"),
            ("F", ((None, 1.0),), "F: term id must be a one-line string, got None"),
            ("F", (("a\rb", 1.0),), "F: term id must be a one-line string, got 'a\\rb'"),
            (
                "F",
                (("revenue_meur", 1.0), ("sns_followers_m", 1.0), ("revenue_meur", 2.0)),
                "F: term revenue_meur is given twice",
            ),
            ("", (("revenue_meur", 1.0),), "model name must be non-empty, got ''"),
            (
                "F",
                (("a",),),
                "F: terms must be a non-empty tuple of (id, coefficient) tuples, got (('a',),)",
            ),
            ("F", "ab", "F: terms must be a non-empty tuple of (id, coefficient) tuples, got 'ab'"),
        ],
        ids=["name-none", "name-line-break", "id-none", "id-line-break", "id-repeated",
             "name-empty", "term-not-a-pair", "terms-a-string"],
    )
    def test_name_and_term_ids_are_judged(self, name, terms, message):
        # A repeated id would count its predictor twice in every firm value.
        with pytest.raises(DomainError) as info:
            ValuationModel(name, terms)
        assert str(info.value) == message

    @pytest.mark.parametrize("coef", [
        float("nan"), float("-inf"), "2.9", None,
        pytest.param(10**400, id="int-past-float-range"),
    ])
    def test_coefficient_must_be_a_finite_number(self, coef):
        with pytest.raises(DomainError, match="^M: coefficient for revenue_meur must be a finite number"):
            ValuationModel("M", (("sns_followers_m", 1.0), ("revenue_meur", coef)))

    def test_coefficient_may_be_negative_or_zero(self):
        model = ValuationModel("M", (("revenue_meur", -1.5), ("sns_followers_m", 0)))
        assert valuate_all([_record(sns=10**6, rev=2.0)], model, FORMULA_2)[0].fv1 == -3.0

    @given(st.integers(min_value=0, max_value=50))
    def test_linearity(self, a):
        base = _record(sns=400_000, rev=20.0, pmv=10.0)
        scaled = _record(sns=400_000 * a, rev=20.0 * a, pmv=10.0 * a)
        for model in (FORMULA_1, FORMULA_2):
            assert _evaluator(model)(scaled) == pytest.approx(
                a * _evaluator(model)(base), rel=1e-12, abs=1e-12
            )

    def test_monotonicity(self):
        lo = _record(sns=100_000, rev=5.0, pmv=3.0)
        for bumped in (
            _record(sns=100_001, rev=5.0, pmv=3.0),
            _record(sns=100_000, rev=5.1, pmv=3.0),
        ):
            assert _evaluator(FORMULA_1)(bumped) > _evaluator(FORMULA_1)(lo)
        fv2 = _evaluator(FORMULA_2)
        assert fv2(_record(sns=100_000, rev=5.0, pmv=3.1)) > fv2(lo)


class TestValuate:
    """valuate_all on a single club."""

    def test_iwaki_extreme_ratio(self):
        rec = _record("Iwaki FC", sns=87_485, rev=5.13, pmv=0.65)
        result = valuate_all([rec])[0]
        assert result.ratio_pct == pytest.approx(1157.8, abs=1.5)

    def test_shonan_fv2(self):
        rec = _record("Shonan Bellmare", sns=311_333, rev=16.51, pmv=15.03)
        assert valuate_all([rec])[0].fv2 == pytest.approx(20.73, abs=0.05)

    def test_equal_models_give_ratio_100(self):
        model = ValuationModel("same", (("revenue_meur", 2.0),))
        result = valuate_all([_record(rev=5.0)], model, model)[0]
        assert result.ratio_pct == pytest.approx(100.0, abs=1e-12)

    def test_firm_values_past_float_range_rejected(self):
        with pytest.raises(DomainError, match="float range"):
            valuate_all([_record(rev=1.7e308, pmv=1.0)])
        # fv2 rounds to the smallest float, so the ratio overflows.
        with pytest.raises(DomainError, match="float range"):
            valuate_all([_record(rev=1e10, pmv=5e-324)])

    def test_zero_fv2_is_degenerate(self):
        with pytest.raises(DegenerateRatio):
            valuate_all([_record(sns=0, rev=10.0, pmv=0.0)])

    @pytest.mark.parametrize("records, message", [
        (None, "records must be a list of club records, got None"),
        ([None], "records must hold only club records, got None"),
        (["x"], "records must hold only club records, got 'x'"),
    ])
    def test_non_list_or_non_record_refused(self, records, message):
        with pytest.raises(DomainError) as info:
            valuate_all(records)
        assert str(info.value) == message


class TestFullTableReproduction:
    def test_all_clubs_match_reported_values(self):
        records = bundled_jleague_dataset()
        reported = bundled_jleague_reported_values()
        results = valuate_all(records)
        for res in results:
            fv1, fv2, ratio = reported[res.club]
            assert res.fv1 == pytest.approx(fv1, abs=0.05), res.club
            assert res.fv2 == pytest.approx(fv2, abs=0.05), res.club
            assert res.ratio_pct == pytest.approx(ratio, abs=1.5), res.club

    def test_urawa_is_argmax_of_both(self):
        results = valuate_all(bundled_jleague_dataset())
        assert max(results, key=lambda r: r.fv1).club == "Urawa Reds"
        assert max(results, key=lambda r: r.fv2).club == "Urawa Reds"

    def test_fv1_exceeds_three_times_fv2_on_average(self):
        results = valuate_all(bundled_jleague_dataset())
        mean_fv1 = statistics.fmean(r.fv1 for r in results)
        mean_fv2 = statistics.fmean(r.fv2 for r in results)
        assert mean_fv1 / mean_fv2 >= 3.0

    def test_european_reference_ratio_near_parity(self):
        refs = bundled_european_reference()
        ratio = statistics.fmean(r.fv1 for r in refs) / statistics.fmean(
            r.fv2 for r in refs
        )
        assert 1.0 <= ratio <= 1.5


class TestAggregate:
    def test_bundled_aggregates(self):
        records = bundled_jleague_dataset()
        results = valuate_all(records)
        agg = aggregate(results, records)
        assert agg.mean_sns == pytest.approx(257_583, abs=1.0)
        assert agg.mean_fv1 == pytest.approx(46.0, abs=0.1)
        assert agg.mean_fv2 == pytest.approx(13.1, abs=0.1)
        assert agg.median_fv1 == pytest.approx(33.8, abs=0.1)
        assert agg.median_fv2 == pytest.approx(9.9, abs=0.1)

    def test_ratio_aggregation_method(self):
        # Exactly one of the two candidate aggregations reproduces the
        # reported 342.0 percent: the mean of per-club ratios does, the
        # ratio of mean firm values does not.
        records = bundled_jleague_dataset()
        results = valuate_all(records)
        agg = aggregate(results, records)
        mean_of_ratios_ok = abs(agg.mean_of_ratios_pct - 342.0) <= 1.0
        ratio_of_means_ok = abs(agg.ratio_of_means_pct - 342.0) <= 1.0
        assert mean_of_ratios_ok and not ratio_of_means_ok

    def test_singleton(self):
        records = [_record("Solo", sns=500_000, rev=10.0, pmv=5.0)]
        results = valuate_all(records)
        agg = aggregate(results, records)
        assert agg.mean_fv1 == agg.median_fv1 == results[0].fv1
        assert agg.mean_of_ratios_pct == results[0].ratio_pct

    def test_even_count_median_is_midpoint(self):
        records = [
            _record("A", sns=100_000, rev=1.0, pmv=1.0),
            _record("B", sns=200_000, rev=2.0, pmv=2.0),
        ]
        results = valuate_all(records)
        agg = aggregate(results, records)
        assert agg.median_sns == 150_000
        assert agg.median_fv1 == pytest.approx(
            (results[0].fv1 + results[1].fv1) / 2, rel=1e-15
        )

    def test_sums_past_float_range(self):
        big = 1.7e308
        records = [
            _record(name, sns=int(big), rev=big, pmv=big / 3) for name in "ABC"
        ]
        results = [ValuationResult(r.name, 1.0, 1.0, 100.0) for r in records]
        agg = aggregate(results, records)
        assert agg.mean_revenue == agg.median_revenue == big
        assert agg.mean_sns == agg.median_sns == big
        assert agg.mean_pmv == agg.median_pmv == big / 3
        agg = aggregate(results[:2], records[:2])
        assert agg.mean_revenue == agg.median_revenue == big
        # Each of max / 3 rounds up, so adding the thirds would overflow.
        top = sys.float_info.max
        records = [_record(name, sns=int(top), rev=top, pmv=top) for name in "ABC"]
        agg = aggregate(results, records)
        assert agg.mean_sns == agg.mean_revenue == agg.mean_pmv == top

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_mean_and_median_match_statistics_bit_for_bit(self, values):
        try:
            mean = statistics.fmean(values)
        except OverflowError:  # the sum leaves the float range; mean sums exactly
            mean = statistics.mean(values)
        assert _mean(values).hex() == mean.hex()
        median = statistics.median(values)
        if math.isinf(median):  # the middle pair sums past the float range
            ordered = sorted(values)
            mid = len(ordered) // 2
            assert ordered[mid - 1] <= _median(values) <= ordered[mid]
        else:
            assert _median(values).hex() == median.hex()

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate([], [])

    def test_zero_mean_fv2_is_degenerate(self):
        # fv2 is +1 and -1: each club's ratio is defined, the ratio of means not.
        fv2 = ValuationModel("diff", (("revenue_meur", 1.0), ("player_market_value_meur", -1.0)))
        records = [_record("A", rev=2.0, pmv=1.0), _record("B", rev=1.0, pmv=2.0)]
        results = valuate_all(records, FORMULA_1, fv2)
        with pytest.raises(DegenerateRatio, match="mean fv2 is zero"):
            aggregate(results, records)

    def test_mismatched_pairing_rejected(self):
        records = [_record("A", sns=1000, rev=1.0, pmv=1.0)]
        results = valuate_all([_record("B", sns=1000, rev=1.0, pmv=1.0)])
        with pytest.raises(Exception):
            aggregate(results, records)


class TestPremiums:
    def test_kashima_formula_2(self):
        case = next(
            c for c in bundled_transactions() if c.club == "Kashima Antlers"
        )
        result = transaction_premium(case, 30.79, FxRate(150.0), model_name="Formula 2")
        assert result.premium == pytest.approx(30.79 * 150 * 0.51 / 1330 - 1, abs=1e-12)
        assert result.premium == pytest.approx(0.77, abs=0.02)

    def test_machida_formula_1(self):
        case = next(
            c for c in bundled_transactions() if c.club == "FC Machida Zelvia"
        )
        result = transaction_premium(case, 37.75, FxRate(150.0), model_name="Formula 1")
        assert result.premium == pytest.approx(3.04, abs=0.02)

    def test_exact_price_gives_zero_premium(self):
        case = TransactionCase(
            club="Even Deal",
            pattern=TransactionPattern.SHARE_TRANSFER,
            par_value_kyen=None,
            stock_price_kyen=None,
            price_for_51pct_myen=765.0,
            method_label="test",
        )
        # fv of 10 m EUR at 150 yen/EUR and a 51 percent stake is 765 m JPY.
        result = transaction_premium(case, 10.0, FxRate(150.0))
        assert result.premium == pytest.approx(0.0, abs=1e-12)

    def test_implied_value_past_float_range_rejected(self):
        case = next(c for c in bundled_transactions() if c.club == "FC Tokyo")
        with pytest.raises(DomainError, match="float range"):
            transaction_premium(case, 1e307, FxRate(150.0))

    def test_missing_price_rejected(self):
        sagan = next(c for c in bundled_transactions() if c.club == "Sagan Tosu")
        with pytest.raises(MissingPrice):
            transaction_premium(sagan, 12.69, FxRate(150.0))

    def test_ranges_on_bundled_data(self):
        records = bundled_jleague_dataset()
        results = valuate_all(records)
        ranges = premium_ranges(
            premiums_by_case(bundled_transactions(), results, FxRate(150.0))
        )
        low1, high1 = ranges["Formula 1"]
        low2, high2 = ranges["Formula 2"]
        assert low1 == pytest.approx(3.04, abs=0.02)
        assert high1 == pytest.approx(6.03, abs=0.02)
        assert low2 == pytest.approx(0.65, abs=0.02)
        assert high2 == pytest.approx(0.77, abs=0.02)

    def test_sagan_tosu_is_excluded(self):
        records = bundled_jleague_dataset()
        results = valuate_all(records)
        premiums = premiums_by_case(bundled_transactions(), results, FxRate(150.0))
        assert {p.club for p in premiums} == {
            "FC Tokyo",
            "FC Machida Zelvia",
            "Kashima Antlers",
        }

    def test_single_case_min_equals_max(self):
        records = bundled_jleague_dataset()
        results = valuate_all(records)
        case = next(c for c in bundled_transactions() if c.club == "FC Tokyo")
        ranges = premium_ranges(premiums_by_case([case], results, FxRate(150.0)))
        for low, high in ranges.values():
            assert low == high

    def test_duplicate_club_rows_rejected(self):
        records = bundled_jleague_dataset()
        tokyo = next(r for r in records if r.name == "FC Tokyo")
        results = valuate_all(records + [tokyo])
        with pytest.raises(DomainError, match="FC Tokyo"):
            premiums_by_case(bundled_transactions(), results, FxRate(150.0))

    def test_no_priced_cases_is_empty_input(self):
        records = bundled_jleague_dataset()
        results = valuate_all(records)
        sagan = [c for c in bundled_transactions() if c.club == "Sagan Tosu"]
        with pytest.raises(EmptyInput):
            premium_ranges(premiums_by_case(sagan, results, FxRate(150.0)))

    def test_stake_bounds(self):
        case = next(c for c in bundled_transactions() if c.club == "FC Tokyo")
        with pytest.raises(DomainError):
            transaction_premium(case, 10.0, FxRate(150.0), stake=0.0)
        with pytest.raises(DomainError):
            transaction_premium(case, 10.0, FxRate(150.0), stake=1.5)
        with pytest.raises(DomainError):
            transaction_premium(case, 10.0, FxRate(150.0), stake="x")
        # Refused before the loop, so also when no case matches.
        with pytest.raises(DomainError):
            premiums_by_case([], [], FxRate(150.0), stake=1.5)

    def test_model_name_is_one_line(self):
        # The name becomes a table cell: a line break would split its row
        # in md and text output. An empty name stays allowed.
        case = next(c for c in bundled_transactions() if c.club == "FC Tokyo")
        assert transaction_premium(case, 10.0, FxRate(150.0), model_name="").model_name == ""
        for name in ("a\nb", "a\rb", None, 1.0):
            with pytest.raises(DomainError, match="FC Tokyo: model name must be a one-line string"):
                transaction_premium(case, 10.0, FxRate(150.0), model_name=name)

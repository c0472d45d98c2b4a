"""Apply the two published firm-value formulae to club records.

FV1 combines SNS followers (millions) with revenue; FV2 combines SNS
followers with player market value. Both are through-origin linear
models whose coefficients live in the bundled reference tables, so the
constants here and the published inference block share one source.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from . import reference_data
from ._record import finite, one_line, record, refuse
from .dataset import ClubRecord, FxRate, TransactionCase, predictor_reader
from .errors import (
    DegenerateRatio,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    MissingPrice,
)

# The stake priced when none is given: the 51% that each bundled transaction price buys.
DEFAULT_STAKE = 0.51


@record
class ValuationModel:
    """A named linear through-origin formula.

    terms maps predictor ids, each given once, to coefficients in
    millions of euros per predictor unit; there is no intercept term.
    The name is a non-empty one-line string, each id a one-line string.
    """

    name: str
    terms: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        name, terms = self.name, self.terms
        one_line(name, None, "model name", "model name")
        if not isinstance(terms, tuple) or not terms or any(
                not isinstance(term, tuple) or len(term) != 2 for term in terms):
            refuse(name, "terms", "be a non-empty tuple of (id, coefficient) tuples", terms)
        ids = [vid for vid, _ in terms]
        for vid, coef in terms:
            one_line(vid, name, "term id")
            if ids.count(vid) > 1:
                raise DomainError(f"{name}: term {vid} is given twice")
            finite(coef, name, f"coefficient for {vid}")


def _model_from_published(name: str) -> ValuationModel:
    rows = reference_data.PUBLISHED_FIT_STATISTICS[name]["rows"]
    return ValuationModel(
        name=name,
        terms=tuple((vid, coef) for vid, coef, _se, _t, _p in rows),
    )


# The published blocks are listed in formula order; the names live there.
FORMULA_1, FORMULA_2 = map(
    _model_from_published, reference_data.PUBLISHED_FIT_STATISTICS
)


@record
class ValuationResult:
    """Per-club firm values and their ratio (fv1/fv2 in percent)."""

    club: str
    fv1: float
    fv2: float
    ratio_pct: float


@record
class PremiumResult:
    """Model-implied value of an acquisition stake against the price paid.

    premium is a fraction: 6.03 means the implied value was 603 percent
    above the actual transaction price.
    """

    club: str
    model_name: str
    implied_stake_value_myen: float
    premium: float


@record
class AggregateRow:
    """Mean and median summary of a valuation table.

    Ratio aggregation is ambiguous, so both readings are carried:
    mean_of_ratios_pct averages the per-club fv1/fv2 percentages, while
    ratio_of_means_pct divides mean fv1 by mean fv2. The rendered
    Average row uses mean-of-ratios, which matches the reported 342.0
    percent on the bundled data (ratio-of-means gives 350.2).
    """

    mean_sns: float
    median_sns: float
    mean_revenue: float
    median_revenue: float
    mean_pmv: float
    median_pmv: float
    mean_fv1: float
    median_fv1: float
    mean_fv2: float
    median_fv2: float
    mean_of_ratios_pct: float
    median_of_ratios_pct: float
    ratio_of_means_pct: float


def _evaluator(model: ValuationModel) -> Callable[[ClubRecord], float]:
    """The model as a function of a club, its predictor ids resolved once."""
    terms = tuple((coef, predictor_reader(vid)) for vid, coef in model.terms)

    def evaluate(record: ClubRecord) -> float:
        # Plain adds, left to right from 0, with no generator per club.
        value = 0
        for coef, read in terms:
            value += coef * read(record)
        return value

    return evaluate


def valuate_all(
    records: list[ClubRecord],
    f1: ValuationModel = FORMULA_1,
    f2: ValuationModel = FORMULA_2,
) -> list[ValuationResult]:
    """Each club's firm values and ratio, both models' terms resolved once."""
    if not isinstance(records, list):
        refuse(None, "records", "be a list of club records", records)
    fv1_of, fv2_of = _evaluator(f1), _evaluator(f2)
    results = []
    for record in records:
        if not isinstance(record, ClubRecord):
            refuse(None, "records", "hold only club records", record)
        fv1, fv2 = fv1_of(record), fv2_of(record)
        if fv2 == 0.0:
            raise DegenerateRatio(f"{record.name}: fv2 is zero, ratio undefined")
        ratio_pct = 100.0 * fv1 / fv2
        if not (math.isfinite(fv1) and math.isfinite(fv2) and math.isfinite(ratio_pct)):
            raise DomainError(
                f"{record.name}: firm values {fv1}, {fv2} or their ratio "
                "exceed the float range"
            )
        results.append(ValuationResult(record.name, fv1, fv2, ratio_pct))
    return results


def _mean(values: list[float]) -> float:
    """Arithmetic mean, also of values whose sum exceeds the float range.

    The same float as statistics.fmean, which is this expression; the
    statistics module itself is loaded only when the sum overflows.
    """
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        import statistics

        # mean sums exactly, in fractions; a mean of finite values is finite.
        return statistics.mean(values)


def _median(values: list[float]) -> float:
    """Median, also of values whose middle pair sums past the float range.

    The same float as statistics.median: the middle value, or the
    midpoint of the middle pair.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    median = (ordered[mid - 1] + ordered[mid]) / 2
    if math.isinf(median):
        # Finite values, so the midpoint overflowed: halve before adding.
        median = ordered[mid - 1] / 2 + ordered[mid] / 2
    return median


def _require_paired(results: list[ValuationResult], records: list[ClubRecord]) -> None:
    """DimensionMismatch unless results and records are the same clubs in
    the same order."""
    if len(results) != len(records):
        raise DimensionMismatch(f"{len(results)} results for {len(records)} records")
    for res, rec in zip(results, records):
        if res.club != rec.name:
            raise DimensionMismatch(
                f"result for {res.club!r} paired with record {rec.name!r}"
            )


def aggregate(
    results: list[ValuationResult], records: list[ClubRecord]
) -> AggregateRow:
    """Mean and median rows over a valuation table.

    results and records must correspond pairwise (same clubs, same
    order). Medians use the middle element for odd counts and the
    midpoint of the two middle elements for even counts.
    """
    if not results or not records:
        raise EmptyInput("aggregate needs at least one club")
    _require_paired(results, records)

    sns = [float(r.sns_followers) for r in records]
    revenue = [r.revenue_meur for r in records]
    pmv = [r.player_market_value_meur for r in records]
    fv1 = [r.fv1 for r in results]
    fv2 = [r.fv2 for r in results]
    ratios = [r.ratio_pct for r in results]
    mean_fv1 = _mean(fv1)
    mean_fv2 = _mean(fv2)
    if mean_fv2 == 0.0:
        raise DegenerateRatio("mean fv2 is zero, ratio-of-means undefined")

    return AggregateRow(
        mean_sns=_mean(sns),
        median_sns=_median(sns),
        mean_revenue=_mean(revenue),
        median_revenue=_median(revenue),
        mean_pmv=_mean(pmv),
        median_pmv=_median(pmv),
        mean_fv1=mean_fv1,
        median_fv1=_median(fv1),
        mean_fv2=mean_fv2,
        median_fv2=_median(fv2),
        mean_of_ratios_pct=_mean(ratios),
        median_of_ratios_pct=_median(ratios),
        ratio_of_means_pct=100.0 * mean_fv1 / mean_fv2,
    )


def transaction_premium(
    case: TransactionCase,
    fv_meur: float,
    fx: FxRate,
    stake: float = DEFAULT_STAKE,
    model_name: str = "",
) -> PremiumResult:
    """Premium of the model-implied stake value over the actual price.

    The implied value of the stake is fv times the exchange rate times
    the stake fraction, in millions of yen; the premium is that value
    divided by the disclosed price, minus one. model_name, the premium's
    table cell, is a one-line string and may be empty.
    """
    if case.price_for_51pct_myen is None:
        raise MissingPrice(f"{case.club}: no disclosed transaction price")
    finite(fv_meur, case.club, "firm value", 0, True)
    finite(stake, None, "stake", 0, True, 1)
    one_line(model_name, case.club, "model name")
    implied = fv_meur * fx.yen_per_euro * stake
    if not math.isfinite(implied):
        raise DomainError(f"{case.club}: implied stake value exceeds the float range")
    return PremiumResult(
        club=case.club,
        model_name=model_name,
        implied_stake_value_myen=implied,
        premium=implied / case.price_for_51pct_myen - 1.0,
    )


def premiums_by_case(
    cases: list[TransactionCase],
    results: list[ValuationResult],
    fx: FxRate,
    stake: float = DEFAULT_STAKE,
) -> list[PremiumResult]:
    """Per-case premiums under both models, skipping undisclosed prices.

    Cases are matched to valuation results by club name; a case whose
    club has no valuation is ignored, and one whose club has more than
    one is rejected.
    """
    finite(stake, None, "stake", 0, True, 1)
    by_club: dict[str, list[ValuationResult]] = {}
    for r in results:
        by_club.setdefault(r.club, []).append(r)
    out: list[PremiumResult] = []
    for case in cases:
        if case.price_for_51pct_myen is None:
            continue
        matches = by_club.get(case.club, [])
        if not matches:
            continue
        if len(matches) > 1:
            raise DomainError(
                f"{case.club!r} matches {len(matches)} valuation rows; "
                "club names must be unique"
            )
        result = matches[0]
        for model, fv in ((FORMULA_1, result.fv1), (FORMULA_2, result.fv2)):
            out.append(
                transaction_premium(case, fv, fx, stake=stake, model_name=model.name)
            )
    return out


def premium_ranges(premiums: list[PremiumResult]) -> dict[str, tuple[float, float]]:
    """Per-model (min, max) premium over the given premiums, as from
    premiums_by_case, keyed by model name in order of first appearance."""
    if not premiums:
        raise EmptyInput("no case with a disclosed price matched a valuation")
    by_model: dict[str, list[float]] = {}
    for p in premiums:
        by_model.setdefault(p.model_name, []).append(p.premium)
    return {name: (min(values), max(values)) for name, values in by_model.items()}

"""Firm-value estimation for football clubs.

Through-origin regression with full inference, two published valuation
formulae, variable-subset selection, transaction premium analysis, and
report rendering to text, CSV, Markdown, and SVG.
"""

from .dataset import (
    ClubRecord,
    EuropeanReference,
    FxRate,
    TransactionCase,
    TransactionPattern,
    bundled_european_reference,
    bundled_jleague_dataset,
    bundled_jleague_reported_values,
    bundled_transactions,
    club_csv,
    parse_club_csv,
    predictor_reader,
    published_fit_statistics,
)
from .errors import ClubValError
from .regression import (
    DesignMatrix,
    RegressionFit,
    ResponseVector,
    fit_through_origin,
)
from .report import (
    RenderSpec,
    ScatterSeries,
    emit_scatter,
    render_premium_table,
    render_regression_table,
    render_selection_table,
    render_valuation_table,
    scale_value,
)
from .selection import CandidateSet, SelectionReport, exhaustive_subsets, stepwise
from .special import t_two_sided_p
from .valuation import (
    FORMULA_1,
    FORMULA_2,
    AggregateRow,
    PremiumResult,
    ValuationModel,
    ValuationResult,
    aggregate,
    premium_ranges,
    premiums_by_case,
    transaction_premium,
    valuate_all,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRow",
    "CandidateSet",
    "ClubRecord",
    "ClubValError",
    "DesignMatrix",
    "EuropeanReference",
    "FORMULA_1",
    "FORMULA_2",
    "FxRate",
    "PremiumResult",
    "RegressionFit",
    "RenderSpec",
    "ResponseVector",
    "ScatterSeries",
    "SelectionReport",
    "TransactionCase",
    "TransactionPattern",
    "ValuationModel",
    "ValuationResult",
    "aggregate",
    "bundled_european_reference",
    "bundled_jleague_dataset",
    "bundled_jleague_reported_values",
    "bundled_transactions",
    "club_csv",
    "emit_scatter",
    "exhaustive_subsets",
    "fit_through_origin",
    "parse_club_csv",
    "predictor_reader",
    "premium_ranges",
    "premiums_by_case",
    "published_fit_statistics",
    "render_premium_table",
    "render_regression_table",
    "render_selection_table",
    "render_valuation_table",
    "scale_value",
    "stepwise",
    "t_two_sided_p",
    "transaction_premium",
    "valuate_all",
]

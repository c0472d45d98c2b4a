"""Firm-value estimation for football clubs.

Through-origin regression with full inference, two published valuation
formulae, variable-subset selection, transaction premium analysis, and
report rendering to text, CSV, Markdown, and SVG.

Each exported name loads its defining module on first use, so importing
the package loads no submodule and a command that never fits never loads
the regression stack.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    "AggregateRow": "valuation",
    "CandidateSet": "selection",
    "ClubRecord": "dataset",
    "ClubValError": "errors",
    "DesignMatrix": "regression",
    "EuropeanReference": "dataset",
    "FORMULA_1": "valuation",
    "FORMULA_2": "valuation",
    "FxRate": "dataset",
    "PremiumResult": "valuation",
    "RegressionFit": "regression",
    "RenderSpec": "report",
    "ResponseVector": "regression",
    "ScatterSeries": "report",
    "SelectionReport": "selection",
    "TransactionCase": "dataset",
    "TransactionPattern": "dataset",
    "ValuationModel": "valuation",
    "ValuationResult": "valuation",
    "aggregate": "valuation",
    "bundled_european_reference": "dataset",
    "bundled_jleague_dataset": "dataset",
    "bundled_jleague_reported_values": "dataset",
    "bundled_transactions": "dataset",
    "club_csv": "dataset",
    "emit_scatter": "report",
    "exhaustive_subsets": "selection",
    "fit_through_origin": "regression",
    "parse_club_csv": "dataset",
    "predictor_reader": "dataset",
    "premium_ranges": "valuation",
    "premiums_by_case": "valuation",
    "published_fit_statistics": "dataset",
    "render_premium_table": "report",
    "render_regression_table": "report",
    "render_selection_table": "report",
    "render_valuation_table": "report",
    "scale_value": "report",
    "stepwise": "selection",
    "t_two_sided_p": "special",
    "transaction_premium": "valuation",
    "valuate_all": "valuation",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, imported from its module on first use and kept."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value

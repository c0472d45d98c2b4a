import clubval


def test_every_exported_name_resolves():
    # A function removed from the package but left in __all__ breaks
    # `from clubval import *` with an AttributeError.
    assert [name for name in clubval.__all__ if not hasattr(clubval, name)] == []
    namespace: dict = {}
    exec("from clubval import *", namespace)
    assert set(clubval.__all__) <= namespace.keys()


def test_public_names_are_pinned():
    # A name joins or leaves the public API only by an edit here.
    assert clubval.__all__ == [
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

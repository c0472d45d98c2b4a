import importlib
import importlib.util
import sys
from pathlib import Path

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


def test_benchmark_tracer_names_resolve(monkeypatch):
    # bench/tracer.py wraps these module-level names from outside the
    # package, so renaming one would otherwise break only a benchmark run.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("clubval_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    unresolved = [
        (module, attr)
        for module, attr, *_ in tracer.SPANNED + tracer.TALLIED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer.SPANNED and tracer.TALLIED and unresolved == []

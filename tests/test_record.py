"""Every record class behaves as the frozen dataclass it replaced.

The oracle is the standard library: each sample is mirrored by a frozen
dataclass with the same name and fields, built with make_dataclass.
"""

import dataclasses
import math

import numpy as np
import pytest

from clubval import dataset, regression, report, selection, valuation
from clubval._record import record
from clubval.dataset import (
    ClubRecord,
    EuropeanReference,
    FxRate,
    TransactionCase,
    TransactionPattern,
)
from clubval.errors import ClubValError, DomainError
from clubval.regression import (
    DesignMatrix,
    RegressionFit,
    ResponseVector,
    fit_through_origin,
)
from clubval.report import RenderSpec, ScatterSeries
from clubval.selection import CandidateSet, RankedModel, SelectionReport
from clubval.valuation import (
    AggregateRow,
    PremiumResult,
    ValuationModel,
    ValuationResult,
)

_DESIGN = DesignMatrix(("a", "b"), np.array([[1.0, 0.5], [2.0, 1.0], [3.0, 4.0]]))
_RESPONSE = ResponseVector("y", np.array([1.0, 2.5, 3.5]))
_FIT = fit_through_origin(_DESIGN, _RESPONSE)
_RANKED = RankedModel(("a", "b"), _FIT, False)

# Each record class with field values in declaration order, and the
# fields that have defaults with those defaults.
SAMPLES = [
    (FxRate, {"yen_per_euro": 140.0}, {"yen_per_euro": 150.0}),
    (
        ClubRecord,
        {
            "name": "Urawa Reds", "league": "J1", "sns_followers": 807734,
            "revenue_meur": 54.18, "player_market_value_meur": 28.55,
            "broadcasting_meur": 3.0, "wage_cost_ratio": 0.5,
            "player_wages_meur": 12.0, "stadium_owned": True,
        },
        {
            "broadcasting_meur": None, "wage_cost_ratio": None,
            "player_wages_meur": None, "stadium_owned": None,
        },
    ),
    (
        TransactionCase,
        {
            "club": "FC Tokyo", "pattern": TransactionPattern.SHARE_TRANSFER,
            "par_value_kyen": None, "stock_price_kyen": 50.0,
            "price_for_51pct_myen": 1200.0, "method_label": "share transfer",
        },
        {},
    ),
    (EuropeanReference, {"club": "C", "ev_kpmg": 3.0, "fv1": 2.0, "fv2": 1.0}, {}),
    (DesignMatrix, {"variable_ids": _DESIGN.variable_ids, "array": _DESIGN.array}, {}),
    (ResponseVector, {"variable_id": "y", "values": _RESPONSE.values}, {}),
    (
        RegressionFit,
        {
            name: getattr(_FIT, name)
            for name in (
                "variable_ids", "coefficients", "standard_errors", "t_stats",
                "r_squared", "adjusted_r_squared", "multiple_r",
                "standard_error_of_regression", "n_observations", "dof",
            )
        },
        {},
    ),
    (CandidateSet, {"design": _DESIGN, "response": _RESPONSE}, {}),
    (RankedModel, {"variable_ids": ("a", "b"), "fit": _FIT, "all_significant": False}, {}),
    (
        SelectionReport,
        {"ranked_models": (_RANKED,), "skipped": (("c",),), "converged": False},
        {"skipped": (), "converged": True},
    ),
    (ValuationModel, {"name": "F", "terms": (("revenue_meur", 2.0),)}, {}),
    (ValuationResult, {"club": "C", "fv1": 2.0, "fv2": 1.0, "ratio_pct": 200.0}, {}),
    (
        PremiumResult,
        {"club": "C", "model_name": "F", "implied_stake_value_myen": 3.0, "premium": 0.5},
        {},
    ),
    (
        AggregateRow,
        {
            name: float(i)
            for i, name in enumerate((
                "mean_sns", "median_sns", "mean_revenue", "median_revenue",
                "mean_pmv", "median_pmv", "mean_fv1", "median_fv1", "mean_fv2",
                "median_fv2", "mean_of_ratios_pct", "median_of_ratios_pct",
                "ratio_of_means_pct",
            ))
        },
        {},
    ),
    (RenderSpec, {"format": "csv", "scale": "log10"}, {"format": "text", "scale": "linear"}),
    (ScatterSeries, {"label": "FV", "points": ((1.0, 2.0, "C"),)}, {}),
]
UNPRINTED = {DesignMatrix: {"array"}}


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def _dataclass_twin(cls, values: dict):
    """A frozen dataclass of the same name and fields, holding the same values."""
    twin = dataclasses.make_dataclass(
        cls.__qualname__,
        [(name, object, dataclasses.field(repr=name not in UNPRINTED.get(cls, ())))
         for name in values],
        frozen=True,
    )
    return twin(**values)


@pytest.fixture(params=SAMPLES, ids=[cls.__name__ for cls, _, _ in SAMPLES])
def sample(request):
    return request.param


def test_every_record_class_is_sampled():
    records = {
        obj
        for module in (dataset, regression, report, selection, valuation)
        for obj in vars(module).values()
        if isinstance(obj, type) and "_fields" in vars(obj)
    }
    assert records == {cls for cls, _, _ in SAMPLES}
    assert len(records) == 16


def test_fields_in_declaration_order(sample):
    cls, values, _ = sample
    assert cls._fields == tuple(values)


def test_repr_is_the_dataclass_repr(sample):
    cls, values, _ = sample
    rec = cls(*values.values())
    assert repr(rec) == repr(_dataclass_twin(cls, values))
    for name in UNPRINTED.get(cls, ()):
        assert f"{name}=" not in repr(rec)


def test_equal_instances_compare_and_hash_equal(sample):
    cls, values, _ = sample
    a, b = cls(*values.values()), cls(*values.values())
    assert a == b and not a != b
    if _hashable(values.values()):
        assert hash(a) == hash(b) == hash(_dataclass_twin(cls, values))
    else:
        # numpy arrays are unhashable, so a dataclass holding one is too; a
        # design or response compares and hashes by its values, as from lists.
        listed = cls(*[v.tolist() if isinstance(v, np.ndarray) else v for v in values.values()])
        assert a == listed and hash(a) == hash(b) == hash(listed)


def test_unequal_fields_compare_unequal():
    assert FxRate(140.0) != FxRate(150.0)
    assert ValuationResult("C", 2.0, 1.0, 200.0) != ValuationResult("C", 2.0, 1.0, 201.0)


def test_never_equal_to_another_class_with_the_same_values(sample):
    cls, values, _ = sample
    rec = cls(*values.values())
    other = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(values, "object")}))
    assert rec != other(*values.values())
    assert rec != _dataclass_twin(cls, values)
    assert rec != tuple(values.values())


def test_fields_cannot_be_assigned_or_deleted(sample):
    cls, values, _ = sample
    rec = cls(*values.values())
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is value or getattr(rec, name) == value
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_positional_keyword_and_default_construction(sample):
    cls, values, defaults = sample
    positional = cls(*values.values())
    assert cls(**values) == positional
    assert cls(**dict(reversed(values.items()))) == positional
    required = [value for name, value in values.items() if name not in defaults]
    by_default = cls(*required)
    for name in values:
        actual, expected = getattr(by_default, name), defaults.get(name, values[name])
        assert actual is expected or actual == expected


def test_missing_or_unknown_argument_is_a_type_error():
    with pytest.raises(TypeError, match="ValuationResult"):
        ValuationResult("C", 2.0, 1.0)
    with pytest.raises(TypeError):
        FxRate(yen=150.0)


def test_post_init_runs():
    with pytest.raises(DomainError, match="yen_per_euro"):
        FxRate(0.0)


def test_field_without_default_after_one_with_a_default_is_refused():
    with pytest.raises(TypeError, match="without a default"):
        record(type("Bad", (), {"__annotations__": {"a": "int", "b": "int"}, "a": 1}))


# The records whose fields the judges check, and values of every wrong kind.
JUDGED = [
    FxRate, ClubRecord, TransactionCase, EuropeanReference, ValuationModel, ScatterSeries,
    DesignMatrix, ResponseVector,
]
ODD_VALUES = [None, object(), "a\nb", True, 10**5000, math.nan, -1, ("x",)]


@pytest.mark.parametrize("cls", JUDGED, ids=[cls.__name__ for cls in JUDGED])
def test_any_field_value_is_accepted_or_a_clubval_error(cls):
    values = next(values for sample, values, _ in SAMPLES if sample is cls)
    for name in values:
        for odd in ODD_VALUES:
            try:
                cls(**{**values, name: odd})
            except ClubValError:
                pass

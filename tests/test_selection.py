import itertools

import numpy as np
import pytest

from clubval.errors import (
    DimensionMismatch,
    DomainError,
    MissingPredictor,
    TooManyCandidates,
)
from clubval.regression import DesignMatrix, ResponseVector, fit_through_origin
from clubval.selection import CandidateSet, exhaustive_subsets, stepwise


def _two_signal_candidates(seed=424, n=40, noise_cols=1):
    """y depends on x1 and x2; remaining candidates are pure noise."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(1.0, 9.0, size=n)
    x2 = rng.uniform(1.0, 9.0, size=n)
    y = 3.0 * x1 + 2.0 * x2 + 0.4 * rng.standard_normal(n)
    columns = [("x1", x1), ("x2", x2)]
    for j in range(noise_cols):
        columns.append((f"noise{j + 1}", rng.uniform(1.0, 9.0, size=n)))
    return CandidateSet.from_columns(columns, ResponseVector("y", y))


def _pure_noise_candidates(seed=77, n=30, k=3):
    rng = np.random.default_rng(seed)
    # Response centered on zero so no origin-anchored direction helps.
    y = rng.standard_normal(n)
    columns = [(f"n{j}", rng.uniform(1.0, 5.0, size=n)) for j in range(k)]
    return CandidateSet.from_columns(columns, ResponseVector("y", y))


class TestExhaustive:
    def test_subset_count_six_choose_up_to_two(self):
        rng = np.random.default_rng(3)
        n = 25
        columns = [(f"c{j}", rng.uniform(1.0, 5.0, size=n)) for j in range(6)]
        y = rng.uniform(1.0, 5.0, size=n)
        cands = CandidateSet.from_columns(columns, ResponseVector("y", y))
        report = exhaustive_subsets(cands, max_size=2)
        assert len(report.ranked_models) + len(report.skipped) == 21

    def test_recovers_true_pair(self):
        report = exhaustive_subsets(_two_signal_candidates(), max_size=2)
        assert report.best.variable_ids == ("x1", "x2")
        assert report.best.all_significant

    def test_single_candidate(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(1.0, 5.0, size=12)
        y = 2.0 * x + 0.1 * rng.standard_normal(12)
        cands = CandidateSet.from_columns(
            [("only", x)], ResponseVector("y", y)
        )
        report = exhaustive_subsets(cands, max_size=1)
        assert len(report.ranked_models) == 1
        assert report.best.variable_ids == ("only",)

    def test_rank_deficient_subsets_are_skipped(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(1.0, 5.0, size=20)
        y = 2.0 * x + 0.1 * rng.standard_normal(20)
        cands = CandidateSet.from_columns(
            [("a", x), ("twin", x.copy())], ResponseVector("y", y)
        )
        report = exhaustive_subsets(cands, max_size=2)
        assert ("a", "twin") in report.skipped
        assert {m.variable_ids for m in report.ranked_models} == {("a",), ("twin",)}

    def test_too_many_candidates(self):
        rng = np.random.default_rng(0)
        n = 30
        columns = [(f"c{j}", rng.uniform(1.0, 5.0, size=n)) for j in range(13)]
        cands = CandidateSet.from_columns(
            columns, ResponseVector("y", rng.uniform(1.0, 5.0, size=n))
        )
        with pytest.raises(TooManyCandidates):
            exhaustive_subsets(cands, max_size=2)

    def test_max_size_bounds(self):
        cands = _two_signal_candidates()
        with pytest.raises(DomainError):
            exhaustive_subsets(cands, max_size=0)
        with pytest.raises(DomainError):
            exhaustive_subsets(cands, max_size=99)

    def test_ranking_is_deterministic(self):
        first = exhaustive_subsets(_two_signal_candidates(), max_size=3)
        second = exhaustive_subsets(_two_signal_candidates(), max_size=3)
        assert [m.variable_ids for m in first.ranked_models] == [
            m.variable_ids for m in second.ranked_models
        ]
        assert repr(first.ranked_models) == repr(second.ranked_models)

    def test_ranking_orders_by_adjusted_r_squared(self):
        report = exhaustive_subsets(_two_signal_candidates(), max_size=3)
        values = [m.fit.adjusted_r_squared for m in report.ranked_models]
        assert values == sorted(values, reverse=True)


class TestStepwise:
    def test_selects_single_strong_candidate(self):
        rng = np.random.default_rng(91)
        n = 30
        x = rng.uniform(1.0, 9.0, size=n)
        y = 4.0 * x + 0.3 * rng.standard_normal(n)
        columns = [("signal", x)]
        for j in range(3):
            columns.append((f"noise{j}", rng.uniform(1.0, 9.0, size=n)))
        cands = CandidateSet.from_columns(columns, ResponseVector("y", y))
        report = stepwise(cands)
        assert report.best.variable_ids == ("signal",)
        assert report.converged

    def test_matches_exhaustive_on_two_signals(self):
        cands = _two_signal_candidates()
        step = stepwise(cands)
        exhaustive = exhaustive_subsets(cands, max_size=2)
        assert step.best.variable_ids == exhaustive.best.variable_ids == ("x1", "x2")

    def test_all_noise_returns_empty_model(self):
        report = stepwise(_pure_noise_candidates())
        assert report.ranked_models == ()
        assert report.best is None
        assert report.converged

    def test_exhaustive_dominance(self):
        cands = _two_signal_candidates(seed=5, noise_cols=2)
        step = stepwise(cands)
        if step.best is None:
            return
        size = len(step.best.variable_ids)
        exhaustive = exhaustive_subsets(cands, max_size=size)
        best_adj = max(
            m.fit.adjusted_r_squared
            for m in exhaustive.ranked_models
            if len(m.variable_ids) == size
        )
        assert step.best.fit.adjusted_r_squared <= best_adj + 1e-12

    def test_alpha_validation(self):
        cands = _two_signal_candidates()
        with pytest.raises(DomainError):
            stepwise(cands, alpha_in=0.2, alpha_out=0.1)
        with pytest.raises(DomainError):
            stepwise(cands, alpha_in=0.0)

    def test_too_many_candidates(self):
        rng = np.random.default_rng(1)
        n = 30
        columns = [(f"c{j}", rng.uniform(1.0, 5.0, size=n)) for j in range(13)]
        cands = CandidateSet.from_columns(
            columns, ResponseVector("y", rng.uniform(1.0, 5.0, size=n))
        )
        with pytest.raises(TooManyCandidates):
            stepwise(cands)


class TestCandidateSet:
    def test_subset_fit_matches_fresh_design(self):
        # design_for must give the same bits as a DesignMatrix built from
        # the chosen columns alone, for every subset.
        rng = np.random.default_rng(8)
        columns = [(f"c{j}", rng.uniform(1.0, 9.0, size=25)) for j in range(5)]
        response = ResponseVector("y", rng.uniform(1.0, 9.0, size=25))
        cands = CandidateSet.from_columns(columns, response)
        by_id = dict(columns)
        for size in range(1, 6):
            for subset in itertools.combinations(("c4", "c0", "c3", "c1", "c2"), size):
                got = fit_through_origin(cands.design_for(subset), response)
                want = fit_through_origin(
                    DesignMatrix.from_columns([(vid, by_id[vid]) for vid in subset]),
                    response,
                )
                assert got.variable_ids == want.variable_ids == subset
                for name in (
                    "coefficients", "standard_errors", "t_stats", "p_values",
                    "residuals", "fitted",
                ):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.adjusted_r_squared.hex() == want.adjusted_r_squared.hex()
                assert got.standard_error_of_regression == want.standard_error_of_regression

    def test_needs_candidates(self):
        with pytest.raises(DimensionMismatch):
            CandidateSet.from_columns([], ResponseVector("y", np.array([1.0])))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionMismatch):
            CandidateSet.from_columns(
                [("a", np.array([1.0, 2.0]))],
                ResponseVector("y", np.array([1.0, 2.0, 3.0])),
            )

    def test_unknown_id_is_missing_predictor(self):
        cands = CandidateSet.from_columns(
            [("a", np.array([1.0, 2.0]))], ResponseVector("y", np.array([1.0, 2.0]))
        )
        for subset in (("b",), ("a", "b")):
            with pytest.raises(MissingPredictor, match="'b'"):
                cands.design_for(subset)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DimensionMismatch):
            CandidateSet.from_columns(
                [("a", np.array([1.0])), ("a", np.array([2.0]))],
                ResponseVector("y", np.array([1.0])),
            )

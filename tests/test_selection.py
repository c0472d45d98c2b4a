import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clubval.errors import (
    DimensionMismatch,
    DomainError,
    MissingPredictor,
    TooManyCandidates,
)
from clubval.dataset import bundled_jleague_dataset, predictor_reader
from clubval.regression import DesignMatrix, ResponseVector, _fit, _gram, fit_through_origin
from clubval.selection import (
    CandidateSet,
    RankedModel,
    SelectionReport,
    exhaustive_subsets,
    stepwise,
)

from oracles import exhaustive_per_fit, stepwise_per_fit


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
        for max_size in (2.5, True):
            with pytest.raises(DomainError, match="max_size must be an integer"):
                exhaustive_subsets(cands, max_size=max_size)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5, math.nan, "x"])
    def test_alpha_validation(self, alpha):
        with pytest.raises(DomainError, match="0 < alpha <= 1"):
            exhaustive_subsets(_two_signal_candidates(), max_size=2, alpha=alpha)

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

    def test_non_finite_candidate_is_named(self):
        cands = _two_signal_candidates(noise_cols=2)
        x = cands.design.array.copy()
        x[7, 1] = math.nan
        bad = CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)
        with pytest.raises(DomainError, match=r"predictor\(s\) x2$"):
            exhaustive_subsets(bad, max_size=2)


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

    @pytest.mark.parametrize(
        "alpha_in, alpha_out",
        [
            (0.2, 0.1),
            (0.0, 0.1),
            (-1.0, 0.1),
            (0.05, 1.5),
            (math.nan, 0.1),
            (0.05, math.nan),
            (None, 0.1),
        ],
        ids=["in-above-out", "zero-in", "negative-in", "out-above-1", "nan-in", "nan-out",
             "none-in"],
    )
    def test_alpha_validation(self, alpha_in, alpha_out):
        with pytest.raises(DomainError, match="0 < alpha_in <= alpha_out <= 1"):
            stepwise(_two_signal_candidates(), alpha_in=alpha_in, alpha_out=alpha_out)

    def test_overflowing_candidate_is_named(self):
        cands = _two_signal_candidates(noise_cols=2)
        x = cands.design.array.copy()
        x[:, 2] *= 1e200
        huge = CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)
        with pytest.raises(DomainError, match=r"predictor\(s\) noise1$"):
            stepwise(huge)

    def test_duplicate_column_is_never_selected(self):
        # Every trial holding both x1 and its copy is rank deficient.
        cands = _two_signal_candidates()
        x = cands.design.array
        twin = CandidateSet.from_columns(
            [("x1", x[:, 0]), ("x1_copy", x[:, 0].copy()), ("x2", x[:, 1])],
            cands.response,
        )
        report = stepwise(twin)
        assert report.best.variable_ids == ("x1", "x2")

    def test_trials_with_too_few_rows_are_skipped(self):
        # n = 3: a trial of 3 or 4 variables has no residual degree of
        # freedom, so it is skipped rather than raised.
        rng = np.random.default_rng(4)
        columns = [(f"c{j}", rng.uniform(1.0, 9.0, size=3)) for j in range(4)]
        y = 2.0 * columns[0][1] + columns[1][1]
        report = stepwise(CandidateSet.from_columns(columns, ResponseVector("y", y)))
        assert report.best is None or len(report.best.variable_ids) <= 2


def _independent_candidates(seed, n, k, nulls):
    """n rows, k candidates of different magnitudes with no exact linear
    dependency; the last `nulls` have no effect on y."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 1.0, (n, k)) * rng.uniform(1.0, 100.0, k)
    beta = rng.uniform(0.5, 3.0, k)
    beta[k - nulls:] = 0.0
    signal = x @ beta
    y = signal + rng.normal(0.0, 0.3 * signal.std(), n)
    return CandidateSet.from_columns(
        [(f"v{j}", x[:, j]) for j in range(k)], ResponseVector("y", y)
    )


def _bundled_candidates():
    records = bundled_jleague_dataset()
    ids = ("sns_followers_m", "revenue_meur", "player_market_value_meur")
    for response in ids:
        yield CandidateSet.from_columns(
            [(vid, list(map(predictor_reader(vid), records))) for vid in ids if vid != response],
            ResponseVector(response, list(map(predictor_reader(response), records))),
        )


class TestStepwiseAgainstPerFitReference:
    """The Gram-matrix search against the loop that fitted every trial."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(1, 8),
        data=st.data(),
    )
    def test_trial_fit_matches_full_fit(self, seed, n, k, data):
        # A stepwise trial: the kernel on a principal block of the Gram
        # matrix of all candidates, against a fresh fit of the columns.
        cands = _independent_candidates(seed, n, k, nulls=k // 2)
        idx = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=min(k, 4))))
        gram = _gram(cands.design, cands.response)
        subset = tuple(cands.variable_ids[j] for j in idx)
        if n <= len(idx):
            assert _fit(cands.design, cands.response, gram, [idx]) == [None]
            return
        got = _fit(cands.design, cands.response, gram, [idx])[0]
        want = fit_through_origin(cands.design_for(subset), cands.response)
        assert got.variable_ids == subset
        np.testing.assert_allclose(got.p_values, want.p_values, rtol=0.0, atol=1e-10)
        scale = np.abs(want.coefficients).max()
        np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=0.0, atol=1e-9 * scale)
        np.testing.assert_allclose(got.standard_errors, want.standard_errors, rtol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(3, 8),
        collinear=st.booleans(),
        data=st.data(),
    )
    def test_stacked_rows_match_single_fits(self, seed, n, k, collinear, data):
        # One stacked kernel call against the one-row stack of each row's
        # columns. With c2 = c0 + c1 a row holding all three is rank
        # deficient: None in both.
        cands = _independent_candidates(seed, n, k, nulls=k // 2)
        x = cands.design.array.copy()
        if collinear:
            x[:, 2] = x[:, 0] + x[:, 1]
        design, response = DesignMatrix(cands.variable_ids, x), cands.response
        size = data.draw(st.integers(3 if collinear else 1, min(k, 4)))
        subsets = st.lists(st.integers(0, k - 1), min_size=size, max_size=size, unique=True)
        rows = [sorted(row) for row in data.draw(st.lists(subsets, min_size=1, max_size=6))]
        if collinear:
            rows.append(sorted({0, 1, 2} | set(range(3, size))))
        gram = _gram(design, response)
        stacked = _fit(design, response, gram, rows)
        if n <= size:
            assert stacked == [None] * len(rows)
            return
        assert len(stacked) == len(rows)
        for row, got in zip(rows, stacked):
            want = _fit(design, response, gram, [row])[0]
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert got.variable_ids == want.variable_ids
            assert got.dof == want.dof
            assert got.residuals is None and got.fitted is None
            np.testing.assert_allclose(got.p_values, want.p_values, rtol=0.0, atol=1e-10)
            scale = np.abs(want.coefficients).max()
            np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=0.0, atol=1e-9 * scale)
            np.testing.assert_allclose(got.standard_errors, want.standard_errors, rtol=1e-9)

    @pytest.mark.parametrize(
        "designs",
        [
            pytest.param(lambda: (_independent_candidates(s, 2_000, 8, 3) for s in range(20)), id="tall"),
            pytest.param(lambda: (_independent_candidates(s, 60, 12, 6) for s in range(20)), id="wide"),
            # More candidates than the exhaustive search accepts.
            pytest.param(lambda: (_independent_candidates(s, 200, 16, 8) for s in range(5)), id="past-cap"),
            pytest.param(_bundled_candidates, id="bundled"),
        ],
    )
    def test_same_selection_and_final_fit(self, designs):
        for cands in designs():
            report = stepwise(cands)
            want_ids, want_converged = stepwise_per_fit(cands)
            assert report.converged == want_converged
            if want_ids is None:
                assert report.best is None
                continue
            assert report.best.variable_ids == want_ids
            # The fit the search decided with, held to a fresh fit of its
            # columns as the exhaustive search's fits are.
            assert report.best.fit.residuals is None and report.best.fit.fitted is None
            want = fit_through_origin(cands.design_for(want_ids), cands.response)
            ranked = RankedModel(want_ids, want, bool((want.p_values <= 0.05).all()))
            TestExhaustiveAgainstPerFitReference._assert_same_report(
                report, SelectionReport((ranked,))
            )


class TestExhaustiveAgainstPerFitReference:
    """The search, one stacked fit per subset size from one Gram matrix,
    against the loop that fitted every subset on its own columns."""

    @staticmethod
    def _assert_same_report(got, want):
        assert got.skipped == want.skipped
        assert {m.variable_ids for m in got.ranked_models} == {
            m.variable_ids for m in want.ranked_models
        }
        by_ids = {m.variable_ids: m for m in want.ranked_models}
        for model in got.ranked_models:
            ref = by_ids[model.variable_ids]
            fit, ref_fit = model.fit, ref.fit
            assert fit.variable_ids == model.variable_ids
            assert fit.residuals is None and fit.fitted is None
            assert fit.dof == ref_fit.dof
            scale = np.abs(ref_fit.coefficients).max()
            np.testing.assert_allclose(fit.coefficients, ref_fit.coefficients, rtol=0.0, atol=1e-9 * scale)
            np.testing.assert_allclose(fit.standard_errors, ref_fit.standard_errors, rtol=1e-9)
            np.testing.assert_allclose(fit.p_values, ref_fit.p_values, rtol=0.0, atol=1e-10)
            assert abs(fit.adjusted_r_squared - ref_fit.adjusted_r_squared) <= 1e-12
            assert model.all_significant == ref.all_significant
        # The order is the reference's, but for runs of models whose
        # adjusted R^2 tie within 1e-12 (equal spans), which rounding orders.
        group, tie_group = 0, {}
        previous = None
        for m in want.ranked_models:
            if previous is not None and previous - m.fit.adjusted_r_squared > 1e-12:
                group += 1
            tie_group[m.variable_ids] = group
            previous = m.fit.adjusted_r_squared
        groups = [tie_group[m.variable_ids] for m in got.ranked_models]
        assert groups == sorted(groups)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 80),
        k=st.integers(2, 7),
        collinear=st.booleans(),
        cut=st.integers(0, 6),
    )
    # n <= s for sizes 4 to 6, and c2 = c0 + c1.
    @example(seed=1, n=4, k=6, collinear=True, cut=0)
    # max_size < k.
    @example(seed=2, n=40, k=7, collinear=True, cut=3)
    def test_same_report_as_per_subset_fits(self, seed, n, k, collinear, cut):
        cands = _independent_candidates(seed, n, k, nulls=k // 2)
        if collinear and k >= 3:
            x = cands.design.array.copy()
            x[:, 2] = x[:, 0] + x[:, 1]
            cands = CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)
        max_size = max(1, k - cut)
        self._assert_same_report(
            exhaustive_subsets(cands, max_size), exhaustive_per_fit(cands, max_size)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ten_candidates_with_a_sum_column(self, seed):
        # The bench's shape: 1,023 subsets at n = 60, the 128 holding c0,
        # c1 and c2 = c0 + c1 skipped, and equal-span ties among the rest.
        cands = _independent_candidates(seed, 60, 10, nulls=5)
        x = cands.design.array.copy()
        x[:, 2] = x[:, 0] + x[:, 1]
        cands = CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)
        got = exhaustive_subsets(cands, 10)
        assert len(got.ranked_models) == 895 and len(got.skipped) == 128
        self._assert_same_report(got, exhaustive_per_fit(cands, 10))


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

    def test_columns_must_be_pairs(self):
        with pytest.raises(DomainError, match=r"columns must be \(id, values\) pairs"):
            CandidateSet.from_columns([("a",)], ResponseVector("y", np.array([1.0])))

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

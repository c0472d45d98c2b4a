import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clubval.errors import (
    DimensionMismatch,
    DomainError,
    InsufficientObservations,
    MissingPredictor,
    RankDeficient,
    TooManyCandidates,
)
from clubval import regression, selection, special
from clubval.dataset import bundled_jleague_dataset, predictor_reader
from clubval.regression import DesignMatrix, ResponseVector, _fitter, fit_through_origin
from clubval.selection import (
    CandidateSet,
    RankedModel,
    SelectionReport,
    exhaustive_subsets,
    stepwise,
)
from clubval.special import t_two_sided_p

from oracles import exhaustive_per_fit, fresh_design, stepwise_per_fit


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


def _latent_candidates(seed, n=30, k=6):
    """k candidates and y built on two latent factors, x = z W + 0.3 noise:
    the candidates stand in for one another, so one added early can lose
    its significance once others join it."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    x = z @ rng.standard_normal((2, k)) + 0.3 * rng.standard_normal((n, k))
    y = z @ rng.standard_normal(2) + rng.standard_normal(n)
    return CandidateSet.from_columns(
        [(f"c{j}", x[:, j]) for j in range(k)], ResponseVector("y", y)
    )


# Seeds of _latent_candidates whose stepwise search drops a variable.
_DROPPING_SEEDS = (24, 42, 56)


class TestExhaustive:
    @pytest.mark.parametrize("seed", range(4))
    def test_flags_match_each_models_smallest_t(self, seed):
        # Bisection over each dof's fits flags a model exactly when the p of
        # its smallest |t| is at most alpha: at a random alpha, and at alpha
        # set to one model's p, in both fitter forms, with c2 = c0 + c1 in
        # every other design.
        rng = np.random.default_rng([34, seed])
        n = int(rng.integers(12, 80))
        flags = set()
        for k, form in ((10, np.asarray), (7, list)):
            x = rng.uniform(0.1, 1.0, (n, k)) * rng.uniform(1.0, 100.0, k)
            if seed % 2:
                x[:, 2] = x[:, 0] + x[:, 1]
            signal = x @ (rng.uniform(0.5, 3.0, k) * (rng.random(k) < 0.6))
            y = signal + rng.normal(0.0, rng.uniform(0.2, 2.0) * signal.std() + 1.0, n)
            cands = CandidateSet.from_columns(
                [(f"c{j}", form(x[:, j].tolist())) for j in range(k)],
                ResponseVector("y", form(y.tolist())))
            models = exhaustive_subsets(cands, k).ranked_models
            chosen = models[int(rng.integers(len(models)))].fit
            exact = t_two_sided_p(min(map(abs, chosen.t_stats)), chosen.dof)
            for alpha in (float(rng.uniform(1e-4, 0.3)), exact):
                for model in exhaustive_subsets(cands, k, alpha).ranked_models:
                    fit = model.fit
                    want = t_two_sided_p(min(map(abs, fit.t_stats)), fit.dof) <= alpha
                    assert model.all_significant is want
                    flags.add(want)
        assert flags == {True, False}

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

    def test_overflowing_coefficient_is_named(self):
        # One rule for every fit: b of a and b together passes the float
        # range (see test_regression), so both searches refuse by name.
        x1 = np.arange(1.0, 5.0)
        x2 = x1 + 1e-4 * np.array([1.0, -1.0, 1.0, -1.0])
        cands = CandidateSet.from_columns(
            [("a", 1e-154 * x1), ("b", 1e-154 * x2)],
            ResponseVector("y", 1e153 * np.array([1.0, 3.0, 2.0, 5.0])),
        )
        assert exhaustive_subsets(cands, 1).best.variable_ids == ("a",)
        for search in (lambda: exhaustive_subsets(cands, 2), lambda: stepwise(cands, 0.5, 0.5)):
            with pytest.raises(DomainError, match=r"beyond the float range for predictor\(s\) a, b$"):
                search()

    def test_non_finite_candidate_is_named(self):
        cands = _two_signal_candidates(noise_cols=2)
        x = cands.design.array.copy()
        x[7, 1] = math.nan
        bad = CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)
        with pytest.raises(DomainError, match=r"predictor\(s\) x2$"):
            exhaustive_subsets(bad, max_size=2)


def _recorded_stacks(monkeypatch):
    """Every stack of fits a search's fitter returns, in order."""
    stacks, fitter = [], selection._fitter

    def recording(design, response):
        fit_stack = fitter(design, response)
        return lambda rows: stacks.append(fit_stack(rows)) or stacks[-1]

    monkeypatch.setattr(selection, "_fitter", recording)
    return stacks


class TestStepwise:
    @pytest.mark.parametrize("seed", _DROPPING_SEEDS)
    def test_one_tail_call_per_forward_step(self, seed, monkeypatch):
        # A forward step's trials are of one size: one tail call at their
        # one dof, of one t per fitted trial, reads the added columns'
        # p-values, and no trial forms its own p_values but the winner,
        # whose fit is the first backward check.
        stacks, steps = _recorded_stacks(monkeypatch), []
        tail = special.t_two_sided_p

        def tallied(t, dof):
            if isinstance(t, list):
                steps.append((len(stacks), len(t), dof))
            return tail(t, dof)

        monkeypatch.setattr(selection, "t_two_sided_p", tallied)
        report = stepwise(_latent_candidates(seed))
        assert report.converged and report.best is not None
        assert len(steps) >= 2 and len({at for at, _, _ in steps}) == len(steps)
        for at, width, dof in steps:
            fitted = [f for f in stacks[at - 1] if f is not None]
            assert width == len(fitted) and {f.dof for f in fitted} == {dof}
            assert sum("p_values" in vars(f) for f in fitted) <= 1

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

    @pytest.mark.parametrize("seed", _DROPPING_SEEDS)
    def test_backward_step_drops_a_variable(self, seed, monkeypatch):
        # Every kernel call's row size: a forward step's trials are one larger
        # than the model before it, and a drop's refit one smaller than the
        # trial it drops from, so only a drop makes the size fall.
        sizes = []
        fitter = selection._fitter

        def recording(design, response):
            fit_stack = fitter(design, response)
            return lambda rows: sizes.append(len(rows[0])) or fit_stack(rows)

        monkeypatch.setattr(selection, "_fitter", recording)
        report = stepwise(_latent_candidates(seed))
        assert report.converged and report.best is not None
        assert any(later < size for size, later in zip(sizes, sizes[1:]))

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
        fit_stack = _fitter(cands.design, cands.response)
        subset = tuple(cands.variable_ids[j] for j in idx)
        if n <= len(idx):
            assert fit_stack([idx]) == [None]
            return
        got = fit_stack([idx])[0]
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
        fit_stack = _fitter(design, response)
        stacked = fit_stack(rows)
        if n <= size:
            assert stacked == [None] * len(rows)
            return
        assert len(stacked) == len(rows)
        for row, got in zip(rows, stacked):
            want = fit_stack([row])[0]
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
            pytest.param(lambda: map(_latent_candidates, _DROPPING_SEEDS), id="backward-drop"),
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
            want = fit_through_origin(fresh_design(cands, want_ids), cands.response)
            ranked = RankedModel(want_ids, want, bool((np.asarray(want.p_values) <= 0.05).all()))
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


class TestBoundedBlock:
    """A search over a tall design holds no n-sized array per subset: the
    factor of [X y] is (k+1) x (k+1), and only forming it passes over the
    rows. Here 1,023 subsets at n = 20,000, where one (252, n) block of
    fitted values, the largest size's, would be 40 MB."""

    @staticmethod
    def _tall_candidates():
        cands = _independent_candidates(3, 20_000, 10, nulls=5)
        x = cands.design.array.copy()
        x[:, 2] = x[:, 0] + x[:, 1]
        return CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)

    def test_tall_search_peak_is_bounded(self):
        cands = self._tall_candidates()
        tracemalloc.start()
        try:
            report = exhaustive_subsets(cands, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.ranked_models) == 895 and len(report.skipped) == 128
        assert peak < 16 * 2**20


def _seeded_candidates(seed, n_low=3):
    """1 to 8 candidates over six decades of scale, each with a clear effect
    on y, at n from n_low to 3,000; about one design in four has c2 = c0 + c1."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    n = int(math.exp(rng.uniform(math.log(n_low), math.log(3_000))))
    scale = 10.0 ** rng.integers(-3, 4, k)
    x = rng.standard_normal((n, k)) * scale
    if k >= 3 and rng.random() < 0.25:
        x[:, 2] = x[:, 0] + x[:, 1]
    y = x @ (rng.uniform(0.5, 3.0, k) / scale) + 0.1 * rng.standard_normal(n)
    return CandidateSet.from_columns(
        [(f"v{j}", x[:, j]) for j in range(k)], ResponseVector("y", y)
    )


class TestOneKernel:
    """fit_through_origin is the one-row stack of the kernel both searches
    run. Where a search fits every candidate, it fits them from the same
    Gram matrix as fit_through_origin does, so it gets the same bits. A
    fit of fewer columns does not: a search takes a block of the Gram
    matrix of all candidates, which rounds differently from a fresh one."""

    @staticmethod
    def _assert_same_bits(got, want):
        assert got.variable_ids == want.variable_ids
        for name in ("coefficients", "standard_errors", "t_stats", "p_values"):
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
                getattr(want, name)).tobytes(), name
        for name in ("r_squared", "adjusted_r_squared", "multiple_r",
                     "standard_error_of_regression", "n_observations", "dof"):
            assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name

    @staticmethod
    def _fit_of_all(cands):
        fit = fit_through_origin(cands.design, cands.response)
        x, y = cands.design.array, cands.response.values
        fitted = x @ fit.coefficients
        assert fit.fitted.tobytes() == fitted.tobytes()
        assert fit.residuals.tobytes() == (y - fitted).tobytes()
        return fit

    @pytest.mark.parametrize("seed", range(40))
    def test_exhaustive_row_of_every_candidate(self, seed):
        cands = _seeded_candidates(seed)
        ids = cands.variable_ids
        report = exhaustive_subsets(cands, len(ids))
        rows = [m.fit for m in report.ranked_models if m.variable_ids == ids]
        try:
            want = self._fit_of_all(cands)
        except (InsufficientObservations, RankDeficient):
            assert rows == [] and ids in report.skipped
            return
        assert len(rows) == 1
        self._assert_same_bits(rows[0], want)

    @pytest.mark.parametrize("seed", range(40))
    def test_stepwise_fit_of_every_candidate(self, seed):
        cands = _seeded_candidates(seed, n_low=20)
        report = stepwise(cands)
        try:
            want = self._fit_of_all(cands)
        except RankDeficient:
            assert report.best is not None and report.best.variable_ids != cands.variable_ids
            return
        assert report.best.variable_ids == cands.variable_ids
        self._assert_same_bits(report.best.fit, want)


def _force_form(monkeypatch, form):
    """Make regression._fitter take the given form for every design size."""
    bound = 10**9 if form == "pure" else 0
    monkeypatch.setattr(regression, "_PURE_MAX_COLUMNS", bound)
    monkeypatch.setattr(regression, "_PURE_MAX_ROWS", bound)


def _form_rule_candidates(seed):
    """1 to 9 candidates at n from 2 to 2,500, on both sides of the form
    rule, and whether c2 = c0 + c1, as in about one design in three with
    k >= 3. Subsets are well conditioned or exactly rank deficient, so the
    acceptance tolerances apply to every fit."""
    rng = np.random.default_rng([31, seed])
    k = int(rng.integers(1, 10))
    n = int(math.exp(rng.uniform(math.log(2), math.log(2_500))))
    cands = _independent_candidates(seed, n, k, nulls=k // 2)
    collinear = k >= 3 and rng.random() < 1 / 3
    if collinear:
        x = cands.design.array.copy()
        x[:, 2] = x[:, 0] + x[:, 1]
        cands = CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)
    return cands, collinear


class TestTwoForms:
    """The pure-Python form of the fitter and the numpy form, each forced on
    the same designs."""

    @staticmethod
    def _in_each_form(monkeypatch, cands, run):
        # A fresh candidate set per form: a set keeps the fitter its first
        # search formed, so reusing one would run the first form twice.
        results = []
        for form in ("pure", "numpy"):
            _force_form(monkeypatch, form)
            try:
                results.append(run(CandidateSet(cands.design, cands.response)))
            except (InsufficientObservations, RankDeficient) as exc:
                results.append(type(exc))
        return results

    @pytest.mark.parametrize("seed", range(30))
    def test_forms_agree(self, monkeypatch, seed):
        cands, collinear = _form_rule_candidates(seed)
        k = len(cands.variable_ids)
        pure, numpy_form = self._in_each_form(monkeypatch, cands, lambda c: (
            exhaustive_subsets(c, k), stepwise(c), fit_through_origin(c.design, c.response)))
        if isinstance(pure, type) or isinstance(numpy_form, type):
            # The refusal of the whole design is the same; so are the searches.
            assert pure == numpy_form
            pure, numpy_form = self._in_each_form(
                monkeypatch, cands, lambda c: (exhaustive_subsets(c, k), stepwise(c)))
        # Every fit-or-skip verdict and every all_significant flag, and each
        # field within the acceptance tolerances. With c2 = c0 + c1, models
        # that swap c0 and c1 tie in exact arithmetic, and stepwise breaks
        # such a tie by rounding, so only the exhaustive reports are compared.
        for got, want in zip(pure[:1 if collinear else 2], numpy_form):
            assert got.converged == want.converged
            TestExhaustiveAgainstPerFitReference._assert_same_report(got, want)
        if len(pure) == 3:
            got, want = pure[2], numpy_form[2]
            np.testing.assert_allclose(got.fitted, want.fitted, rtol=1e-9, atol=0.0)
            scale = np.abs(want.coefficients).max()
            np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=0.0, atol=1e-9 * scale)
            np.testing.assert_allclose(got.standard_errors, want.standard_errors, rtol=1e-9)
            np.testing.assert_allclose(got.p_values, want.p_values, rtol=0.0, atol=1e-10)
            for name in ("r_squared", "adjusted_r_squared", "multiple_r"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)
            assert got.standard_error_of_regression == pytest.approx(
                want.standard_error_of_regression, rel=1e-9)

    @pytest.mark.parametrize("form", ["pure", "numpy"])
    def test_results_compare_and_hash_by_value(self, monkeypatch, form):
        _force_form(monkeypatch, form)
        rng = np.random.default_rng(12)
        x = rng.uniform(1.0, 9.0, (30, 4))
        y = x @ [1.0, 0.5, 0.0, 2.0] + rng.standard_normal(30)

        def build():
            # Fresh lists, so no two builds share an object.
            return CandidateSet.from_columns(
                [(f"c{j}", x[:, j].tolist()) for j in range(4)], ResponseVector("y", y.tolist())
            )

        one, two = build(), build()
        for got, want in (
            (fit_through_origin(one.design, one.response),
             fit_through_origin(two.design, two.response)),
            (exhaustive_subsets(one, 4), exhaustive_subsets(two, 4)),
            (exhaustive_subsets(one, 4).best, exhaustive_subsets(two, 4).best),
            (stepwise(one), stepwise(two)),
        ):
            assert got is not want and got == want and hash(got) == hash(want)
        other = fit_through_origin(one.design, ResponseVector("y", (y + 1.0).tolist()))
        assert other != fit_through_origin(one.design, one.response)

    @pytest.mark.parametrize("n, pure", [(60, True), (1_000, True), (1_001, False)])
    def test_rule_and_tail_widths(self, monkeypatch, n, pure):
        # 7 candidates: a full search of 127 fits flags the m fits of each
        # size, one dof, by bisection, in at most m.bit_length() + 1 tail
        # calls of one t each, in either form.
        cands = _independent_candidates(5, n, 7, nulls=3)
        calls, factors = [], []
        tail, mgs = special.t_two_sided_p, regression._mgs
        for module in (regression, selection):
            monkeypatch.setattr(
                module, "t_two_sided_p", lambda t, dof: calls.append((t, dof)) or tail(t, dof)
            )
        # Only the pure form runs modified Gram-Schmidt: once on [X y], and
        # once per subset on its columns of R with y's.
        monkeypatch.setattr(regression, "_mgs", lambda a: factors.append(a) or mgs(a))
        report = exhaustive_subsets(cands, 7)
        assert len(report.ranked_models) == 127 and len(factors) == (1 + 127) * pure
        sizes = [math.comb(7, s) for s in range(1, 8)]
        assert all(isinstance(t, float) for t, _ in calls)
        assert {dof for _, dof in calls} == {n - s for s in range(1, 8)}
        assert len(calls) <= sum(m.bit_length() + 1 for m in sizes)
        # The kernel makes none for a stack of one size, 140 t values at one dof.
        flagged = len(calls)
        fits = _fitter(cands.design, cands.response)(
            [list(cols) for cols in itertools.combinations(range(7), 4)])
        assert all(fits) and len(calls) == flagged


class TestKeptFactor:
    """A candidate set keeps the fitter its first search formed: later
    searches reuse its factor, and so does fit_through_origin on a
    design_for design with the set's response, with the search's bits."""

    @staticmethod
    def _assert_refits_alike(monkeypatch, cands, fits):
        # No design is fitted anew: the refit reads the kept factor.
        monkeypatch.setattr(regression, "_fitter", None)
        for want in fits:
            design = cands.design_for(want.variable_ids)
            got = fit_through_origin(design, cands.response)
            TestOneKernel._assert_same_bits(got, want)
            fitted = design.array @ np.array(got.coefficients)
            assert got.fitted.tobytes() == fitted.tobytes()
            assert got.residuals.tobytes() == (cands.response.values - fitted).tobytes()

    @pytest.mark.parametrize("form", ["pure", "numpy"])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_exhaustive_fit_refits_with_its_bits(self, monkeypatch, form, seed):
        _force_form(monkeypatch, form)
        cands = _latent_candidates(seed, n=30 + 10 * seed, k=6)
        if seed % 2:
            x = cands.design.array.copy()
            x[:, 2] = x[:, 0] + x[:, 1]
            cands = CandidateSet(DesignMatrix(cands.variable_ids, x), cands.response)
        report = exhaustive_subsets(cands, 6)
        assert len(report.ranked_models) == 63 - 8 * (seed % 2)
        self._assert_refits_alike(monkeypatch, cands, [m.fit for m in report.ranked_models])
        for ids in report.skipped:
            with pytest.raises(RankDeficient):
                fit_through_origin(cands.design_for(ids), cands.response)

    @pytest.mark.parametrize("form", ["pure", "numpy"])
    @pytest.mark.parametrize("seed", _DROPPING_SEEDS)
    def test_every_stepwise_fit_refits_with_its_bits(self, monkeypatch, form, seed):
        # Every trial of every forward step, and every backward refit.
        _force_form(monkeypatch, form)
        stacks = _recorded_stacks(monkeypatch)
        cands = _latent_candidates(seed)
        report = stepwise(cands)
        fits = [fit for stack in stacks for fit in stack if fit is not None]
        assert report.best.fit in fits and len(fits) > len(stacks)
        self._assert_refits_alike(monkeypatch, cands, fits)

    def test_later_searches_reuse_the_factor(self, monkeypatch):
        cands = _latent_candidates(24)
        calls = []
        fitter = selection._fitter
        monkeypatch.setattr(selection, "_fitter", lambda d, r: calls.append(d) or fitter(d, r))
        report = exhaustive_subsets(cands, 3)
        assert stepwise(cands) == stepwise(cands)
        assert exhaustive_subsets(cands, 3) == report and calls == [cands.design]

    def test_refit_before_a_search_or_on_another_response_fits_anew(self):
        cands = _latent_candidates(42)
        ids = ("c1", "c4")
        fresh = DesignMatrix(ids, cands.design.array[:, [1, 4]].copy())
        early = cands.design_for(ids)
        before = fit_through_origin(early, cands.response)
        assert "_fit_stack" not in vars(cands)
        TestOneKernel._assert_same_bits(before, fit_through_origin(fresh, cands.response))
        searched = {m.variable_ids: m.fit for m in exhaustive_subsets(cands, 2).ranked_models}
        # A design made before the search, or an equal response that is not
        # the set's own: fitted anew, as before.
        other = ResponseVector("y", cands.response.values.copy())
        TestOneKernel._assert_same_bits(fit_through_origin(early, cands.response), before)
        TestOneKernel._assert_same_bits(fit_through_origin(cands.design_for(ids), other), before)
        TestOneKernel._assert_same_bits(
            fit_through_origin(cands.design_for(ids), cands.response), searched[ids])

    def test_refit_keeps_no_other_candidate_alive(self):
        # The refit holds its own columns, the response and the kept
        # fitter, not the set and so not the other candidates' columns.
        cands = _independent_candidates(1, 2_000, 8, nulls=3)
        response = cands.response
        stepwise(cands)
        fit = fit_through_origin(cands.design_for(("v0", "v2")), response)
        gone = weakref.ref(cands.design)
        del cands
        assert gone() is None and fit.residuals.shape == (2_000,)

    def test_own_arrays_are_read_only(self):
        # The kept factor assumes that the columns it was formed from stay.
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 9.0, (20, 3))
        response = ResponseVector("y", x.sum(1))
        for columns in ([(f"c{j}", x[:, j]) for j in range(3)],
                        [(f"c{j}", x[:, j].tolist()) for j in range(3)]):
            cands = CandidateSet.from_columns(columns, response)
            for array in (cands.design.array, cands.design_for(("c2", "c0")).array):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1.0
        assert x.flags.writeable

    def test_both_factor_paths_are_reached(self, monkeypatch):
        # CholeskyQR2 for a well-conditioned [X y]; Householder QR of [X y]
        # for an exactly singular one (c2 = c0 + c1), whose Cholesky fails at
        # seeds 0-2 and passes at 3-5 with an R1 whose condition estimate
        # is past the bound. The 10-candidate search's verdicts hold in all.
        paths, cholesky, qr = [], np.linalg.cholesky, np.linalg.qr

        def counted_cholesky(a):
            try:
                r = cholesky(a)
            except np.linalg.LinAlgError:
                paths.append("fails")
                raise
            paths.append("passes")
            return r

        def counted_qr(a, mode="reduced"):
            if a.ndim == 2:  # the whole [X y]; a search's blocks come stacked
                paths.append("householder")
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        for seed in range(6):
            cands = _independent_candidates(seed, 60, 10, nulls=5)
            report = exhaustive_subsets(cands, 2)
            assert paths == ["passes", "passes"] and len(report.ranked_models) == 55
            del paths[:]
            x = cands.design.array.copy()
            x[:, 2] = x[:, 0] + x[:, 1]
            report = exhaustive_subsets(CandidateSet(DesignMatrix(cands.variable_ids, x),
                                                     cands.response), 10)
            assert paths == (["fails"] if seed < 3 else ["passes"]) + ["householder"]
            assert len(report.ranked_models) == 895 and len(report.skipped) == 128
            del paths[:]


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
                    assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
                        getattr(want, name)).tobytes()
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

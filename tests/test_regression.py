import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clubval.errors import (
    DimensionMismatch,
    DomainError,
    InsufficientObservations,
    RankDeficient,
)
from clubval import regression
from clubval.regression import DesignMatrix, ResponseVector, fit_through_origin

from oracles import solve_exact, textbook_fit


def _fit(columns, y):
    design = DesignMatrix.from_columns(columns)
    return fit_through_origin(design, ResponseVector("y", np.asarray(y, dtype=float)))


def _random_dataset(rng, n, k, noise=0.3):
    x = rng.uniform(0.5, 10.0, size=(n, k))
    beta = rng.uniform(-4.0, 4.0, size=k)
    y = x @ beta + noise * rng.standard_normal(n)
    return x, y


class TestFitThroughOrigin:
    def test_exact_single_column(self):
        fit = _fit([("x", [1.0, 2.0, 3.0])], [2.0, 4.0, 6.0])
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)

    def test_orthogonal_response(self):
        fit = _fit([("x", [1.0, 0.0])], [0.0, 1.0])
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == pytest.approx(0.0, abs=1e-15)

    def test_seeded_two_predictor_dataset_matches_oracle(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(1.0, 8.0, size=(12, 2))
        y = x @ np.array([3.7, 2.9]) + 0.05 * rng.standard_normal(12)
        fit = _fit([("a", x[:, 0]), ("b", x[:, 1])], y)
        oracle = textbook_fit(x, y)
        assert np.allclose(fit.coefficients, oracle["coefficients"], rtol=1e-9)
        assert np.allclose(fit.standard_errors, oracle["standard_errors"], rtol=1e-9)
        assert np.allclose(fit.t_stats, oracle["t_stats"], rtol=1e-9)
        assert np.allclose(fit.p_values, oracle["p_values"], rtol=1e-9)

    def test_coefficients_match_exact_normal_equations(self):
        rng = np.random.default_rng(11)
        x, y = _random_dataset(rng, 15, 3)
        fit = _fit([("a", x[:, 0]), ("b", x[:, 1]), ("c", x[:, 2])], y)
        exact = solve_exact(x.T @ x, x.T @ y)
        assert np.allclose(fit.coefficients, exact, rtol=1e-11, atol=1e-11)

    def test_inference_identities(self):
        rng = np.random.default_rng(5)
        x, y = _random_dataset(rng, 20, 2)
        fit = _fit([("a", x[:, 0]), ("b", x[:, 1])], y)
        assert fit.multiple_r == pytest.approx(math.sqrt(fit.r_squared), abs=1e-15)
        assert fit.dof == fit.n_observations - len(fit.variable_ids)
        for j in range(2):
            assert fit.t_stats[j] * fit.standard_errors[j] == pytest.approx(
                fit.coefficients[j], rel=1e-12
            )

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(99)
        x, y = _random_dataset(rng, 30, 3)
        fit = _fit([("a", x[:, 0]), ("b", x[:, 1]), ("c", x[:, 2])], y)
        scale = np.linalg.norm(y)
        for j in range(3):
            dot = float(np.dot(x[:, j], fit.residuals))
            assert abs(dot) <= 1e-9 * np.linalg.norm(x[:, j]) * scale

    def test_exact_fit_degenerates_gracefully(self):
        # A perfectly collinear response has zero standard errors; the
        # t statistics blow up and the p-values collapse to zero.
        fit = _fit([("x", [1.0, 2.0, 4.0])], [3.0, 6.0, 12.0])
        assert fit.standard_errors[0] == pytest.approx(0.0, abs=1e-12)
        assert math.isinf(fit.t_stats[0]) or fit.p_values[0] < 1e-200

    def test_insufficient_observations(self):
        with pytest.raises(InsufficientObservations):
            _fit([("a", [1.0, 2.0]), ("b", [2.0, 1.0])], [1.0, 2.0])

    def test_rank_deficiency_duplicate_column(self):
        col = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(RankDeficient):
            _fit([("a", col), ("b", col)], [1.0, 2.0, 3.0, 4.0])

    def test_rank_deficiency_zero_column(self):
        with pytest.raises(RankDeficient):
            _fit(
                [("a", [1.0, 2.0, 3.0]), ("z", [0.0, 0.0, 0.0])],
                [1.0, 2.0, 3.0],
            )

    def test_length_mismatch(self):
        design = DesignMatrix.from_columns([("a", [1.0, 2.0, 3.0])])
        with pytest.raises(DimensionMismatch):
            fit_through_origin(design, ResponseVector("y", np.array([1.0, 2.0])))

    def test_overflowing_column_rejected(self):
        # (1e200 * x)'(1e200 * x) overflows; the fit used to return a
        # coefficient of 0.0 with a standard error of 0.0.
        xs = np.arange(1.0, 11.0)
        with pytest.raises(DomainError, match="predictor.*big"):
            _fit([("big", 1e200 * xs)], xs + 0.01 * np.sin(xs))

    def test_infinite_predictor_rejected(self):
        xs = np.arange(1.0, 11.0)
        bad = xs.copy()
        bad[3] = np.inf
        with pytest.raises(DomainError, match=r"predictor\(s\) b$"):
            _fit([("a", np.sqrt(xs)), ("b", bad)], xs)

    def test_nan_response_rejected(self):
        xs = np.arange(1.0, 11.0)
        y = xs.copy()
        y[3] = np.nan
        with pytest.raises(DomainError, match="response y"):
            _fit([("a", xs)], y)

    def test_non_finite_data_wins_over_too_few_rows(self):
        # The Gram triple is judged before the fit routine's n > k test.
        with pytest.raises(DomainError, match=r"predictor\(s\) a$"):
            _fit([("a", [np.nan]), ("b", [1.0])], [1.0])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DimensionMismatch):
            DesignMatrix.from_columns([("a", [1.0]), ("a", [2.0])])

    def test_mixed_column_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            DesignMatrix.from_columns([("a", [1.0, 2.0]), ("b", [1.0])])

    def test_array_must_hold_one_column_per_id(self):
        with pytest.raises(DimensionMismatch):
            DesignMatrix(("a", "b"), np.ones((3, 1)))
        with pytest.raises(DimensionMismatch):
            DesignMatrix(("a",), np.ones((0, 1)))

    def test_ids_and_values_are_judged(self):
        x = np.ones((3, 1))
        for ids, match in (
            (object(), "variable ids must be a tuple"),
            (["a"], "variable ids must be a tuple"),
            (("a\nb",), "variable id must be a one-line string"),
            ((None,), "variable id must be a one-line string"),
            (("",), "variable id must be non-empty"),
        ):
            with pytest.raises(DomainError, match=match):
                DesignMatrix(ids, x)
        for name, match in (
            (None, "variable id must be a one-line string"),
            ("y\n", "variable id must be a one-line string"),
            ("", "response id must be non-empty"),
        ):
            with pytest.raises(DomainError, match=match):
                ResponseVector(name, [1.0, 2.0])
        for bad in (object(), "x", [[1.0], [2.0, 3.0]], 10**5000):
            with pytest.raises(DomainError, match="design matrix cannot become a float array"):
                DesignMatrix(("a",), bad)
            with pytest.raises(DomainError, match="response y cannot become a float array"):
                ResponseVector("y", bad)
            with pytest.raises(DomainError, match="column a cannot become a float array"):
                DesignMatrix.from_columns([("a", bad)])
        # None becomes a 0-d NaN array, a scalar a 0-d array: neither is n x k.
        for bad in (None, 5.0):
            with pytest.raises(DimensionMismatch):
                DesignMatrix(("a",), bad)
            with pytest.raises(DimensionMismatch):
                DesignMatrix.from_columns([("a", bad)])
        # Numbers of any kind become floats.
        design = DesignMatrix(("a",), np.array([[1], [2]], dtype=np.int32))
        assert design.array.dtype == np.float64
        assert DesignMatrix(("a",), x).array is x

    def test_columns_must_be_pairs(self):
        for bad in (None, 5, [("a",)], [None], [("a", [1.0, 2.0], "b")]):
            with pytest.raises(DomainError, match=r"columns must be \(id, values\) pairs"):
                DesignMatrix.from_columns(bad)

    def test_one_tail_call_per_fit(self, monkeypatch):
        # All k p-values of a fit come from one call at the fit's dof;
        # a fit refused before inference makes none.
        calls = []
        tail = regression.t_two_sided_p

        def counted(t, dof):
            calls.append((list(t), dof))
            return tail(t, dof)

        monkeypatch.setattr(regression, "t_two_sided_p", counted)
        rng = np.random.default_rng(3)
        x, y = _random_dataset(rng, 20, 4)
        fit = _fit([(f"c{j}", x[:, j]) for j in range(4)], y)
        assert calls == [(fit.t_stats.tolist(), 16)]
        with pytest.raises(RankDeficient):
            _fit([("a", x[:, 0]), ("b", x[:, 0])], y)
        assert len(calls) == 1


class TestOracleSweep:
    def test_small_datasets_match_textbook_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            n = int(rng.integers(5, 21))
            k = int(rng.integers(1, 4))
            if n <= k:
                n = k + 2
            x, y = _random_dataset(rng, n, k)
            ids = tuple(f"x{j}" for j in range(k))
            fit = _fit(list(zip(ids, x.T)), y)
            oracle = textbook_fit(x, y)
            assert np.allclose(fit.coefficients, oracle["coefficients"], rtol=1e-9)
            assert np.allclose(
                fit.standard_errors, oracle["standard_errors"], rtol=1e-9
            )
            assert np.allclose(fit.t_stats, oracle["t_stats"], rtol=1e-9)
            assert np.allclose(fit.p_values, oracle["p_values"], rtol=1e-9, atol=1e-300)
            assert fit.r_squared == pytest.approx(oracle["r_squared"], rel=1e-9)


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=4, max_value=25))
    k = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    x, y = _random_dataset(rng, n, k)
    return x, y


class TestEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(
        datasets(),
        st.floats(min_value=0.05, max_value=50.0).filter(lambda c: abs(c) > 1e-3),
    )
    def test_predictor_scaling(self, data, c):
        x, y = data
        k = x.shape[1]
        ids = tuple(f"x{j}" for j in range(k))
        base = _fit(list(zip(ids, x.T)), y)
        scaled_x = x.copy()
        scaled_x[:, 0] *= c
        scaled = _fit(list(zip(ids, scaled_x.T)), y)
        assert scaled.coefficients[0] == pytest.approx(
            base.coefficients[0] / c, rel=1e-9
        )
        assert np.allclose(scaled.fitted, base.fitted, rtol=1e-9, atol=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-9)
        assert np.allclose(scaled.t_stats, base.t_stats, rtol=1e-9)
        assert np.allclose(scaled.p_values, base.p_values, rtol=1e-7, atol=1e-30)

    @settings(max_examples=40, deadline=None)
    @given(datasets(), st.floats(min_value=0.1, max_value=20.0))
    def test_response_scaling(self, data, c):
        x, y = data
        k = x.shape[1]
        ids = tuple(f"x{j}" for j in range(k))
        base = _fit(list(zip(ids, x.T)), y)
        scaled = _fit(list(zip(ids, x.T)), c * y)
        assert np.allclose(scaled.coefficients, c * base.coefficients, rtol=1e-9)
        assert scaled.standard_error_of_regression == pytest.approx(
            c * base.standard_error_of_regression, rel=1e-9
        )
        assert np.allclose(scaled.t_stats, base.t_stats, rtol=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-9)

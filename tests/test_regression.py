import math
import warnings

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
from clubval.selection import CandidateSet

from oracles import lstsq_exact, solve_exact, standard_errors_exact, textbook_fit
from test_selection import _force_form


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

    @pytest.mark.parametrize("factor", [1e-150, 1e-154, 1e-155, 1e-160])
    def test_tiny_data_fits_or_is_refused_by_name(self, factor):
        # Every sum of squares is at least 2.2e-308 down to 1e-154, and
        # below it from 1e-155: either a fit in the stated accuracy or a
        # refusal naming the predictors, never a RuntimeWarning or a NaN.
        rng = np.random.default_rng(7)
        x = rng.uniform(0.5, 3.0, size=(10, 2))
        y = x @ [1.5, -0.7] + 0.1 * rng.standard_normal(10)
        base = _fit([("a", x[:, 0]), ("b", x[:, 1])], y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if factor < 1e-154:
                with pytest.raises(DomainError, match=r"smallest normal float in predictor\(s\) a, b$"):
                    _fit([("a", factor * x[:, 0]), ("b", factor * x[:, 1])], factor * y)
                return
            fit = _fit([("a", factor * x[:, 0]), ("b", factor * x[:, 1])], factor * y)
        for name in ("coefficients", "standard_errors", "t_stats"):
            np.testing.assert_allclose(getattr(fit, name), getattr(base, name), rtol=1e-12)
        assert fit.standard_error_of_regression / factor == pytest.approx(
            base.standard_error_of_regression, rel=1e-12
        )
        assert fit.r_squared == pytest.approx(base.r_squared, rel=1e-12)

    def test_tiny_response_is_named(self):
        xs = np.arange(1.0, 11.0)
        with pytest.raises(DomainError, match="smallest normal float in response y$"):
            _fit([("a", xs)], 1e-170 * xs)

    def test_overflowing_coefficient_is_named(self):
        # In the domain, yet b = 7.2e3 in these units becomes 7.2e310 with
        # X x 1e-154 and y x 1e153: refused by name, with no RuntimeWarning
        # (the coefficients were +-inf with a finite t).
        x1 = np.arange(1.0, 5.0)
        x2 = x1 + 1e-4 * np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 3.0, 2.0, 5.0])
        assert np.abs(_fit([("a", x1), ("b", x2)], y).coefficients).max() > 7e3
        with pytest.raises(DomainError, match=r"beyond the float range for predictor\(s\) a, b$"):
            _fit([("a", 1e-154 * x1), ("b", 1e-154 * x2)], 1e153 * y)

    def test_overflowing_coefficient_is_named_past_the_pure_rule(self):
        # The same rows 251 times over: n = 1,004 is past _PURE_MAX_ROWS, so
        # the numpy form fits, to the same b, and refuses it by the same name.
        # y x 1e152 keeps y'y, 251 times the above's, in the float range.
        x1 = np.tile(np.arange(1.0, 5.0), 251)
        x2 = x1 + 1e-4 * np.tile([1.0, -1.0, 1.0, -1.0], 251)
        y = np.tile([1.0, 3.0, 2.0, 5.0], 251)
        assert len(y) > regression._PURE_MAX_ROWS
        assert np.abs(_fit([("a", x1), ("b", x2)], y).coefficients).max() > 7e3
        with pytest.raises(DomainError, match=r"beyond the float range for predictor\(s\) a, b$"):
            _fit([("a", 1e-154 * x1), ("b", 1e-154 * x2)], 1e152 * y)

    def test_rank_deficiency_names_predictors_and_scaled_criterion(self):
        col = np.arange(1.0, 5.0)
        with pytest.raises(RankDeficient, match=r"predictor\(s\) a, b are rank deficient.*scaled"):
            _fit([("a", col), ("b", 1e6 * col)], [1.0, 2.0, 3.0, 5.0])

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

    def test_array_is_column_major(self):
        # However a design is built, it holds one Fortran-ordered float
        # array, so its fits have the same bits.
        rng = np.random.default_rng(4)
        x = rng.uniform(1.0, 9.0, (12, 3))
        ids = ("a", "b", "c")
        cands = CandidateSet.from_columns(list(zip(ids, x.T)), ResponseVector("y", x[:, 0]))
        for array in (
            DesignMatrix(ids, x).array,
            DesignMatrix(ids, np.asfortranarray(x)).array,
            DesignMatrix(ids, x.astype(np.int64)).array,
            DesignMatrix(ids, x.tolist()).array,
            DesignMatrix.from_columns(list(zip(ids, x.T.tolist()))).array,
            DesignMatrix.from_columns(list(zip(ids, x.T.copy()))).array,
            DesignMatrix.from_columns(list(zip(ids, x.T))).array,
            cands.design_for(("c", "a")).array,
        ):
            assert array.flags.f_contiguous and array.dtype == np.float64
        f_array = np.asfortranarray(x)
        assert DesignMatrix(ids, f_array).array is f_array
        assert not np.shares_memory(DesignMatrix(ids, x).array, x)

    @staticmethod
    def _layouts_fit_alike(n):
        rng = np.random.default_rng(5)
        x, y = _random_dataset(rng, n, 4)
        ids = ("a", "b", "c", "d")
        response = ResponseVector("y", y)
        want = fit_through_origin(DesignMatrix(ids, np.asfortranarray(x)), response)
        for design in (DesignMatrix(ids, x), DesignMatrix.from_columns(list(zip(ids, x.T)))):
            got = fit_through_origin(design, response)
            for name in ("coefficients", "standard_errors", "t_stats", "p_values", "residuals",
                         "fitted"):
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
                    getattr(want, name)).tobytes(), name

    def test_layouts_fit_with_the_same_bits(self):
        self._layouts_fit_alike(30)

    def test_layouts_fit_with_the_same_bits_past_three_blocks(self):
        # A copy of 3 whole blocks of rows (see _column_major) and a short one.
        self._layouts_fit_alike(3 * (regression._COPY_FLOATS // 4) + 17)

    @pytest.mark.parametrize("k", [1, 8, 40])
    @pytest.mark.parametrize("blocks", [0, 3])
    def test_every_layout_gives_the_same_array(self, k, blocks):
        # from_columns copies a block of rows at a time (at k = 40 the block
        # is _COPY_MIN_ROWS rows); the array has the bytes of one plain
        # column-major copy, as DesignMatrix makes of a row-major array.
        step = max(regression._COPY_MIN_ROWS, regression._COPY_FLOATS // k)
        n = blocks * step + 17
        rng = np.random.default_rng(k + blocks)
        # One column more than k, so each of the k columns is strided, even for k = 1.
        wide = rng.normal(size=(n, k + 1)) * 10.0 ** rng.integers(-300, 300, size=(n, k + 1))
        wide[::5] = -0.0
        x = wide[:, :k]
        ids = tuple(f"v{j}" for j in range(k))
        ints = rng.integers(-10**6, 10**6, size=(n, k))
        for cols in (list(x.T), [col.copy() for col in x.T], list(ints.T)):
            want = np.asfortranarray(np.column_stack(cols), dtype=float)
            for array in (DesignMatrix.from_columns(list(zip(ids, cols))).array,
                          DesignMatrix(ids, np.column_stack(cols)).array):
                assert array.dtype == np.float64 and array.flags.f_contiguous
                assert array.shape == (n, k) and array.tobytes("F") == want.tobytes("F")
        assert DesignMatrix(ids, x).array.tobytes("F") == np.asfortranarray(x).tobytes("F")

    def test_columns_must_be_pairs(self):
        for bad in (None, 5, [("a",)], [None], [("a", [1.0, 2.0], "b")]):
            with pytest.raises(DomainError, match=r"columns must be \(id, values\) pairs"):
                DesignMatrix.from_columns(bad)

    def test_one_tail_call_per_fit(self, monkeypatch):
        # A fit makes no tail call until its p-values are read; then all k
        # come from one call at the fit's dof, and a second read makes none.
        # A fit refused before inference makes none.
        calls = []
        tail = regression.t_two_sided_p

        def counted(t, dof):
            calls.append((list(t), dof))
            return tail(t, dof)

        monkeypatch.setattr(regression, "t_two_sided_p", counted)
        rng = np.random.default_rng(3)
        x, y = _random_dataset(rng, 20, 4)
        fit = _fit([(f"c{j}", x[:, j]) for j in range(4)], y)
        assert calls == []
        assert fit.p_values == tuple(tail(list(fit.t_stats), 16))
        assert calls == [(list(fit.t_stats), 16)]
        assert fit.p_values is fit.p_values and len(calls) == 1
        with pytest.raises(RankDeficient):
            _fit([("a", x[:, 0]), ("b", x[:, 0])], y)
        assert len(calls) == 1


class TestHeldData:
    def test_inputs_built_alike_compare_and_hash_by_value(self):
        def build(x2):
            design = DesignMatrix.from_columns([("a", [1.0, 2.0, 4.0]), ("b", [1, 0, x2])])
            return CandidateSet(design, ResponseVector("y", [3.0, 6.0, 12.5]))

        one, two = build(1), build(1)
        for got, want in ((one.design, two.design), (one.response, two.response), (one, two)):
            assert got is not want and got == want and hash(got) == hash(want)
        # Held values compare as they are: no array is formed.
        assert not {"array", "values"} & {*vars(one.design), *vars(one.response)}
        # An array compares by its values, equal to the same values held.
        array_built = DesignMatrix(("a", "b"), one.design.array.copy())
        assert array_built == one.design and hash(array_built) == hash(one.design)
        assert ResponseVector("y", np.array([3.0, 6.0, 12.5])) == one.response
        other = build(2)
        assert other.design != one.design and other != one and other.response == one.response
        assert DesignMatrix(("a", "c"), array_built.array) != array_built

    def test_lists_are_held_and_arrays_formed_when_read(self):
        design = DesignMatrix.from_columns([("a", [1.0, 2.0, 4.0, 1.0]), ("b", [1, 0, 1, True])])
        response = ResponseVector("y", [3.0, 6.0, 12.5, 2.0])
        fit = fit_through_origin(design, response)
        # The pure form fits the held float tuples: no ndarray is formed,
        # and neither are the fitted values until they are read.
        assert not {"array", "values", "fitted", "residuals"} & {*vars(design), *vars(response), *vars(fit)}
        for name in ("coefficients", "standard_errors", "t_stats", "p_values"):
            value = getattr(fit, name)
            assert type(value) is tuple and {type(v) for v in value} == {float}
        residuals = fit.residuals
        # Reading the residuals formed X b once, and kept it as fitted.
        assert vars(fit)["fitted"] is fit.fitted
        assert residuals.tobytes() == (response.values - fit.fitted).tobytes()
        assert fit.fitted.tobytes() == (design.array @ np.array(fit.coefficients)).tobytes()
        assert design.array.flags.f_contiguous
        assert design.array.tolist() == [[1.0, 1.0], [2.0, 0.0], [4.0, 1.0], [1.0, 1.0]]
        assert response.values.tolist() == [3.0, 6.0, 12.5, 2.0]


class TestMixedSizeStack:
    """The kernel on a stack of column lists of several sizes at once."""

    FIELDS = ("coefficients", "standard_errors", "t_stats", "p_values")

    @pytest.mark.parametrize("n", [9, 60])
    def test_no_tail_call_and_each_size_as_its_own_stack(self, monkeypatch, n):
        # 10 columns with c2 = c0 + c1, rows of sizes 1 to 10 in a shuffled
        # order. At n = 9 sizes 9 and 10 have n <= s.
        rng = np.random.default_rng(n)
        x, y = _random_dataset(rng, n, 10)
        x[:, 2] = x[:, 0] + x[:, 1]
        design = DesignMatrix(tuple(f"c{j}" for j in range(10)), x)
        response = ResponseVector("y", y)
        fit_stack = regression._fitter(design, response)
        rows = [sorted(rng.choice(10, size, replace=False).tolist())
                for size in range(1, 11) for _ in range(3)]
        rows += [[0, 1, 2], [0, 1, 2, 5]]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        calls = []
        tail = regression.t_two_sided_p
        monkeypatch.setattr(
            regression, "t_two_sided_p", lambda t, dof: calls.append(dof) or tail(t, dof)
        )
        # The kernel stops at t: no fit forms its p-values until they are read.
        got = fit_stack(rows)
        assert calls == [] and len(got) == len(rows)
        alone = {}
        for size in range(1, 11):
            stack = [row for row in rows if len(row) == size]
            alone.update(zip(map(tuple, stack), fit_stack(stack)))
        for row, fit in zip(rows, got):
            if len(row) >= n or {0, 1, 2} <= set(row):
                assert fit is None
                continue
            # Bit for bit the row of its size's stack: the same numpy work.
            want = alone[tuple(row)]
            assert fit.variable_ids == tuple(f"c{j}" for j in row)
            assert fit.dof == n - len(row)
            for name in self.FIELDS:
                assert np.asarray(getattr(fit, name)).tobytes() == np.asarray(
                    getattr(want, name)).tobytes(), name
            assert (fit.adjusted_r_squared, fit.standard_error_of_regression) == (
                want.adjusted_r_squared, want.standard_error_of_regression)
            # And the one-row stack within the kernel's tolerances: a stack
            # of other rows may round the matmul differently.
            one = fit_stack([row])[0]
            np.testing.assert_allclose(fit.p_values, one.p_values, rtol=0.0, atol=1e-10)
            scale = np.abs(one.coefficients).max()
            np.testing.assert_allclose(
                fit.coefficients, one.coefficients, rtol=0.0, atol=1e-9 * scale
            )
            np.testing.assert_allclose(fit.standard_errors, one.standard_errors, rtol=1e-9)

    def test_unfittable_stack_makes_no_tail_call(self, monkeypatch):
        rng = np.random.default_rng(5)
        x, y = _random_dataset(rng, 3, 4)
        x[:, 1] = x[:, 0]
        design = DesignMatrix(("a", "b", "c", "d"), x)
        response = ResponseVector("y", y)
        monkeypatch.setattr(regression, "t_two_sided_p", None)
        rows = [[0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1]]
        assert regression._fitter(design, response)(rows) == [None] * 4


def _conditioned(seed, cond, n=40, k=4):
    """x, n x k, with singular values spaced evenly in log from 1 to 1/cond,
    and y = x b + 1e-3 noise."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)))[0]
    x = (u * np.logspace(0.0, -math.log10(cond), k)) @ v.T
    return x, x @ rng.uniform(0.5, 2.0, k) + 1e-3 * rng.standard_normal(n)


class TestAccuracy:
    """Each form of the fitter, forced, against figures formed exactly from
    X's and y's floats. A factor of [X y] loses digits as cond(X); a fit
    from X'X, such as its eigendecomposition, loses them as cond(X)^2 and
    fails these bounds from cond 1e4."""

    @staticmethod
    def _fits(monkeypatch, x, y):
        """The fit of y on x's columns in each form."""
        fits = {}
        for form in ("pure", "numpy"):
            _force_form(monkeypatch, form)
            fits[form] = _fit([(f"x{j}", x[:, j]) for j in range(x.shape[1])], y)
        return fits

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e5, 9e5])
    def test_coefficients_to_cond_eps(self, monkeypatch, cond):
        # Against b from X'X and X'y formed exactly, relative to b's largest entry.
        worst = {"pure": 0.0, "numpy": 0.0}
        for seed in range(5):
            x, y = _conditioned(seed, cond)
            want = np.array(lstsq_exact(x, y))
            for form, fit in self._fits(monkeypatch, x, y).items():
                err = np.abs(fit.coefficients - want).max() / np.abs(want).max()
                worst[form] = max(worst[form], err)
        assert max(worst.values()) <= 1e3 * cond * np.finfo(float).eps, worst

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e5, 9e5])
    def test_standard_errors_to_cond_eps(self, monkeypatch, cond):
        # Against sqrt(diag((X'X)^-1) SSR / dof) formed exactly, entry by entry.
        worst = {"pure": 0.0, "numpy": 0.0}
        for seed in range(5):
            x, y = _conditioned(seed, cond)
            want = np.array(standard_errors_exact(x, y))
            for form, fit in self._fits(monkeypatch, x, y).items():
                worst[form] = max(worst[form], (np.abs(fit.standard_errors - want) / want).max())
        assert max(worst.values()) <= 1e3 * cond * np.finfo(float).eps, worst

    def test_coefficients_follow_the_units(self, monkeypatch):
        # Every column scaled by 10^u_j and y by 10^v, u_j and v drawn from
        # [-100, 100]: b becomes b 10^v / 10^u_j, entry by entry, at cond 1e3.
        worst = {"pure": 0.0, "numpy": 0.0}
        for seed in range(5):
            x, y = _conditioned(seed, 1e3)
            base = self._fits(monkeypatch, x, y)
            rng = np.random.default_rng([7, seed])
            for _ in range(4):
                u, v = rng.integers(-100, 101, x.shape[1]), int(rng.integers(-100, 101))
                scaled = self._fits(monkeypatch, x * 10.0**u, y * 10.0**v)
                for form, fit in scaled.items():
                    want = np.array(base[form].coefficients) * 10.0**v / 10.0**u
                    err = (np.abs(fit.coefficients - want) / np.abs(want)).max()
                    worst[form] = max(worst[form], err)
        assert max(worst.values()) <= 1e-11, worst


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
        st.integers(min_value=-100, max_value=100),
    )
    def test_predictor_scaling(self, data, u):
        # The rank test and the fit are the same in any unit of a column.
        c = 10.0**u
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
        assert np.allclose(scaled.coefficients, c * np.asarray(base.coefficients), rtol=1e-9)
        assert scaled.standard_error_of_regression == pytest.approx(
            c * base.standard_error_of_regression, rel=1e-9
        )
        assert np.allclose(scaled.t_stats, base.t_stats, rtol=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-9)

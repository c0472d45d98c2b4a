import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from clubval import special
from clubval.errors import DomainError
from clubval.special import _ARRAY_MIN, _beta_cf, _beta_cf_array, t_two_sided_p

from oracles import t_two_sided_quad


class TestBetaContinuedFraction:
    def test_non_convergence_is_domain_error(self):
        # The t tail never reaches this (b is 1/2 there), but the raise stays.
        with pytest.raises(DomainError, match=r"a=1000000\.0, b=1000000\.0, x=0\.5"):
            _beta_cf(1e6, 1e6, 0.5)

    def test_array_non_convergence_names_the_first_value_as_the_scalar_loop(self):
        # The first and the last value stop; the two in between never do,
        # and the first of them is named.
        with pytest.raises(DomainError) as scalar:
            _beta_cf(1e6, 1e6, 0.5)
        with pytest.raises(DomainError) as array:
            _beta_cf_array([0.5, 1e6, 2e6, 27.5], [0.5, 1e6, 2e6, 0.5], [0.1, 0.5, 0.5, 0.9])
        assert str(array.value) == str(scalar.value)


class TestTTwoSidedP:
    def test_zero_t_gives_one(self):
        for dof in (1, 2, 35, 100):
            assert t_two_sided_p(0.0, dof) == 1.0

    def test_infinite_t_gives_zero(self):
        assert t_two_sided_p(math.inf, 5) == 0.0

    def test_cauchy_closed_form(self):
        # With one degree of freedom, p = 1 - (2/pi) * arctan(|t|).
        assert t_two_sided_p(1.0, 1) == pytest.approx(0.5, abs=1e-12)
        for t in (0.3, 2.0, 7.5):
            expected = 1.0 - (2.0 / math.pi) * math.atan(t)
            assert t_two_sided_p(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_dof_two_closed_form(self):
        # p = 1 - t / sqrt(2 + t^2) for two degrees of freedom.
        for t in (0.5, 1.0, 3.0, 12.0):
            expected = 1.0 - t / math.sqrt(2.0 + t * t)
            assert t_two_sided_p(t, 2) == pytest.approx(expected, abs=1e-12)

    def test_against_quadrature(self):
        # At every dof here t <= 1 puts x above the branch point
        # (a + 1) / (a + 2.5), a = dof / 2, and t >= 2.2 puts it below,
        # so both continued-fraction branches are checked.
        for dof in (1, 2, 5, 35, 100):
            for t in (0.0, 0.4, 1.0, 2.2, 5.0, 9.3, 15.0):
                assert t_two_sided_p(t, dof) == pytest.approx(
                    t_two_sided_quad(t, dof), abs=1e-10
                )

    def test_tiny_t_against_quadrature(self):
        # Here x = dof / (dof + t^2) lies within t^2 / dof of 1, or is 1:
        # 1 - x formed by subtraction lost up to 8e-8 of p.
        for dof in (5, 55, 1000):
            for t in (1e-7, 1e-5, 1e-4):
                assert t_two_sided_p(t, dof) == pytest.approx(
                    t_two_sided_quad(t, dof), abs=1e-13
                )

    @pytest.mark.parametrize(
        "dof, at_two, near", [(10**3, 8.4e-13, 9.1e-12), (10**6, 2.7e-9, 2.8e-8),
                              (10**9, 3.6e-6, 3.8e-5)]
    )
    def test_branch_point_against_scipy(self, dof, at_two, near):
        # The docstring's worst relative errors for dof up to this one, at
        # t = 2 and within 0.1% of the branch point, on both branches.
        with mock.patch.object(special, "_beta_cf", wraps=_beta_cf) as cf:
            for d in (dof, dof - 1, dof * 9 // 10, dof // 2 + 1):
                branch = math.sqrt(3 * d / (d + 2))
                for t, bound in [(2.0, at_two)] + [
                        (branch * (1.0 + u), near) for u in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)]:
                    want = 2.0 * stats.t.sf(t, d)
                    assert abs(t_two_sided_p(t, d) - want) <= bound * want
        # The fraction's a is 1/2 on the upper branch and dof / 2 on the lower.
        assert {call.args[0] == 0.5 for call in cf.call_args_list} == {True, False}

    def test_rejects_bad_dof(self):
        with pytest.raises(DomainError):
            t_two_sided_p(1.0, 0)
        with pytest.raises(DomainError):
            t_two_sided_p(1.0, -4)

    def test_rejects_dof_past_bound(self):
        # Past 1e9 the error beside the branch point passes 3e-4; the bound
        # itself stays valid.
        assert 0.04 < t_two_sided_p(2.0, 10**9) < 0.05
        for dof in (10**9 + 1, 10**12, 10**16, 4 * 10**16):
            with pytest.raises(DomainError, match="degrees of freedom"):
                t_two_sided_p(2.0, dof)

    def test_rejects_bool_and_non_integer_dof(self):
        for dof in (True, False, 2.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                t_two_sided_p(1.0, dof)

    def test_rejects_nan_t(self):
        for t in (math.nan, [math.nan], [1.0, math.nan], [math.inf, 0.0, math.nan]):
            with pytest.raises(DomainError, match="NaN"):
                t_two_sided_p(t, 5)

    @pytest.mark.parametrize("width", [1, 3, _ARRAY_MIN + 2])
    def test_rejects_malformed_t(self, width):
        # Text, None, rows of a 2-D array, an int past the float range and
        # complex values: alone, in a narrow call and in a wide one.
        bad = [["2"] * width, [1.0] * (width - 1) + [None], np.ones((width, 2)),
               [10**400] * width, np.ones(width, dtype=complex)]
        for t in bad + (["2", None, 10**400, 1j, np.complex128(2.0)] if width == 1 else []):
            with pytest.raises(DomainError, match="not a real number in the float range"):
                t_two_sided_p(t, 5)

    def test_zero_d_array_is_a_scalar(self):
        for t in (0.0, 2.0, math.inf):
            p = t_two_sided_p(np.array(t), 5)
            assert float(p).hex() == t_two_sided_p(t, 5).hex()

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                # 0, +-inf, and t so small that x = dof / (dof + t^2) is 1.
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, 9.7e-23, -1e-10]),
            ),
            max_size=12,
        ),
        st.one_of(st.integers(min_value=1, max_value=10**6), st.sampled_from([1, 35, 10**9])),
    )
    def test_sequence_matches_scalar_calls(self, ts, dof):
        batch = t_two_sided_p(ts, dof)
        assert isinstance(batch, list)
        assert [p.hex() for p in batch] == [t_two_sided_p(t, dof).hex() for t in ts]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                # 0, tiny, either side of the branch point (t^2 near 3 for a
                # large dof), huge and +-inf.
                st.sampled_from(
                    [0.0, -0.0, 5e-324, -1e-200, 1e-8, 0.9, -1.3, 1.7, -2.6, 1e154, -1e300,
                     math.inf, -math.inf]
                ),
            ),
            max_size=40,
        ),
        st.one_of(st.integers(min_value=1, max_value=10**9), st.sampled_from([1, 2, 55, 10**9])),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_wide_call_matches_scalar_calls(self, ts, dof, shift):
        # A ramp of _ARRAY_MIN values over six decades about sqrt(dof), where
        # x is neither 0 nor 1, puts the call on the array form.
        root = math.sqrt(dof)
        ramp = [root * 10.0 ** (shift + 6.0 * i / _ARRAY_MIN - 3.0) for i in range(_ARRAY_MIN)]
        ts = ramp[::2] + ts + [-t for t in ramp[1::2]]
        with mock.patch.object(special, "_beta_cf_array", wraps=_beta_cf_array) as array:
            wide = t_two_sided_p(ts, dof)
        assert array.call_count == 1
        assert [p.hex() for p in wide] == [t_two_sided_p(t, dof).hex() for t in ts]

    def test_wide_call_of_few_fractions_runs_the_array_form(self):
        ts = [0.0, math.inf] * _ARRAY_MIN + [2.0, -3.5, 1e-3]
        with mock.patch.object(special, "_beta_cf_array", wraps=_beta_cf_array) as array:
            wide = t_two_sided_p(ts, 35)
        assert array.call_count == 1
        assert [p.hex() for p in wide] == [t_two_sided_p(t, 35).hex() for t in ts]

    def test_wide_call_without_fractions_never_runs_the_array_fraction(self):
        # p is 1 at t = 0 and 0 at t = +-inf, with no fraction to run.
        ts = [0.0, math.inf, -math.inf] * _ARRAY_MIN
        with mock.patch.object(special, "_beta_cf_array") as array:
            wide = t_two_sided_p(ts, 35)
        assert not array.called
        assert wide == [1.0, 0.0, 0.0] * _ARRAY_MIN

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=False),
                    st.sampled_from(
                        [0.0, -0.0, 5e-324, 1e-8, 0.9, -1.7, 1e154, -1e300, math.inf, -math.inf]
                    ),
                ),
                st.one_of(st.integers(1, 10**9), st.sampled_from([1, 2, 55, 56, 10**9])),
            ),
            max_size=40,
        ),
        st.lists(st.integers(1, 10**9) | st.sampled_from([1, 51, 59]), min_size=1, max_size=4),
        st.sampled_from(["narrow", "padded", "ramp", _ARRAY_MIN - 1, _ARRAY_MIN]),
    )
    def test_per_value_dof_matches_scalar_calls(self, pairs, ramp_dofs, width):
        # One dof per t, as a list and as an ndarray. "padded" makes a wide
        # call with few fractions; "ramp" adds _ARRAY_MIN values about
        # sqrt(dof) over six decades, which all need the fraction, and a
        # number fills the call up to that many values with them.
        ts, dofs = [t for t, _ in pairs], [dof for _, dof in pairs]
        if width == "padded":
            ts, dofs = ts + [0.0, math.inf] * (_ARRAY_MIN // 2), dofs + [7, 8] * (_ARRAY_MIN // 2)
        elif width != "narrow":
            for i in range(_ARRAY_MIN if width == "ramp" else width - len(ts)):
                dof = ramp_dofs[i % len(ramp_dofs)]
                ts.append((-1) ** i * math.sqrt(dof) * 10.0 ** (6.0 * i / _ARRAY_MIN - 3.0))
                dofs.append(dof)
        want = [t_two_sided_p(t, dof).hex() for t, dof in zip(ts, dofs)]
        with (
            mock.patch.object(special, "_beta_cf_array", wraps=_beta_cf_array) as array,
            mock.patch.object(special, "_p_columns", wraps=special._p_columns) as columns,
        ):
            for form in (list, np.array):
                got = t_two_sided_p(form(ts), dofs)
                assert isinstance(got, list)
                assert [p.hex() for p in got] == want
        assert columns.call_count == 2 * (len(ts) >= _ARRAY_MIN)
        # The array fraction runs only within the column form.
        assert array.call_count <= columns.call_count
        if width == "ramp":
            assert array.call_count == 2

    def test_dof_sequence_forms(self):
        # One repeated dof gives that dof's bits in either form, and any
        # iterable of dofs is taken, an iterator too.
        ts = np.linspace(-6.0, 6.0, 2 * _ARRAY_MIN + 1)
        want = t_two_sided_p(ts.tolist(), 55)
        for t in (ts, ts.tolist()):
            assert t_two_sided_p(t, [55] * len(ts)) == want
            assert t_two_sided_p(t, 55) == want
        ts = [1.0, 2.0, 3.0]
        want = [t_two_sided_p(t, dof) for t, dof in zip(ts, (5, 6, 5))]
        assert t_two_sided_p(ts, iter([5, 6, 5])) == want

    def test_rejects_malformed_dof_sequence(self):
        for ts, dofs in (
            ([1.0, 2.0], [5]),
            ([1.0], [5, 5]),
            ([], [5]),
            (np.ones(_ARRAY_MIN), [5] * (_ARRAY_MIN + 1)),
        ):
            with pytest.raises(DomainError, match="degrees of freedom given for"):
                t_two_sided_p(ts, dofs)
        # Text is one dof, not a sequence of characters or bytes.
        for dof in ("5", b"5", bytearray(b"5")):
            with pytest.raises(DomainError, match="degrees of freedom must be an integer"):
                t_two_sided_p([1.0], dof)

    @pytest.mark.parametrize("bad", [True, False, 0, -3, 10**12 + 1, 2.5, math.nan, None])
    def test_rejects_bad_dof_in_sequence(self, bad):
        # Beside equal plain ints too: True must not pass as the 1 beside it.
        for ts in ([1.0, 2.0, 3.0], np.linspace(0.1, 5.0, _ARRAY_MIN)):
            for fill in (1, 5):
                dofs = [fill] * len(ts)
                dofs[1] = bad
                with pytest.raises(DomainError, match="degrees of freedom"):
                    t_two_sided_p(ts, dofs)

    def test_numpy_loads_only_for_the_array_form(self):
        # A fresh interpreter, since this test process has loaded numpy already.
        script = (
            "import sys\n"
            "from clubval.special import _ARRAY_MIN, t_two_sided_p\n"
            "t_two_sided_p(2.0, 5)\n"
            "t_two_sided_p([2.0] * (_ARRAY_MIN - 1), 5)\n"
            "print('numpy' in sys.modules)\n"
            "t_two_sided_p([0.0] * _ARRAY_MIN, 5)\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(special.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "True"]

    @settings(max_examples=60)
    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.integers(min_value=1, max_value=200),
    )
    def test_sign_symmetry(self, t, dof):
        assert t_two_sided_p(t, dof) == pytest.approx(
            t_two_sided_p(-t, dof), abs=1e-15
        )

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=150))
    def test_strictly_decreasing_in_abs_t(self, dof):
        grid = [0.0, 0.5, 1.1, 2.4, 5.0, 11.0]
        values = [t_two_sided_p(t, dof) for t in grid]
        assert all(u > v for u, v in zip(values, values[1:]))

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
from clubval.special import _beta_cf, t_two_sided_p

from oracles import t_two_sided_quad


class TestBetaContinuedFraction:
    def test_non_convergence_is_domain_error(self):
        # The t tail never reaches this (b is 1/2 there), but the raise stays.
        with pytest.raises(DomainError, match=r"a=1000000\.0, b=1000000\.0, x=0\.5"):
            _beta_cf(1e6, 1e6, 0.5)


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

    @pytest.mark.parametrize("width", [1, 3, 130])
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
        # A ramp of 128 values over six decades about sqrt(dof), where x is
        # neither 0 nor 1, so every one of them runs the fraction.
        root = math.sqrt(dof)
        ramp = [root * 10.0 ** (shift + 6.0 * i / 128 - 3.0) for i in range(128)]
        ts = ramp[::2] + ts + [-t for t in ramp[1::2]]
        wide = t_two_sided_p(ts, dof)
        assert [p.hex() for p in wide] == [t_two_sided_p(t, dof).hex() for t in ts]

    def test_wide_call_without_fractions_never_runs_the_fraction(self):
        # p is 1 at t = 0 and 0 at t = +-inf, with no fraction to run.
        ts = [0.0, math.inf, -math.inf] * 128
        with mock.patch.object(special, "_beta_cf") as cf:
            wide = t_two_sided_p(ts, 35)
        assert not cf.called
        assert wide == [1.0, 0.0, 0.0] * 128

    def test_underflowed_front_skips_the_fraction(self):
        # At t this large the fraction's factor underflows to 0, which fixes
        # p at 0.0, the bits of 0 * cf / a, with no fraction to run.
        with mock.patch.object(special, "_beta_cf", wraps=special._beta_cf) as cf:
            assert t_two_sided_p([2000.0, -1500.0], 59_995) == [0.0, 0.0]
            assert t_two_sided_p([2.0], 59_995) != [0.0]
        assert cf.call_count == 1

    def test_t_sequence_forms(self):
        # A list, a tuple and a 1-D ndarray of the same t values each give a
        # list of the p-values of one call per t.
        ts = np.linspace(-6.0, 6.0, 257).tolist()
        want = [t_two_sided_p(t, 55).hex() for t in ts]
        for form in (list, tuple, np.array):
            got = t_two_sided_p(form(ts), 55)
            assert isinstance(got, list) and [p.hex() for p in got] == want
        assert t_two_sided_p((1.0, 2.0), 5) == [t_two_sided_p(1.0, 5), t_two_sided_p(2.0, 5)]

    def test_rejects_malformed_dof_sequence(self):
        # A call takes one dof for all its t values: a sequence of them,
        # even of one dof per t, is not an integer, and neither is text.
        for ts, dofs in (
            ([1.0, 2.0], [5, 5]),
            ([1.0], (5,)),
            (np.ones(130), np.full(130, 5)),
            ([1.0, 2.0, 3.0], iter([5, 6, 5])),
            ([1.0], "5"),
            ([1.0], b"5"),
            ([1.0], bytearray(b"5")),
        ):
            with pytest.raises(DomainError, match="degrees of freedom must be an integer"):
                t_two_sided_p(ts, dofs)

    @pytest.mark.parametrize("bad", [True, False, 0, -3, 10**12 + 1, 2.5, math.nan, None])
    def test_rejects_bad_dof_in_sequence(self, bad):
        # A narrow and a wide call judge their one dof as a single t does:
        # True must not pass as 1. Within a sequence it is refused too.
        for ts in ([1.0, 2.0, 3.0], np.linspace(0.1, 5.0, 130)):
            for dof in (bad, [bad]):
                with pytest.raises(DomainError, match="degrees of freedom"):
                    t_two_sided_p(ts, dof)

    def test_tail_never_loads_numpy(self):
        # A fresh interpreter, since this test process has loaded numpy already.
        script = (
            "import sys\n"
            "from clubval.special import t_two_sided_p\n"
            "t_two_sided_p(2.0, 5)\n"
            "t_two_sided_p([2.0] * 1000, 5)\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(special.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False"]

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

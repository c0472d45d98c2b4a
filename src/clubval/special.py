"""Student-t tail probabilities for the regression inference.

The two-sided p-value of a t statistic is the regularized incomplete
beta function I_x(dof/2, 1/2) at x = dof / (dof + t^2), evaluated by its
continued fraction on whichever side of the branch point converges fast.
1 - x is formed as t^2 / (dof + t^2), so a tiny t keeps its digits.

The fraction has two forms with the same bits. A call with fewer than
_ARRAY_MIN (128) values that need it runs the scalar loop once per value;
a larger one, such as a stacked fit's, runs them all at once as numpy
columns, each stopping at the step where the scalar loop would. Both do
the same IEEE operations in the same order, and numpy's +, -, * and / round
as Python's floats do. The front factor exp(a ln x + ln(y) / 2 - ln B)
stays a per-value math expression in both forms: numpy's vectorized exp
and log matched libm's in only 4,606 of 5,000 fronts at dof 55.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import count
from .errors import DomainError

_CF_MAX_ITER = 500
_CF_EPS = 3e-16
_CF_TINY = 1e-300
# The array form costs a few dozen numpy calls per step whatever its width,
# so it wins only on wide calls. Whole calls at dof 55, best of 15, scalar
# loop against array form (2-CPU Xeon, numpy 2.4): 32 values 0.24 against
# 0.78 ms, 96 values 0.69 against 0.99 ms, 128 values 1.02 against 0.97 ms,
# 192 values 1.37 against 1.08 ms, 1,260 values 9.8 against 2.4 ms.
_ARRAY_MIN = 128


def _not_converged(a: float, b: float, x: float) -> DomainError:
    return DomainError(
        f"incomplete beta continued fraction did not converge in {_CF_MAX_ITER} "
        f"iterations for a={a}, b={b}, x={x}"
    )


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by the
    modified Lentz method."""
    tiny, eps = _CF_TINY, _CF_EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    # Float step numbers: float-only arithmetic is faster, with the same values.
    for m in map(float, range(1, _CF_MAX_ITER + 1)):
        m2 = m + m
        am2 = a + m2
        # The even and the odd term of step m share one Lentz update.
        for aa in (
            m * (b - m) * x / ((qam + m2) * am2),
            -(a + m) * (qab + m) * x / (am2 * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if -tiny < d < tiny:
                d = tiny
            c = 1.0 + aa / c
            if -tiny < c < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise _not_converged(a, b, x)


def _beta_cf_array(a: Sequence[float], b: Sequence[float], x: Sequence[float]) -> list[float]:
    """_beta_cf of each (a, b, x), run as numpy columns: the scalar loop's
    IEEE operations in its order, so the same bits. An element that meets
    the scalar loop's stopping test writes its h out and is dropped from
    the columns; one that never does is named as the scalar loop names it.
    """
    import numpy as np

    tiny, eps = _CF_TINY, _CF_EPS
    a, b, x = np.array(a, dtype=float), np.array(b, dtype=float), np.array(x, dtype=float)
    out = np.empty_like(x)
    at = np.arange(len(x))
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[abs(d) < tiny] = tiny
    d = 1.0 / d
    h = d.copy()
    for m in map(float, range(1, _CF_MAX_ITER + 1)):
        m2 = m + m
        am2 = a + m2
        for aa in (
            m * (b - m) * x / ((qam + m2) * am2),
            -(a + m) * (qab + m) * x / (am2 * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d[abs(d) < tiny] = tiny
            c = 1.0 + aa / c
            c[abs(c) < tiny] = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        done = abs(delta - 1.0) < eps
        if done.any():
            out[at[done]] = h[done]
            live = ~done
            if not live.any():
                return out.tolist()
            a, b, x, qab, qap, qam, c, d, h, at = (
                v[live] for v in (a, b, x, qab, qap, qam, c, d, h, at)
            )
    # at stays ascending, so its head is the first value that never stopped.
    raise _not_converged(float(a[0]), float(b[0]), float(x[0]))


def t_two_sided_p(t: float | Sequence[float], dof: int) -> float | list[float]:
    """Two-sided tail probability P(|T| >= |t|) of Student's t with dof degrees of freedom.

    Computed as I_x(dof/2, 1/2) at x = dof / (dof + t^2). Degenerate fits
    produce t = +-inf, for which the tail is exactly 0; a NaN t is rejected.
    t may also be a sequence of floats, all at this dof, which gives a list
    of p-values in the same order; the per-dof work is then done once.
    When 128 (_ARRAY_MIN) or more of them need the continued fraction, it
    runs as numpy columns, with the same bits as the per-value calls; only
    then is numpy imported. Fewer run the scalar loop, which is faster
    below that. The front factor stays a per-value math expression in both
    forms, since numpy's exp and log do not always round as libm's do.
    The relative error grows with dof as the lgamma terms of ln B(dof/2, 1/2)
    cancel and the fraction converges slowly beside the branch point: about
    1e-13 at dof 1e3, 7e-10 at 1e6, 7e-7 at 1e9 and 5e-5 at 1e12.
    dof may be at most 1e12, more than any fit reaches: past it the tail
    drifts further.
    """
    try:
        ts = list(t)
    except TypeError:  # a float, or a 0-d array
        return t_two_sided_p([t], dof)[0]
    count(dof, None, "degrees of freedom", 1, 10**12)
    a = dof / 2.0
    ln_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    # The branch point (a + 1) / (a + b + 2) at b = 1/2, summed in that order:
    # a + 2.5 can round differently and flip the branch for an x beside it.
    split = (a + 1.0) / (a + 0.5 + 2.0)
    # A narrow call runs the scalar loop value by value as it goes. A wide
    # one keeps (index, front, x, y) for each value that needs the fraction
    # and runs them all after the loop.
    wide = len(ts) >= _ARRAY_MIN
    p, live = [], []
    for v in ts:
        if math.isnan(v):
            raise DomainError("t statistic is NaN")
        tt = v * v
        # y is 1 - x without the subtraction, which would lose a tiny t.
        x, y = (dof / (dof + tt), tt / (dof + tt)) if tt < math.inf else (0.0, 1.0)
        # x is 1 (y is 0) for t = 0 or a t * t lost beside dof, and 0 for
        # t = +-inf or t * t past the float range: p is x itself.
        if x > 0.0 and y > 0.0:
            ln_x = math.log1p(-y) if y < 0.5 else math.log(x)
            front = math.exp(a * ln_x + 0.5 * math.log(y) - ln_beta)
            if wide:
                live.append((len(p), front, x, y))
            elif x < split:
                x = front * _beta_cf(a, 0.5, x) / a
            else:
                x = 1.0 - front * _beta_cf(0.5, a, y) / 0.5
        p.append(x)
    if live:
        sides = [(a, 0.5, x) if x < split else (0.5, a, y) for _, _, x, y in live]
        if len(sides) >= _ARRAY_MIN:
            cfs = _beta_cf_array(*zip(*sides))
        else:  # a wide call of mostly t = 0 or +-inf
            cfs = [_beta_cf(*side) for side in sides]
        for (i, front, x, _), cf in zip(live, cfs):
            p[i] = front * cf / a if x < split else 1.0 - front * cf / 0.5
    return p

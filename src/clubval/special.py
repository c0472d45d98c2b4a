"""Student-t tail probabilities for the regression inference.

The two-sided p-value of a t statistic is the regularized incomplete
beta function I_x(dof/2, 1/2) at x = dof / (dof + t^2), evaluated by its
continued fraction on whichever side of the branch point converges fast.
1 - x is formed as t^2 / (dof + t^2), so a tiny t keeps its digits. A
call takes one dof for all its t values, judged, and its constants
formed, once. The tail runs value by value and never loads numpy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import count
from .errors import DomainError

_CF_MAX_ITER = 500
_CF_EPS = 3e-16
_CF_TINY = 1e-300


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
    raise DomainError(
        f"incomplete beta continued fraction did not converge in {_CF_MAX_ITER} "
        f"iterations for a={a}, b={b}, x={x}"
    )


def t_two_sided_p(t: float | Sequence[float], dof: int) -> float | list[float]:
    """Two-sided tail probability P(|T| >= |t|) of Student's t with dof degrees of freedom.

    Computed as I_x(dof/2, 1/2) at x = dof / (dof + t^2). Degenerate fits
    produce t = +-inf, for which the tail is exactly 0; a NaN t is rejected,
    as is a t that is not a real number in the float range.
    t may also be a list, a tuple or a 1-D ndarray of numbers, which gives
    a list of p-values in the same order, all at the one dof; a call of
    many values gives each the bits of a call of that value alone.
    The relative error grows with dof, as the rounding of the lgamma terms
    of ln B(dof/2, 1/2) grows with their size, and is about 11 times larger
    beside the branch point t = sqrt(3 dof / (dof + 2)), where p is 1 minus
    a term near 0.92. Worst against scipy in seeded draws, dof log-uniform,
    at t = 2 and at t within 0.1% of the branch point: 8.4e-13 and 9.1e-12
    for dof up to 1e3, 2.7e-9 and 2.8e-8 up to 1e6, 3.6e-6 and 3.8e-5 up
    to 1e9. dof may be at most 1e9, more than any fit reaches: past it the
    error near the branch point passes 3e-4 by 1e10 and 3e-2 by 1e12.
    """
    # An ndarray gives Python numbers, nested lists past one dimension.
    ts = t.tolist() if hasattr(t, "tolist") else t
    if not isinstance(ts, (list, tuple)):  # one number, or a 0-d array
        return t_two_sided_p([ts], dof)[0]
    count(dof, None, "degrees of freedom", 1, 10**9)
    a = dof / 2.0
    ln_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    # The branch point (a + 1) / (a + b + 2) at b = 1/2, summed in that
    # order: a + 2.5 can round differently and flip the branch for an x
    # beside it.
    split = (a + 1.0) / (a + 0.5 + 2.0)
    try:
        # p depends on |t| alone; fabs takes only a real number in the float range.
        ts = list(map(math.fabs, ts))
    except (TypeError, OverflowError) as e:
        raise DomainError(f"t statistic is not a real number in the float range: {e}") from None
    # No |t| is below 0, so the sum is NaN only if some t is NaN.
    if math.isnan(sum(ts)):
        raise DomainError("t statistic is NaN")
    p = []
    for v in ts:
        tt = v * v
        # y is 1 - x without the subtraction, which would lose a tiny t.
        x, y = (dof / (dof + tt), tt / (dof + tt)) if tt < math.inf else (0.0, 1.0)
        # x is 1 (y is 0) for t = 0 or a t * t lost beside dof, and 0 for
        # t = +-inf or t * t past the float range: p is x itself.
        if x > 0.0 and y > 0.0:
            ln_x = math.log1p(-y) if y < 0.5 else math.log(x)
            front = math.exp(a * ln_x + 0.5 * math.log(y) - ln_beta)
            if x < split:
                # A front lost to underflow gives p = 0 * cf / a = 0 without
                # the fraction. Above the split, y > 0 keeps front above 1e-163.
                x = front * _beta_cf(a, 0.5, x) / a if front else 0.0
            else:
                x = 1.0 - front * _beta_cf(0.5, a, y) / 0.5
        p.append(x)
    return p

"""Student-t tail probabilities for the regression inference.

The two-sided p-value of a t statistic is the regularized incomplete
beta function I_x(dof/2, 1/2) at x = dof / (dof + t^2), evaluated by its
continued fraction on whichever side of the branch point converges fast.
1 - x is formed as t^2 / (dof + t^2), so a tiny t keeps its digits. A
call may give one dof for all its t values or one dof per t; each
distinct dof is judged, and its constants formed, once.

The fraction has two forms with the same bits. A call with fewer than
_ARRAY_MIN (128) values that need it runs the scalar loop once per value;
a larger one, such as a stacked fit's, runs them all at once as numpy
columns, each stopping at the step where the scalar loop would. Both do
the same IEEE operations in the same order, and numpy's +, -, * and / round
as Python's floats do. So, likewise, do the two forms of the work around
the fraction: an ndarray of t values as wide as _ARRAY_MIN forms t^2, x,
y, the branch and the front's argument a ln x + ln(y) / 2 - ln B as
columns; any other call forms them per value. Every log1p, log and exp
is libm's, through math, in both: numpy's vectorized exp and log matched
libm's in only 4,606 of 5,000 fronts at dof 55.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import count
from .errors import DomainError

# As in regression: typing.TYPE_CHECKING would import typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

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


def _beta_cf_array(a: Sequence[float], b: Sequence[float], x: Sequence[float]) -> np.ndarray:
    """_beta_cf of each (a, b, x), run as numpy columns: the scalar loop's
    IEEE operations in its order, so the same bits. An element that meets
    the scalar loop's stopping test writes its h out and is dropped from
    the columns; one that never does is named as the scalar loop names it.
    Each step writes into columns made once, as numpy's temporaries would
    take and free a dozen arrays per step.
    """
    import numpy as np

    tiny, eps = _CF_TINY, _CF_EPS
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
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
    am2, even, odd, num, den, delta = (np.empty_like(x) for _ in range(6))
    small = np.empty(len(x), dtype=bool)
    for m in map(float, range(1, _CF_MAX_ITER + 1)):
        m2 = m + m
        np.add(a, m2, out=am2)
        # even = m * (b - m) * x / ((qam + m2) * am2)
        np.multiply(np.subtract(b, m, out=num), m, out=num)
        np.divide(np.multiply(num, x, out=num),
                  np.multiply(np.add(qam, m2, out=den), am2, out=den), out=even)
        # odd = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        np.multiply(np.negative(np.add(a, m, out=num), out=num),
                    np.add(qab, m, out=den), out=num)
        np.divide(np.multiply(num, x, out=num),
                  np.multiply(am2, np.add(qap, m2, out=den), out=den), out=odd)
        for aa in (even, odd):
            # d = 1 / (1 + aa d) and c = 1 + aa / c, each held off zero by tiny.
            np.add(np.multiply(aa, d, out=d), 1.0, out=d)
            np.copyto(d, tiny, where=np.less(np.abs(d, out=num), tiny, out=small))
            np.add(np.divide(aa, c, out=c), 1.0, out=c)
            np.copyto(c, tiny, where=np.less(np.abs(c, out=num), tiny, out=small))
            np.divide(1.0, d, out=d)
            h *= np.multiply(d, c, out=delta)
        done = np.less(np.abs(np.subtract(delta, 1.0, out=num), out=num), eps, out=small)
        if done.any():
            out[at[done]] = h[done]
            live = ~done
            if not live.any():
                return out
            a, b, x, qab, qap, qam, c, d, h, at = (
                v[live] for v in (a, b, x, qab, qap, qam, c, d, h, at)
            )
            am2, even, odd, num, den, delta, small = (
                v[: len(at)] for v in (am2, even, odd, num, den, delta, small)
            )
    # at stays ascending, so its head is the first value that never stopped.
    raise _not_converged(float(a[0]), float(b[0]), float(x[0]))


def _judged_dofs(
    dof: int | Sequence[int], width: int
) -> tuple[list[int], dict[int, tuple[float, float, float]]]:
    """The dof of each t of a call of width values, from one dof for all or
    one per t, and (a, ln B(a, 1/2), branch point) of each distinct dof, at
    a = dof / 2. Each distinct dof is judged once."""
    if isinstance(dof, (int, str, bytes, bytearray)):
        # One dof for every t; count refuses a bool or text.
        distinct, dofs = (dof,), [dof] * width
    else:
        try:
            dofs = list(dof)
        except TypeError:  # one dof, which count refuses
            distinct, dofs = (dof,), [dof] * width
        else:
            if len(dofs) != width:
                raise DomainError(f"{len(dofs)} degrees of freedom given for {width} t statistics")
            # Plain ints are judged once per distinct value; anything else
            # one by one, so that True does not pass as 1.
            distinct = set(dofs) if set(map(type, dofs)) <= {int} else dofs
    for d in distinct:
        count(d, None, "degrees of freedom", 1, 10**12)
    constants = {}
    for d in distinct:
        a = d / 2.0
        # The branch point (a + 1) / (a + b + 2) at b = 1/2, summed in that
        # order: a + 2.5 can round differently and flip the branch for an x
        # beside it.
        split = (a + 1.0) / (a + 0.5 + 2.0)
        constants[d] = (a, math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5), split)
    return dofs, constants


def _p_columns(t: np.ndarray, dofs: list[int], constants: dict) -> list[float]:
    """t_two_sided_p of an ndarray t, with its per-value work as numpy
    columns; each log1p, log and exp is math's, mapped over a list."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise DomainError("t statistic is NaN")
    # One row per distinct dof, spread out to one column per t.
    distinct, at = np.unique(np.asarray(dofs), return_inverse=True)
    d, a, ln_beta, split = np.array([(k, *constants[k]) for k in distinct.tolist()]).T[:, at]
    # t * t may overflow to inf, and inf / inf is NaN: x and y are set below.
    with np.errstate(over="ignore", invalid="ignore"):
        tt = t * t
        x = d / (d + tt)
        y = tt / (d + tt)
    # x is 0 (y is 1) for t = +-inf or t * t past the float range, and 1
    # (y 0) for t = 0 or a t * t lost beside dof: p is x itself.
    huge = tt == math.inf
    x[huge], y[huge] = 0.0, 1.0
    live = np.flatnonzero((x > 0.0) & (y > 0.0))
    x_live, y_live = x[live], y[live]
    a, ln_beta, split = a[live], ln_beta[live], split[live]
    near = y_live < 0.5
    ln_x = np.empty_like(y_live)
    ln_x[near] = list(map(math.log1p, (-y_live[near]).tolist()))
    ln_x[~near] = list(map(math.log, x_live[~near].tolist()))
    ln_y = np.fromiter(map(math.log, y_live.tolist()), float, len(live))
    argument = a * ln_x + 0.5 * ln_y - ln_beta
    front = np.fromiter(map(math.exp, argument.tolist()), float, len(live))
    lower = x_live < split
    sides = np.where(lower, a, 0.5), np.where(lower, 0.5, a), np.where(lower, x_live, y_live)
    if len(live) >= _ARRAY_MIN:
        cf = _beta_cf_array(*sides)
    else:
        cf = np.array(list(map(_beta_cf, *(side.tolist() for side in sides))))
    front *= cf
    x[live] = np.where(lower, front / a, 1.0 - front / 0.5)
    return x.tolist()


def t_two_sided_p(
    t: float | Sequence[float], dof: int | Sequence[int]
) -> float | list[float]:
    """Two-sided tail probability P(|T| >= |t|) of Student's t with dof degrees of freedom.

    Computed as I_x(dof/2, 1/2) at x = dof / (dof + t^2). Degenerate fits
    produce t = +-inf, for which the tail is exactly 0; a NaN t is rejected.
    t may also be a sequence of floats, which gives a list of p-values in
    the same order. dof is then one int for all of them or a sequence of
    one int per t; the per-dof work is done once per distinct dof.
    When 128 (_ARRAY_MIN) or more values need the continued fraction, it
    runs as numpy columns, with the same bits as the per-value calls; only
    then is numpy imported. Fewer run the scalar loop, which is faster
    below that. An ndarray t of 128 or more values also forms x, y and the
    front factor's argument as numpy columns, with the same bits; any other
    t forms them per value, without numpy. The front's log and exp are
    math's in every form, since numpy's do not always round as libm's do.
    The relative error grows with dof as the lgamma terms of ln B(dof/2, 1/2)
    cancel and the fraction converges slowly beside the branch point: about
    1e-13 at dof 1e3, 7e-10 at 1e6, 7e-7 at 1e9 and 5e-5 at 1e12.
    dof may be at most 1e12, more than any fit reaches: past it the tail
    drifts further.
    """
    if getattr(t, "ndim", None) == 1 and len(t) >= _ARRAY_MIN:
        return _p_columns(t, *_judged_dofs(dof, len(t)))
    try:
        # An ndarray gives Python floats, whose overflow raises no warning.
        ts = list(t.tolist() if hasattr(t, "tolist") else t)
    except TypeError:  # a float, or a 0-d array
        return t_two_sided_p([t], dof)[0]
    dofs, constants = _judged_dofs(dof, len(ts))
    # Each value that needs the fraction keeps (index, front, branch, a) and
    # its fraction's (a, b, x); the fractions run after the loop.
    p, live, sides = [], [], []
    for v, d in zip(ts, dofs):
        if math.isnan(v):
            raise DomainError("t statistic is NaN")
        a, ln_beta, split = constants[d]
        tt = v * v
        # y is 1 - x without the subtraction, which would lose a tiny t.
        x, y = (d / (d + tt), tt / (d + tt)) if tt < math.inf else (0.0, 1.0)
        # x is 1 (y is 0) for t = 0 or a t * t lost beside dof, and 0 for
        # t = +-inf or t * t past the float range: p is x itself.
        if x > 0.0 and y > 0.0:
            ln_x = math.log1p(-y) if y < 0.5 else math.log(x)
            front = math.exp(a * ln_x + 0.5 * math.log(y) - ln_beta)
            lower = x < split
            live.append((len(p), front, lower, a))
            sides.append((a, 0.5, x) if lower else (0.5, a, y))
        p.append(x)
    if len(sides) >= _ARRAY_MIN:
        cfs = _beta_cf_array(*zip(*sides)).tolist()
    else:
        cfs = [_beta_cf(*side) for side in sides]
    for (i, front, lower, a), cf in zip(live, cfs):
        p[i] = front * cf / a if lower else 1.0 - front * cf / 0.5
    return p

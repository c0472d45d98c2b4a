"""Student-t tail probabilities for the regression inference.

The two-sided p-value of a t statistic is the regularized incomplete
beta function I_x(dof/2, 1/2) at x = dof / (dof + t^2), evaluated by its
continued fraction on whichever side of the branch point converges fast.
1 - x is formed as t^2 / (dof + t^2), so a tiny t keeps its digits. A
call may give one dof for all its t values or one dof per t; each
distinct dof is judged, and its constants formed, once.

A call of fewer than _ARRAY_MIN (128) t values runs value by value
without numpy, and a wider one runs as numpy columns. Both do the same
IEEE operations in the same order, and numpy's +, -, * and / round as
Python's floats do, so both give the same bits. Every log1p, log and exp
is libm's, through math, in both: numpy's vectorized exp and log matched
libm's in only 4,606 of 5,000 fronts at dof 55.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

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
# so it wins only on wide calls. Whole calls, best of 15, scalar loop against
# array form (2-CPU Xeon, numpy 2.4): at dof 55, 96 values 0.52 against
# 0.60 ms, 128 values 0.65 against 0.63 ms and 192 values 1.09 against
# 0.68 ms; at dof 59,995, 128 values 0.79 against 0.89 ms and 192 values
# 1.11 against 0.99 ms. 1,260 values take 6.8 against 1.4 ms at dof 55.
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
    IEEE operations in its order, so the same bits. Every column runs to
    the last step; a pending mask holds the values that have not yet met
    the scalar loop's stopping test, and each writes its h out at the step
    where it first does. One that never does is named as the scalar loop
    names it.
    """
    import numpy as np

    tiny, eps = _CF_TINY, _CF_EPS
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    out = np.empty_like(x)
    pending = np.ones(len(x), dtype=bool)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, tiny, where=abs(d) < tiny)
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
            np.copyto(d, tiny, where=abs(d) < tiny)
            c = 1.0 + aa / c
            np.copyto(c, tiny, where=abs(c) < tiny)
            d = 1.0 / d
            delta = d * c
            h *= delta
        done = pending & (abs(delta - 1.0) < eps)
        np.copyto(out, h, where=done)
        pending ^= done
        if not pending.any():
            return out
    i = int(pending.argmax())  # the first value that never stopped
    raise _not_converged(float(a[i]), float(b[i]), float(x[i]))


def _judged_dofs(
    dof: int | Iterable[int], width: int
) -> tuple[list[int], dict[int, tuple[float, float, float]]]:
    """The dof of each t of a call of width values, from one dof for all or
    one per t, and (a, ln B(a, 1/2), branch point) of each distinct dof, at
    a = dof / 2. Each distinct dof is judged once."""
    # One dof per t comes as an iterable; text, a number or a 0-d array is
    # one dof for every t, which count refuses unless it is an int.
    if isinstance(dof, (str, bytes, bytearray)) or not isinstance(dof, Iterable) or (
            getattr(dof, "ndim", 1) == 0):
        distinct, dofs = (dof,), [dof] * width
    else:
        dofs = list(dof)
        if len(dofs) != width:
            raise DomainError(f"{len(dofs)} degrees of freedom given for {width} t statistics")
        # Plain ints are judged once per distinct value; anything else
        # one by one, so that True does not pass as 1.
        distinct = set(dofs) if set(map(type, dofs)) <= {int} else dofs
    constants = {}
    for d in distinct:
        count(d, None, "degrees of freedom", 1, 10**9)
        a = d / 2.0
        # The branch point (a + 1) / (a + b + 2) at b = 1/2, summed in that
        # order: a + 2.5 can round differently and flip the branch for an x
        # beside it.
        split = (a + 1.0) / (a + 0.5 + 2.0)
        constants[d] = (a, math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5), split)
    return dofs, constants


def _p_columns(t: list[float], dofs: list[int], constants: dict) -> list[float]:
    """t_two_sided_p's per-value loop over the values |t| as numpy columns;
    each log1p, log and exp is math's, mapped over a list."""
    import numpy as np

    t = np.fromiter(t, float, len(t))
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
    if not len(live):
        return x.tolist()
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
    front *= _beta_cf_array(
        np.where(lower, a, 0.5), np.where(lower, 0.5, a), np.where(lower, x_live, y_live)
    )
    x[live] = np.where(lower, front / a, 1.0 - front / 0.5)
    return x.tolist()


def t_two_sided_p(
    t: float | Sequence[float], dof: int | Iterable[int]
) -> float | list[float]:
    """Two-sided tail probability P(|T| >= |t|) of Student's t with dof degrees of freedom.

    Computed as I_x(dof/2, 1/2) at x = dof / (dof + t^2). Degenerate fits
    produce t = +-inf, for which the tail is exactly 0; a NaN t is rejected,
    as is a t that is not a real number in the float range.
    t may also be a list or a 1-D ndarray of numbers, which gives a list of
    p-values in the same order. dof is then one int for all of them or an
    iterable of one int per t; the per-dof work is done once per distinct dof.
    A call of 128 (_ARRAY_MIN) or more t values runs as numpy columns, and
    a narrower one value by value without numpy, with the same bits.
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
    if not isinstance(ts, list):  # one number, or a 0-d array
        return t_two_sided_p([ts], dof)[0]
    dofs, constants = _judged_dofs(dof, len(ts))
    try:
        # p depends on |t| alone; fabs takes only a real number in the float range.
        ts = list(map(math.fabs, ts))
    except (TypeError, OverflowError) as e:
        raise DomainError(f"t statistic is not a real number in the float range: {e}") from None
    # No |t| is below 0, so the sum is NaN only if some t is NaN.
    if math.isnan(sum(ts)):
        raise DomainError("t statistic is NaN")
    if len(ts) >= _ARRAY_MIN:
        return _p_columns(ts, dofs, constants)
    p = []
    for v, d in zip(ts, dofs):
        a, ln_beta, split = constants[d]
        tt = v * v
        # y is 1 - x without the subtraction, which would lose a tiny t.
        x, y = (d / (d + tt), tt / (d + tt)) if tt < math.inf else (0.0, 1.0)
        # x is 1 (y is 0) for t = 0 or a t * t lost beside dof, and 0 for
        # t = +-inf or t * t past the float range: p is x itself.
        if x > 0.0 and y > 0.0:
            ln_x = math.log1p(-y) if y < 0.5 else math.log(x)
            front = math.exp(a * ln_x + 0.5 * math.log(y) - ln_beta)
            if x < split:
                x = front * _beta_cf(a, 0.5, x) / a
            else:
                x = 1.0 - front * _beta_cf(0.5, a, y) / 0.5
        p.append(x)
    return p

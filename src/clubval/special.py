"""Special functions backing Student-t tail probabilities.

Only what the regression inference needs: log-gamma, the regularized
incomplete beta function, and the two-sided t p-value built on them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .errors import DomainError

_CF_MAX_ITER = 500
_CF_EPS = 3e-16
_CF_TINY = 1e-300


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Delegates to math.lgamma, which is accurate to a few ulp, comfortably
    inside the 1e-12 absolute error this package relies on for x in
    [0.5, 100].
    """
    if x <= 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


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


def _incomplete_beta_at(a: float, b: float) -> Callable[[float], float]:
    """x -> I_x(a, b) for 0 < x < 1, with ln B(a, b) and the branch point computed once."""
    ln_beta = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
    split = (a + 1.0) / (a + b + 2.0)

    def ibeta(x: float) -> float:
        front = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_beta)
        if x < split:
            return front * _beta_cf(a, b, x) / a
        return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b

    return ibeta


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and x in [0, 1].

    Uses the standard continued fraction on whichever of I_x(a, b) and
    1 - I_{1-x}(b, a) converges fast, giving relative error around 1e-14.
    The fraction takes more iterations as a and b both grow: once both
    exceed about 8e5 it no longer converges near x = a / (a + b), and
    DomainError is raised. t tail probabilities use b = 1/2 and are not
    affected.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"incomplete beta requires a, b > 0, got a={a}, b={b}")
    if x < 0 or x > 1:
        raise DomainError(f"incomplete beta requires x in [0, 1], got {x}")
    if x == 0 or x == 1:
        return 1.0 if x == 1 else 0.0
    return _incomplete_beta_at(a, b)(x)


def t_two_sided_p(t: float | Sequence[float], dof: int) -> float | list[float]:
    """Two-sided tail probability P(|T| >= |t|) of Student's t with dof degrees of freedom.

    Computed as I_x(dof/2, 1/2) at x = dof / (dof + t^2). Degenerate fits
    produce t = +-inf, for which the tail is exactly 0; a NaN t is rejected.
    t may also be a sequence of floats, all at this dof, which gives a list
    of p-values in the same order; the per-dof work is then done once.
    dof may be at most 1e12, more than any fit reaches: past it the tail
    drifts from the true value, and reads exactly 1 once dof / (dof + t^2)
    rounds to 1.
    """
    try:
        ts = list(t)
    except TypeError:  # a float, or a 0-d array
        return t_two_sided_p([t], dof)[0]
    # A NaN or infinite dof fails the range test; dof % 1 catches a fractional one.
    if isinstance(dof, bool) or not 1 <= dof <= 1e12 or dof % 1:
        raise DomainError(f"degrees of freedom must be an integer in [1, 1e12], got {dof}")
    ibeta = None
    p = []
    for v in ts:
        if math.isnan(v):
            raise DomainError("t statistic is NaN")
        x = dof / (dof + v * v)
        # x is 1 for t = 0 or a t lost beside dof, and 0 for t = +-inf or
        # t * t past the float range: p is x itself.
        if 0 < x < 1:
            ibeta = ibeta or _incomplete_beta_at(dof / 2.0, 0.5)
            x = ibeta(x)
        p.append(x)
    return p

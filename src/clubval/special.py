"""Special functions backing Student-t tail probabilities.

Only what the regression inference needs: log-gamma, the regularized
incomplete beta function, and the two-sided t p-value built on them.
"""

from __future__ import annotations

import math

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
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(
        f"incomplete beta continued fraction did not converge in {_CF_MAX_ITER} "
        f"iterations for a={a}, b={b}, x={x}"
    )


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
    if x == 0:
        return 0.0
    if x == 1:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided tail probability P(|T| >= |t|) of Student's t with dof degrees of freedom.

    Computed as I_x(dof/2, 1/2) at x = dof / (dof + t^2). Degenerate fits
    produce t = +-inf, for which the tail is exactly 0; a NaN t is rejected.
    """
    # dof % 1 is NaN for an infinite dof, and not dof >= 1 catches a NaN one.
    if isinstance(dof, bool) or not dof >= 1 or dof % 1:
        raise DomainError(f"degrees of freedom must be an integer >= 1, got {dof}")
    if math.isnan(t):
        raise DomainError("t statistic is NaN")
    if t == 0:
        return 1.0
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)

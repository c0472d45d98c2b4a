"""Independent reference implementations used only by the tests.

Each oracle takes a different route than the library: exact rational
normal equations and Gaussian elimination instead of a QR factor, the
explicit textbook inverse-matrix formulas instead of factored solves, scipy's t
distribution and adaptive quadrature instead of the continued
fraction, and Decimal arithmetic on every repr instead of f-format.
Agreement between routes is the point of the comparison.
"""

from __future__ import annotations

import math
import operator
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import numpy as np
from scipy import integrate, stats


def _gauss_jordan_exact(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """The solution of the augmented rows m, [A | B], by Gauss-Jordan
    elimination over exact rationals: row i of A^-1 B, for each of B's columns."""
    n = len(m)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        for row in range(n):
            if row != col and m[row][col] != 0:
                factor = m[row][col] / m[col][col]
                m[row] = [x - factor * y for x, y in zip(m[row], m[col])]
    return [[v / m[i][i] for v in m[i][n:]] for i in range(n)]


def _gauss_jordan(m: list[list[Fraction]]) -> list[float]:
    """Solve the system of the augmented rows m, [A | b], by Gauss-Jordan
    elimination over exact rationals, returning float quotients only at the end."""
    return [float(row[0]) for row in _gauss_jordan_exact(m)]


def solve_exact(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Solve a linear system by Gauss-Jordan elimination over exact
    rationals, returning float quotients only at the end."""
    n = len(b)
    return _gauss_jordan([
        [Fraction(float(a[i][j])) for j in range(n)] + [Fraction(float(b[i]))]
        for i in range(n)
    ])


def _normal_equations(x: np.ndarray, y) -> tuple[list[list[Fraction]], list[Fraction], Fraction]:
    """X'X, X'y and y'y in exact rationals from x's and y's floats."""
    cols = [[Fraction(float(v)) for v in col] for col in np.asarray(x, dtype=float).T]
    ys = [Fraction(float(v)) for v in y]
    return ([[sum(map(operator.mul, a, b)) for b in cols] for a in cols],
            [sum(map(operator.mul, a, ys)) for a in cols], sum(map(operator.mul, ys, ys)))


def lstsq_exact(x: np.ndarray, y: np.ndarray) -> list[float]:
    """The least-squares b of y on the columns of x: X'X and X'y formed in
    exact rationals from x's and y's floats, then solved as solve_exact
    solves, so nothing is rounded before the final quotients. solve_exact
    given X'X and X'y formed in floats inherits their rounding, which
    cond(X)^2 magnifies."""
    xtx, xty, _ = _normal_equations(x, y)
    return _gauss_jordan([row + [v] for row, v in zip(xtx, xty)])


def standard_errors_exact(x: np.ndarray, y: np.ndarray) -> list[float]:
    """The through-origin standard errors of y on the columns of x,
    sqrt(diag((X'X)^-1) SSR / (n - k)): (X'X)^-1, b and SSR = y'y - b'X'y
    formed in exact rationals from x's and y's floats, and only each
    final square root taken in floats."""
    xtx, xty, yty = _normal_equations(x, y)
    k = len(xtx)
    sol = _gauss_jordan_exact([row + [v] + [Fraction(i == j) for j in range(k)]
                               for i, (row, v) in enumerate(zip(xtx, xty))])
    ssr = yty - sum(row[0] * v for row, v in zip(sol, xty))
    dof = len(y) - k
    return [math.sqrt(sol[j][1 + j] * ssr / dof) for j in range(k)]


def textbook_fit(x: np.ndarray, y: np.ndarray) -> dict:
    """Through-origin least squares via the explicit inverse-matrix
    formulas, with p-values from scipy."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = x.shape
    inv = np.linalg.inv(x.T @ x)
    beta = inv @ (x.T @ y)
    resid = y - x @ beta
    ssr = float(resid @ resid)
    dof = n - k
    sigma2 = ssr / dof
    se = np.sqrt(sigma2 * np.diag(inv))
    t = beta / se
    p = 2.0 * stats.t.sf(np.abs(t), dof)
    tss = float(y @ y)
    r2 = 1.0 - ssr / tss if tss > 0 else 1.0
    return {
        "coefficients": beta,
        "standard_errors": se,
        "t_stats": t,
        "p_values": p,
        "r_squared": r2,
        "adjusted_r_squared": 1.0 - (1.0 - r2) * n / dof,
        "standard_error_of_regression": math.sqrt(sigma2),
        "residuals": resid,
        "dof": dof,
    }


def t_two_sided_quad(t: float, dof: int) -> float:
    """Two-sided t tail probability as a ratio of adaptive-quadrature
    integrals of the unnormalized density, avoiding gamma functions."""

    def g(u: float) -> float:
        return (1.0 + u * u / dof) ** (-(dof + 1) / 2.0)

    upper, _ = integrate.quad(g, abs(t), np.inf, epsabs=1e-13, epsrel=1e-13, limit=300)
    half_mass, _ = integrate.quad(g, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=300)
    return upper / half_mass


def fresh_design(cands, subset):
    """A design of subset's columns that knows nothing of cands: once a
    search has run, cands.design_for(subset) refits through the search's
    own factor, so a reference built on it would compare the search with
    itself."""
    from clubval.regression import DesignMatrix

    idx = [cands.variable_ids.index(vid) for vid in subset]
    return DesignMatrix(tuple(subset), cands.design.array[:, idx].copy())


def stepwise_per_fit(cands, alpha_in: float = 0.05, alpha_out: float = 0.10):
    """Forward-backward stepwise with one full fit_through_origin per
    trial subset, each on a fresh copy of its columns, as clubval did
    before its search shared one factor. Returns (variable ids of the
    final model or None, converged).
    """
    from clubval.errors import InsufficientObservations, RankDeficient
    from clubval.regression import fit_through_origin

    def fit(subset):
        try:
            return fit_through_origin(fresh_design(cands, subset), cands.response)
        except (RankDeficient, InsufficientObservations):
            return None

    ids = cands.variable_ids
    current: list[str] = []
    seen = {frozenset()}
    converged = True
    while True:
        changed = False
        best_add = None
        for position, vid in enumerate(ids):
            if vid in current:
                continue
            trial = tuple(v for v in ids if v in current or v == vid)
            result = fit(trial)
            if result is None:
                continue
            p = float(result.p_values[trial.index(vid)])
            if p < alpha_in and (best_add is None or (p, position) < best_add):
                best_add = (p, position)
        if best_add is not None:
            current.append(ids[best_add[1]])
            current.sort(key=ids.index)
            changed = True
        while current:
            result = fit(tuple(current))
            if result is None:
                break
            worst = int(np.argmax(result.p_values))
            if float(result.p_values[worst]) <= alpha_out:
                break
            current.remove(current[worst])
            changed = True
        if not changed:
            break
        state = frozenset(current)
        if state in seen:
            converged = False
            break
        seen.add(state)
    return (tuple(current) if current else None), converged


def exhaustive_per_fit(cands, max_size: int, alpha: float = 0.05):
    """Exhaustive search with one full fit_through_origin per subset, on
    a fresh copy of its columns, as clubval did before its search shared
    one factor. Returns a SelectionReport ranked as the search ranks.
    """
    import itertools

    from clubval.errors import InsufficientObservations, RankDeficient
    from clubval.regression import fit_through_origin
    from clubval.selection import RankedModel, SelectionReport

    models, skipped = [], []
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(cands.variable_ids, size):
            try:
                fit = fit_through_origin(fresh_design(cands, subset), cands.response)
            except (RankDeficient, InsufficientObservations):
                skipped.append(subset)
                continue
            models.append(RankedModel(subset, fit, all(p <= alpha for p in fit.p_values)))
    models.sort(key=lambda m: (-m.fit.adjusted_r_squared, len(m.variable_ids), m.variable_ids))
    return SelectionReport(ranked_models=tuple(models), skipped=tuple(skipped))


# Room for the 309 integer digits of the largest float plus 100 decimals.
_FIXED_CONTEXT = Context(prec=sys.float_info.max_10_exp + 1 + 100)


def fmt_fixed_reference(value: float, places: int) -> str:
    """Fixed-point formatting by Decimal quantization of the shortest
    repr, ties rounded away from zero, as clubval's report.fmt_fixed did
    for every value before it took f-format away from the midpoints."""
    value = float(value)
    if not math.isfinite(value):
        return str(value)
    quantum = Decimal(1).scaleb(-places)
    return f"{Decimal(repr(value)).quantize(quantum, ROUND_HALF_UP, _FIXED_CONTEXT):f}"

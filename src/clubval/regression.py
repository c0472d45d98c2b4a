"""Through-origin least squares with the inference block used in the reports.

The model is y = X b + e with no intercept column. Because there is no
intercept, R-squared is computed against the raw sum of squares of y
(the uncentered convention) and the adjusted version divides by n - k
without the usual n - 1 numerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DimensionMismatch,
    InsufficientObservations,
    NotPositiveDefinite,
    RankDeficient,
)
from .special import t_two_sided_p

# numpy is imported inside the functions that compute, so importing this
# module, or running a CLI command that never fits, does not load it.
# The constant stands in for typing.TYPE_CHECKING, which imports typing.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

RANK_RTOL = 1e-12


@dataclass(frozen=True)
class DesignMatrix:
    """Named predictor columns of equal length, no intercept column."""

    columns: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise DimensionMismatch("design matrix needs at least one column")
        ids = [vid for vid, _ in self.columns]
        if len(set(ids)) != len(ids):
            raise DimensionMismatch(f"duplicate variable ids in {ids}")
        lengths = {len(vec) for _, vec in self.columns}
        if len(lengths) != 1:
            raise DimensionMismatch(f"columns have mixed lengths {sorted(lengths)}")
        if 0 in lengths:
            raise DimensionMismatch("columns must be non-empty")

    @classmethod
    def from_columns(
        cls, pairs: list[tuple[str, "np.ndarray | list[float]"]]
    ) -> "DesignMatrix":
        import numpy as np

        return cls(
            tuple((vid, np.asarray(vec, dtype=float)) for vid, vec in pairs)
        )

    @property
    def variable_ids(self) -> tuple[str, ...]:
        return tuple(vid for vid, _ in self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0][1])

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.column_stack([vec for _, vec in self.columns])


@dataclass(frozen=True)
class ResponseVector:
    """The explained variable: an id and its observations."""

    variable_id: str
    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float)
        )
        if self.values.ndim != 1 or len(self.values) == 0:
            raise DimensionMismatch("response must be a non-empty vector")


@dataclass(frozen=True)
class RegressionFit:
    """Result of a through-origin least squares fit.

    Coefficient-aligned arrays (coefficients, standard_errors, t_stats,
    p_values) share the order of variable_ids. centered_r_squared is a
    diagnostic only; every reported statistic uses the uncentered
    convention.
    """

    variable_ids: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adjusted_r_squared: float
    multiple_r: float
    standard_error_of_regression: float
    n_observations: int
    dof: int
    residuals: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)
    centered_r_squared: float = float("nan")

    def coefficient(self, variable_id: str) -> float:
        return float(self.coefficients[self.variable_ids.index(variable_id)])

    def summary_rows(self) -> list[tuple[str, float, float, float, float]]:
        """Per-variable (id, coefficient, standard error, t, p) rows."""
        return [
            (
                vid,
                float(self.coefficients[j]),
                float(self.standard_errors[j]),
                float(self.t_stats[j]),
                float(self.p_values[j]),
            )
            for j, vid in enumerate(self.variable_ids)
        ]


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    import numpy as np

    n = a.shape[0]
    lower = np.zeros_like(a, dtype=float)
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j] - np.dot(lower[i, :j], lower[j, :j])
            if i == j:
                if s <= 0.0:
                    raise NotPositiveDefinite(
                        f"leading minor of order {i + 1} is not positive"
                    )
                lower[i, i] = math.sqrt(s)
            else:
                lower[i, j] = s / lower[j, j]
    return lower


def solve_normal_equations(xtx: np.ndarray, xty: np.ndarray) -> np.ndarray:
    """Solve (X'X) b = X'y by Cholesky factorization.

    Raises NotPositiveDefinite when X'X is singular or indefinite, which
    for least squares means the design is rank deficient.
    """
    import numpy as np

    xtx = np.asarray(xtx, dtype=float)
    xty = np.asarray(xty, dtype=float)
    if xtx.ndim != 2 or xtx.shape[0] != xtx.shape[1]:
        raise DimensionMismatch(f"X'X must be square, got shape {xtx.shape}")
    if xty.shape != (xtx.shape[0],):
        raise DimensionMismatch(
            f"X'y has shape {xty.shape}, expected ({xtx.shape[0]},)"
        )
    lower = _cholesky(xtx)
    # Forward then back substitution.
    n = xtx.shape[0]
    z = np.zeros(n)
    for i in range(n):
        z[i] = (xty[i] - np.dot(lower[i, :i], z[:i])) / lower[i, i]
    b = np.zeros(n)
    for i in range(n - 1, -1, -1):
        b[i] = (z[i] - np.dot(lower[i + 1 :, i], b[i + 1 :])) / lower[i, i]
    return b


def _inverse_from_cholesky(lower: np.ndarray) -> np.ndarray:
    """Inverse of A = L L' given its lower Cholesky factor."""
    import numpy as np

    n = lower.shape[0]
    inv = np.zeros((n, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        z = np.zeros(n)
        for i in range(n):
            z[i] = (e[i] - np.dot(lower[i, :i], z[:i])) / lower[i, i]
        x = np.zeros(n)
        for i in range(n - 1, -1, -1):
            x[i] = (z[i] - np.dot(lower[i + 1 :, i], x[i + 1 :])) / lower[i, i]
        inv[:, col] = x
    return 0.5 * (inv + inv.T)


def fit_through_origin(design: DesignMatrix, response: ResponseVector) -> RegressionFit:
    """Fit response = design @ b with no intercept and return the full
    inference block.

    Requirements: n > k >= 1, response length matches the design rows,
    and X'X is numerically full rank (smallest to largest eigenvalue
    ratio at least 1e-12).
    """
    import numpy as np

    x = design.as_array()
    y = response.values
    ids = design.variable_ids
    n, k = x.shape
    if y.shape != (n,):
        raise DimensionMismatch(
            f"response has length {len(y)}, design has {n} rows"
        )
    if n <= k:
        raise InsufficientObservations(
            f"need more observations than predictors, got n={n}, k={k}"
        )

    xtx = x.T @ x
    eigvals = np.linalg.eigvalsh(xtx)
    if eigvals[0] <= 0.0 or eigvals[0] < RANK_RTOL * eigvals[-1]:
        raise RankDeficient(
            f"X'X eigenvalue ratio {eigvals[0]:.3e} / {eigvals[-1]:.3e} "
            f"below tolerance {RANK_RTOL:g}"
        )
    xty = x.T @ y
    try:
        lower = _cholesky(xtx)
    except NotPositiveDefinite as exc:
        raise RankDeficient(str(exc)) from exc

    z = np.zeros(k)
    for i in range(k):
        z[i] = (xty[i] - np.dot(lower[i, :i], z[:i])) / lower[i, i]
    beta = np.zeros(k)
    for i in range(k - 1, -1, -1):
        beta[i] = (z[i] - np.dot(lower[i + 1 :, i], beta[i + 1 :])) / lower[i, i]

    fitted = x @ beta
    residuals = y - fitted
    ssr = float(residuals @ residuals)
    tss_uncentered = float(y @ y)
    dof = n - k

    if tss_uncentered == 0.0:
        r_squared = 1.0
    else:
        r_squared = 1.0 - ssr / tss_uncentered
    r_squared = min(1.0, max(0.0, r_squared))
    adjusted = 1.0 - (1.0 - r_squared) * n / dof
    multiple_r = math.sqrt(r_squared)

    sigma2 = ssr / dof
    ser = math.sqrt(sigma2)

    inv_xtx = _inverse_from_cholesky(lower)
    variances = sigma2 * np.diag(inv_xtx)
    std_errors = np.sqrt(np.maximum(variances, 0.0))

    t_stats = np.empty(k)
    p_values = np.empty(k)
    for j in range(k):
        if std_errors[j] == 0.0:
            t_stats[j] = math.copysign(math.inf, beta[j]) if beta[j] != 0 else 0.0
            p_values[j] = 1.0 if beta[j] == 0 else 0.0
        else:
            t_stats[j] = beta[j] / std_errors[j]
            p_values[j] = t_two_sided_p(float(t_stats[j]), dof)

    y_mean = float(y.mean())
    tss_centered = float(((y - y_mean) ** 2).sum())
    if tss_centered > 0.0:
        centered_r2 = 1.0 - ssr / tss_centered
    else:
        centered_r2 = float("nan")

    return RegressionFit(
        variable_ids=ids,
        coefficients=beta,
        standard_errors=std_errors,
        t_stats=t_stats,
        p_values=p_values,
        r_squared=r_squared,
        adjusted_r_squared=adjusted,
        multiple_r=multiple_r,
        standard_error_of_regression=ser,
        n_observations=n,
        dof=dof,
        residuals=residuals,
        fitted=fitted,
        centered_r_squared=centered_r2,
    )

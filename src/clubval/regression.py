"""Through-origin least squares with the inference block used in the reports.

The model is y = X b + e with no intercept column. Because there is no
intercept, R-squared is computed against the raw sum of squares of y
(the uncentered convention) and the adjusted version divides by n - k
without the usual n - 1 numerator.
"""

from __future__ import annotations

import math

from ._record import one_line, record, refuse
from .errors import (
    DimensionMismatch,
    DomainError,
    InsufficientObservations,
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


def _float_array(values, what: str) -> np.ndarray:
    """values as a float ndarray, or a DomainError naming what they are for."""
    import numpy as np

    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} cannot become a float array: {exc}") from None


@record
class DesignMatrix:
    """Predictor columns without intercept: array is n x k, column j is variable_ids[j]."""

    variable_ids: tuple[str, ...]
    array: np.ndarray
    _unprinted = ("array",)

    def __post_init__(self) -> None:
        ids = self.variable_ids
        if not isinstance(ids, tuple):
            refuse("design matrix", "variable ids", "be a tuple of one-line strings", ids)
        if not ids:
            raise DimensionMismatch("design matrix needs at least one column")
        for vid in ids:
            one_line(vid, "design matrix", "variable id", "variable id")
        if len(set(ids)) != len(ids):
            raise DimensionMismatch(f"duplicate variable ids in {list(ids)}")
        object.__setattr__(self, "array", _float_array(self.array, "design matrix"))
        if self.array.shape[1:] != (len(ids),) or self.n_rows == 0:
            raise DimensionMismatch(f"array {self.array.shape} is not n x {len(ids)}, n > 0")

    @classmethod
    def from_columns(
        cls, pairs: list[tuple[str, "np.ndarray | list[float]"]]
    ) -> "DesignMatrix":
        import numpy as np

        try:
            pairs = [(vid, vec) for vid, vec in pairs]
        except (TypeError, ValueError):  # not iterable, or an item not a pair
            refuse("design matrix", "columns", "be (id, values) pairs", pairs)
        vectors = [_float_array(vec, f"column {vid}") for vid, vec in pairs]
        shapes = {vec.shape for vec in vectors}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DimensionMismatch(
                f"columns must be vectors of one length, got shapes {sorted(shapes)}"
            )
        array = np.column_stack(vectors) if vectors else np.empty((0, 0))
        return cls(tuple(vid for vid, _ in pairs), array)

    @property
    def n_rows(self) -> int:
        return len(self.array)


@record
class ResponseVector:
    """The explained variable: an id and its observations."""

    variable_id: str
    values: np.ndarray

    def __post_init__(self) -> None:
        one_line(self.variable_id, "response", "variable id", "response id")
        values = _float_array(self.values, f"response {self.variable_id}")
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise DimensionMismatch("response must be a non-empty vector")


@record
class RegressionFit:
    """Result of a through-origin least squares fit.

    Coefficient-aligned arrays (coefficients, standard_errors, t_stats,
    p_values) share the order of variable_ids. Every reported statistic
    uses the uncentered convention. residuals and fitted are None on a
    fit from a stacked _fit call, which is every fit a subset search
    returns, from either strategy; fit_through_origin on the chosen
    columns gives them.
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
    residuals: np.ndarray | None
    fitted: np.ndarray | None
    _unprinted = ("residuals", "fitted")


def _gram(
    design: DesignMatrix, response: ResponseVector
) -> tuple[np.ndarray, np.ndarray, float]:
    """X'X, X'y and y'y, or DomainError naming the input that is not finite."""
    import numpy as np

    x = design.array
    y = response.values
    ids = design.variable_ids
    # Overflow and NaN are reported below as a DomainError naming the
    # input, so numpy's RuntimeWarnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        xtx = x.T @ x
        xty = x.T @ y
        tss_uncentered = float(y @ y)
    if not (
        np.isfinite(xtx).all()
        and np.isfinite(xty).all()
        and math.isfinite(tss_uncentered)
    ):
        bad = [vid for vid, d in zip(ids, np.diag(xtx)) if not math.isfinite(d)]
        what = (
            f"predictor(s) {', '.join(bad)}"
            if bad
            else f"response {response.variable_id}"
        )
        raise DomainError(f"non-finite value or overflow in {what}")
    return xtx, xty, tss_uncentered


def _fit(
    design: DesignMatrix,
    response: ResponseVector,
    gram: tuple[np.ndarray, np.ndarray, float],
    idx: list[list[int]] | None = None,
) -> RegressionFit | list[RegressionFit | None]:
    """The fit on all of the design's columns, from the Gram triple of the
    whole design, or a list of m fits on an (m, s) stack idx of ascending
    column lists.

    A stack returns None for each row it cannot fit: every row when
    n <= s, and each rank-deficient row. It is fitted together: one eigh,
    one matmul for all fitted values, turned into residuals in place, and
    one tail call. Stacked fits carry no residuals or fitted values, so
    no (m, n) array outlives the call. The fit on all columns is
    fit_through_origin's, which has checked n > k: it raises RankDeficient
    and carries residuals and fitted values.

    One eigendecomposition V diag(w) V' of a principal block of X'X
    gives the rank test, (X'X)^-1 and b. Residuals come from X, not
    y'y - b'X'y, which cancels when R^2 is near 1.
    """
    import numpy as np

    xtx, xty, tss_uncentered = gram
    x, ids = design.array, design.variable_ids
    n = len(x)
    # Every array below gains a leading axis for a stack. The fit on all
    # columns keeps the plain shapes, and so its cost and its bits: it is
    # the row () below.
    stacked = idx is not None
    if stacked:
        rows = np.asarray(idx)
        if n <= rows.shape[1]:
            return [None] * len(rows)
        xtx, xty = xtx[rows[:, :, None], rows[:, None, :]], xty[rows]
    k = xty.shape[-1]
    w, v = np.linalg.eigh(xtx)
    lo, hi = w.T[0], w.T[-1]
    ok = (lo > 0.0) & (lo >= RANK_RTOL * hi)
    if stacked:
        # A row that cannot be fitted solves to b = 0, and so t = 0, with
        # 1 / w = 0; it is dropped at the end.
        w[~ok] = np.inf
    elif not ok:
        raise RankDeficient(
            f"X'X eigenvalue ratio {lo:.3e} / {hi:.3e} below tolerance {RANK_RTOL:g}"
        )
    inv_xtx = (v / w[..., None, :]) @ v.swapaxes(-1, -2)
    beta = (inv_xtx @ xty[..., None])[..., 0]
    if idx is None:
        b_full = beta
    else:
        b_full = np.zeros(beta.shape[:-1] + x.shape[1:])
        np.put_along_axis(b_full, rows, beta, axis=-1)
    fitted = b_full @ x.T
    y = response.values
    residuals = np.subtract(y, fitted, out=fitted) if stacked else y - fitted
    ssr = (residuals[..., None, :] @ residuals[..., None])[..., 0, 0]
    dof = n - k
    std_errors = np.sqrt(np.maximum(inv_xtx.diagonal(0, -2, -1).T * (ssr / dof), 0.0)).T
    # A zero standard error makes t +-inf by the sign of b (p = 0), or 0
    # when b is 0 too (p = 1).
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = beta / std_errors
    t_stats[(std_errors == 0.0) & (beta == 0.0)] = 0.0
    p_values = np.array(t_two_sided_p(t_stats.ravel().tolist(), dof)).reshape(t_stats.shape)

    fits = []
    for i, good in enumerate(ok.tolist()) if stacked else [((), True)]:
        if not good:
            fits.append(None)
            continue
        row_ssr = float(ssr[i])
        r2 = 1.0 if tss_uncentered == 0.0 else 1.0 - row_ssr / tss_uncentered
        r2 = min(1.0, max(0.0, r2))
        fits.append(RegressionFit(
            variable_ids=ids if idx is None else tuple([ids[j] for j in rows[i].tolist()]),
            coefficients=beta[i],
            standard_errors=std_errors[i],
            t_stats=t_stats[i],
            p_values=p_values[i],
            r_squared=r2,
            adjusted_r_squared=1.0 - (1.0 - r2) * n / dof,
            multiple_r=math.sqrt(r2),
            standard_error_of_regression=math.sqrt(row_ssr / dof),
            n_observations=n,
            dof=dof,
            residuals=None if stacked else residuals,
            fitted=None if stacked else fitted,
        ))
    return fits if stacked else fits[0]


def fit_through_origin(design: DesignMatrix, response: ResponseVector) -> RegressionFit:
    """Fit response = design @ b with no intercept and return the full
    inference block.

    Requirements: response length matches the design rows, X'X, X'y and
    y'y are finite (no NaN or inf in the data and no overflow in the
    products), n > k >= 1, and X'X is numerically full rank (smallest to
    largest eigenvalue ratio at least 1e-12).
    """
    n, k = design.n_rows, len(design.variable_ids)
    if response.values.shape != (n,):
        raise DimensionMismatch(
            f"response has length {len(response.values)}, design has {n} rows"
        )
    # After _gram, so a non-finite input is named before a short one.
    gram = _gram(design, response)
    if n <= k:
        raise InsufficientObservations(
            f"need more observations than predictors, got n={n}, k={k}"
        )
    return _fit(design, response, gram)

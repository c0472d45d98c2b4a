"""Through-origin least squares with the inference block used in the reports.

The model is y = X b + e with no intercept column. Because there is no
intercept, R-squared is computed against the raw sum of squares of y
(the uncentered convention) and the adjusted version divides by n - k
without the usual n - 1 numerator.
"""

from __future__ import annotations

import math
import sys

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

# Rank test: the least smallest over largest eigenvalue of a column-scaled X'X block.
RANK_RTOL = 1e-12
# The most floats of fitted values a fit holds at once: 2**20, 8 MB.
_BLOCK_FLOATS = 2**20


def _float_array(values, what: str, order: str | None = None) -> np.ndarray:
    """values as a float ndarray, or a DomainError naming what they are for."""
    import numpy as np

    try:
        return np.asarray(values, dtype=float, order=order)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} cannot become a float array: {exc}") from None


@record
class DesignMatrix:
    """Predictor columns without intercept: array is n x k, column j is variable_ids[j].

    The array is held column-major (Fortran order), so each pass over
    the n rows reads a contiguous column, and a design has the same bits
    of every fit however it was built. A float array already in that
    order is held as given; any other is copied once.
    """

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
        object.__setattr__(self, "array", _float_array(self.array, "design matrix", "F"))
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
        # The transpose of one (k, n) copy is the n x k array in Fortran order;
        # with no columns the ids are refused before the array is read.
        return cls(tuple(vid for vid, _ in pairs), np.array(vectors).T)

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
    uses the uncentered convention. Every fit comes from one kernel,
    _fitter's. fit_through_origin, its one-row case, adds residuals and
    fitted; they are None on every other fit, which is every fit a
    subset search returns, from either strategy. fit_through_origin on
    the chosen columns gives them.
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
    residuals: np.ndarray | None = None
    fitted: np.ndarray | None = None
    _unprinted = ("residuals", "fitted")


def _fitter(design: DesignMatrix, response: ResponseVector):
    """The function that fits stacks of this design's column lists.

    The data is judged once, here: X'X, X'y and y'y must be finite, and
    each column's and y's sum of squares zero or at least the smallest
    normal float, or a DomainError names the input. Each column, and y,
    is then scaled by a power of two, exactly, to a norm in [0.5, 1), so
    the rank test is the same in any units (van der Sluis 1969) and no
    residual sum underflows or overflows.

    The function takes a stack idx of ascending column lists of any
    sizes and returns their fits in idx's order, None for each row it
    cannot fit: every row of a size s with n <= s, and each
    rank-deficient row. It is the one fitting kernel: fit_through_origin
    is its one-row case, each stepwise step is one call, and so is a
    whole exhaustive search. Per size, one eigh of the principal blocks
    G of the scaled X'X gives the rank test, G^-1 and b, and matmuls
    against X the fitted values, turned into residuals in place (not
    y'y - b'X'y, which cancels when R^2 is near 1). They are formed in
    blocks of whole rows of at most _BLOCK_FLOATS floats, one block when
    the size's (m, n) array fits, so a search over a tall design holds
    8 MB of them, not m n floats. A fitted row whose b or standard
    error, unscaled, passes the float range raises a DomainError naming
    its predictors. The t values of all sizes then take one tail call.
    The fits carry no residuals or fitted values, so no fitted block
    outlives its step.
    """
    import numpy as np

    x, y, ids = design.array, response.values, design.variable_ids
    # Overflow and NaN are reported below as a DomainError naming the
    # input, so numpy's RuntimeWarnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        xtx = x.T @ x
        xty = x.T @ y
        tss = float(y @ y)
    sq = np.diag(xtx)
    columns = list(zip(ids, sq.tolist(), x.T))
    for words, bad, bad_y in (
        ("non-finite value or overflow", [vid for vid, v, _ in columns if not math.isfinite(v)],
         not (np.isfinite(xtx).all() and np.isfinite(xty).all() and math.isfinite(tss))),
        # A zero column is left to the rank test.
        ("sum of squares below the smallest normal float",
         [vid for vid, v, col in columns if v < sys.float_info.min and col.any()],
         tss < sys.float_info.min and y.any()),
    ):
        if bad or bad_y:
            what = f"predictor(s) {', '.join(bad)}" if bad else f"response {response.variable_id}"
            raise DomainError(f"{words} in {what}")
    n = len(x)
    # d_i x_i'x_j d_j, never d_i d_j, which overflows for tiny data.
    d = np.ldexp(1.0, -np.frexp(np.sqrt(sq))[1])
    s = math.ldexp(1.0, -math.frexp(math.sqrt(tss))[1])
    gram, gram_y = xtx * d[:, None] * d, xty * d * s
    ys, tss = y * s, tss * s * s
    largest = sys.float_info.max * s  # inf when s > 1
    step = max(1, _BLOCK_FLOATS // n)  # rows of fitted values per block

    def fit(idx: list[list[int]]) -> list[RegressionFit | None]:
        by_size: dict[int, list[int]] = {}
        for i, cols in enumerate(idx):
            by_size.setdefault(len(cols), []).append(i)
        # Per size with a fitted row: (t, dof, positions in idx, rows, the
        # fitted rows' indices, beta, standard errors, SSR).
        blocks = []
        for k, at in by_size.items():
            if n <= k:
                continue
            rows = np.asarray([idx[i] for i in at])
            w, v = np.linalg.eigh(gram[rows[:, :, None], rows[:, None, :]])
            lo, hi = w[:, 0], w[:, -1]
            ok = (lo > 0.0) & (lo >= RANK_RTOL * hi)
            if not ok.any():
                continue
            # A row that cannot be fitted solves to b = 0, and so t = 0, with
            # 1 / w = 0; it is dropped at the end.
            w[~ok] = np.inf
            inv = (v / w[:, None, :]) @ v.swapaxes(-1, -2)
            # b and its standard errors in the columns' units, with y still scaled.
            d_rows = d[rows]
            beta = d_rows * (inv @ gram_y[rows][:, :, None])[:, :, 0]
            b_full = np.zeros((len(at), x.shape[1]))
            b_full[np.arange(len(at))[:, None], rows] = beta
            # The (m, n) fitted block, step whole rows at a time (all of them
            # in one matmul when it fits), turned into residuals in place.
            ssr = np.empty(len(at))
            for first in range(0, len(at), step):
                residuals = b_full[first:first + step] @ x.T
                np.subtract(ys, residuals, out=residuals)
                ssr[first:first + step] = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0]
                # Freed before the next block is formed: one block at a time.
                del residuals
            dof = n - k
            # Never negative: inv's diagonal sums v**2 / w over w > 0, and SSR / dof >= 0.
            std_errors = d_rows * np.sqrt(inv.diagonal(0, -2, -1) * (ssr / dof)[:, None])
            # A zero standard error makes t +-inf by the sign of b (p = 0), or 0
            # when b is 0 too (p = 1).
            with np.errstate(divide="ignore", invalid="ignore"):
                t_stats = beta / std_errors
            t_stats[(std_errors == 0.0) & (beta == 0.0)] = 0.0
            # Unscaled by y's power of two, a b or standard error above
            # largest passes the float range: its row is refused, by name.
            # A row not fitted has b = 0 and standard errors 0.
            bound = np.maximum(np.abs(beta), std_errors)
            if bound.max() > largest:
                names = ", ".join(ids[j] for j in rows[bound.max(1).argmax()].tolist())
                raise DomainError(
                    f"coefficient or standard error beyond the float range for predictor(s) {names}"
                )
            kept = np.flatnonzero(ok).tolist()
            blocks.append((t_stats, dof, at, rows, kept, beta / s, std_errors / s, ssr))

        fits: list[RegressionFit | None] = [None] * len(idx)
        if not blocks:
            return fits
        # One tail call for the t values of every size: a lone size passes its
        # t array and dof, mixed sizes their t arrays joined and one dof per t.
        # A row that was not fitted has t = 0, and so the cheapest tail, p = 1.
        if len(blocks) == 1:
            t_all, dof_all = blocks[0][0].ravel(), blocks[0][1]
        else:
            t_all = np.concatenate([t.ravel() for t, *_ in blocks])
            dof_all = np.repeat([dof for _, dof, *_ in blocks], [t.size for t, *_ in blocks]).tolist()
        p_all = np.array(t_two_sided_p(t_all, dof_all))
        start = 0
        for t_stats, dof, at, rows, kept, beta, std_errors, ssr in blocks:
            p_values = p_all[start:start + t_stats.size].reshape(t_stats.shape)
            start += t_stats.size
            for i in kept:
                row_ssr = float(ssr[i])
                # SSR is a sum of squares, so only the floor at 0 can bind.
                r2 = 1.0 if tss == 0.0 else max(0.0, 1.0 - row_ssr / tss)
                fits[at[i]] = RegressionFit(
                    variable_ids=tuple([ids[j] for j in rows[i].tolist()]),
                    coefficients=beta[i],
                    standard_errors=std_errors[i],
                    t_stats=t_stats[i],
                    p_values=p_values[i],
                    r_squared=r2,
                    adjusted_r_squared=1.0 - (1.0 - r2) * n / dof,
                    multiple_r=math.sqrt(r2),
                    standard_error_of_regression=math.sqrt(row_ssr / dof) / s,
                    n_observations=n,
                    dof=dof,
                )
        return fits

    return fit


def fit_through_origin(design: DesignMatrix, response: ResponseVector) -> RegressionFit:
    """Fit response = design @ b with no intercept and return the full
    inference block, with residuals and fitted values.

    Requirements: response length matches the design rows, the data is
    in _fitter's domain (judged before n > k >= 1), and X'X with each
    column scaled to a norm in [0.5, 1) has a smallest to largest
    eigenvalue ratio of at least RANK_RTOL.
    """
    n, k = design.n_rows, len(design.variable_ids)
    if response.values.shape != (n,):
        raise DimensionMismatch(
            f"response has length {len(response.values)}, design has {n} rows"
        )
    # The fitter first, so data out of its domain is named before a short one.
    fit_stack = _fitter(design, response)
    if n <= k:
        raise InsufficientObservations(
            f"need more observations than predictors, got n={n}, k={k}"
        )
    fit = fit_stack([list(range(k))])[0]
    if fit is None:
        raise RankDeficient(
            f"predictor(s) {', '.join(design.variable_ids)} are rank deficient: with each"
            " column scaled by a power of two to a norm in [0.5, 1), the smallest to"
            f" largest eigenvalue ratio of X'X is below {RANK_RTOL:g}"
        )
    fitted = design.array @ fit.coefficients
    residuals = response.values - fitted
    return RegressionFit(**{**vars(fit), "residuals": residuals, "fitted": fitted})

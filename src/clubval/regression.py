"""Through-origin least squares with the inference block used in the reports.

The model is y = X b + e with no intercept column. Because there is no
intercept, R-squared is computed against the raw sum of squares of y
(the uncentered convention) and the adjusted version divides by n - k
without the usual n - 1 numerator.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from operator import mul

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

# Rank test: s columns are fitted when cond^2 * RANK_RTOL <= 1, cond being the
# Frobenius condition estimate ||U||_F ||U^-1||_F of their column-scaled
# triangle U, which overstates the 2-norm condition by at most a factor of s.
RANK_RTOL = 1e-12
# The largest ||R1||_F ||R1^-1||_F for which _factor keeps CholeskyQR2's R.
# Worst relative error in b against an exact solve at set cond(X), CholeskyQR2
# against Householder: 8.5e-10 / 1.8e-9 at cond 1e7 and 1.8e-9 / 6.1e-9 at 3e7
# (5 seeds, 40 x 4), 2.2e-10 / 1.5e-9 and 3.6e-10 / 2.7e-9 (3 seeds, 20,000 x 6,
# three subsets each); the estimate read up to 1.2e7 and 3.8e7. An exactly
# singular [X y] (the bench's short designs, seeds 1-10) either fails the
# Cholesky or reads 1.8e8 to 4.0e8, past eps^-1/2, where CholeskyQR2 fails.
_CHOLESKY_QR_MAX_COND = 1e7
# The most floats of a block of rows that _column_major copies at once: 2**15,
# 256 KB. Copying 8 strided columns of 60,000 rows on a 2-CPU Xeon, best of 40,
# three runs: 0.52-0.57 ms in blocks of 4,096 rows, 0.51-0.53 ms in 16,384,
# 1.24-1.34 ms in 65,536, and 1.21-1.63 ms by np.array, which reads each
# column on its own and so loads each cache line of the source k times.
_COPY_FLOATS = 2**15
# The fewest rows a block has, so a wide design makes one slice assignment
# per column per 1,024 rows, not n * k**2 / 2**15 of them. Best of 7 or 15 on
# the same box, np.array against blocks of 2**15 // k, 256 and 1,024 rows:
# 5,000 x 1,000 44 / 106 / 31 / 24 ms; 2,000 x 4,000 56 / 560 / 60 / 44 ms;
# 100 x 40,000 20 / 2,065 / 21 / 22 ms; 60,000 x 64 38 / 12 / 14 / 11 ms.
_COPY_MIN_ROWS = 1024
# The form rule: a design of at most _PURE_MAX_COLUMNS columns (the most the
# CLI can name) and _PURE_MAX_ROWS rows is fitted in pure Python, any other
# with numpy. CPU time on a 2-CPU Xeon, Python 3.11, numpy 2.4, medians of 5
# best-of-21 runs: a whole 127-subset search of 7 list candidates, flags and
# all, costs 5.7 ms in pure form against 1.9 ms in numpy form at n = 60, and
# 9.1 against 3.1 ms at n = 1,000, the rule's edge; importing numpy costs a
# child 148 ms. So a cold caller saves over 130 ms anywhere within the rule
# (and would at n = 2,000, where the pure search costs 12.9 ms), and a warm
# caller, numpy loaded, pays up to 6.0 ms more for the largest search at the
# edge and 2.7 ms more for one fit of 7 columns (2.9 against 0.2 ms).
_PURE_MAX_COLUMNS = 7
_PURE_MAX_ROWS = 1_000
_NUMBER_TYPES = frozenset((float, int, bool))


def _float_array(values, what: str, order: str | None = None) -> np.ndarray:
    """values as a float ndarray, or a DomainError naming what they are for."""
    import numpy as np

    try:
        return np.asarray(values, dtype=float, order=order)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} cannot become a float array: {exc}") from None


def _column_major(vectors) -> np.ndarray:
    """The n x k float array in Fortran order whose columns are vectors,
    k float vectors of one length n, k >= 1: copied _COPY_FLOATS // k rows
    (at least _COPY_MIN_ROWS) of every column at a time, so each cache line
    of a strided source is loaded once, as in a blocked transpose (Lam,
    Rothberg & Wolf 1991)."""
    import numpy as np

    out = np.empty((len(vectors), len(vectors[0])))
    step = max(_COPY_MIN_ROWS, _COPY_FLOATS // len(vectors))
    for first in range(0, out.shape[1], step):
        for row, vec in zip(out, vectors):
            row[first:first + step] = vec[first:first + step]
    return out.T


def _float_tuples(columns) -> tuple[tuple[float, ...], ...] | None:
    """columns, each a non-empty list or tuple of ints and floats, as float
    tuples; None for anything else, which numpy's conversion judges."""
    held = []
    for col in columns:
        if type(col) not in (list, tuple) or not col or not set(map(type, col)) <= _NUMBER_TYPES:
            return None
        try:
            held.append(tuple(map(float, col)))
        except OverflowError:  # an int past the float range: numpy names it
            return None
    return tuple(held)


def _built_on_read(self, name: str):
    """The ndarray field of a record held as float tuples (_held), formed
    from them on first read and kept, read-only: n x k in Fortran order for
    a design, a vector for a response."""
    held = self.__dict__.get("_held")
    if name != self._built or held is None:
        raise AttributeError(name)
    import numpy as np

    array = np.array(held).T
    array.flags.writeable = False
    self.__dict__[name] = array
    return array


@record
class DesignMatrix:
    """Predictor columns without intercept: array is n x k, column j is variable_ids[j].

    Rows given as a non-empty list or tuple of lists or tuples of k ints
    and floats, as from_columns passes list columns, are held as k float
    tuples, and array is formed from them on first read: a design that
    only the pure form fits (see _fitter) never loads numpy. Any other
    input is converted by numpy. The array is column-major (Fortran
    order), so each pass over the n rows reads a contiguous column, and a
    design has the same bits of every fit however it was built. A float
    array already in that order is held as given; any other is copied
    once. from_columns copies its columns once, a block of rows at a
    time (see _column_major).
    """

    variable_ids: tuple[str, ...]
    array: np.ndarray
    _unprinted = ("array",)
    _built = "array"
    # (fitter, response, column positions) of a search, set by CandidateSet.design_for.
    _source = None
    __getattr__ = _built_on_read

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
        rows = self.array
        held = None
        if type(rows) in (list, tuple) and rows and all(
                type(row) in (list, tuple) and len(row) == len(ids) for row in rows):
            held = _float_tuples(zip(*rows))
        object.__setattr__(self, "_held", held)
        if held is not None:
            del self.__dict__["array"]  # formed from _held when read
            return
        object.__setattr__(self, "array", _float_array(rows, "design matrix", "F"))
        if self.array.shape[1:] != (len(ids),) or self.n_rows == 0:
            raise DimensionMismatch(f"array {self.array.shape} is not n x {len(ids)}, n > 0")

    @classmethod
    def from_columns(
        cls, pairs: list[tuple[str, "np.ndarray | list[float]"]]
    ) -> "DesignMatrix":
        try:
            pairs = [(vid, vec) for vid, vec in pairs]
        except (TypeError, ValueError):  # not iterable, or an item not a pair
            refuse("design matrix", "columns", "be (id, values) pairs", pairs)
        ids = tuple(vid for vid, _ in pairs)
        held = _float_tuples([vec for _, vec in pairs])
        if held and len(set(map(len, held))) == 1:
            return cls(ids, list(zip(*held)))
        vectors = [_float_array(vec, f"column {vid}") for vid, vec in pairs]
        shapes = {vec.shape for vec in vectors}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DimensionMismatch(
                f"columns must be vectors of one length, got shapes {sorted(shapes)}"
            )
        if not vectors:  # refused by the ids before the array is read
            return cls(ids, [])
        array = _column_major(vectors)
        array.flags.writeable = False
        return cls(ids, array)

    @property
    def n_rows(self) -> int:
        return len(self._held[0]) if self._held else len(self.array)

    def _compared(self) -> tuple:
        """What equality and hashing see: held columns as they are, an array's as float tuples."""
        return self.variable_ids, self._held or tuple(map(tuple, self.array.T.tolist()))


@record
class ResponseVector:
    """The explained variable: an id and its observations.

    A non-empty list or tuple of ints and floats is held as a float
    tuple, and values, the float ndarray, is formed from it on first
    read; any other input is converted by numpy.
    """

    variable_id: str
    values: np.ndarray
    _built = "values"
    __getattr__ = _built_on_read

    def __post_init__(self) -> None:
        one_line(self.variable_id, "response", "variable id", "response id")
        held = _float_tuples([self.values])
        object.__setattr__(self, "_held", held and held[0])
        if held:
            del self.__dict__["values"]  # formed from _held when read
            return
        values = _float_array(self.values, f"response {self.variable_id}")
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise DimensionMismatch("response must be a non-empty vector")

    @property
    def n_rows(self) -> int:
        return len(self._held or self.values)

    def _compared(self) -> tuple:
        return self.variable_id, self._held or tuple(self.values.tolist())


@record
class RegressionFit:
    """Result of a through-origin least squares fit.

    Coefficient-aligned fields (coefficients, standard_errors, t_stats)
    are float tuples in the order of variable_ids, so fits compare and
    hash by value; p_values, one more, is formed from t_stats and dof by
    one t_two_sided_p call when first read. Every reported statistic uses
    the uncentered convention. Every fit comes from one kernel, _fitter's,
    which solves from a triangular factor of [X y] in either of its forms.
    fit_through_origin, its one-row case, keeps the design and response
    it fitted, and fitted (X b) and residuals (y - X b) are formed from
    them as ndarrays on first read, X b once. They are None on every
    other fit, which is every fit a subset search returns, from either
    strategy; fit_through_origin on the chosen columns gives them.
    """

    variable_ids: tuple[str, ...]
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    r_squared: float
    adjusted_r_squared: float
    multiple_r: float
    standard_error_of_regression: float
    n_observations: int
    dof: int
    _data = None  # (design, response), set by fit_through_origin

    @cached_property
    def p_values(self) -> tuple[float, ...]:
        return tuple(t_two_sided_p(self.t_stats, self.dof))

    @cached_property
    def fitted(self) -> np.ndarray | None:
        if self._data is None:
            return None
        import numpy as np

        return self._data[0].array @ np.array(self.coefficients)

    @cached_property
    def residuals(self) -> np.ndarray | None:
        return None if self._data is None else self._data[1].values - self.fitted


def _mgs(columns) -> list[list[float]]:
    """R, upper triangular with a non-negative diagonal, of the m columns
    given (sequences of one length), as a list of rows, by modified
    Gram-Schmidt. Its R is backward stable even where its Q is not
    orthonormal, so the least-squares b that R of [X y] gives loses digits
    as cond(X), not as cond(X)^2 (Bjorck 1967; Bjorck & Paige 1992). A
    column that nothing is left of, once the earlier ones are taken out,
    gives a zero pivot and a zero row.
    """
    q = list(columns)
    m = len(q)
    r = [[0.0] * m for _ in range(m)]
    for i in range(m):
        qi = q[i]
        norm = math.sqrt(sum(map(mul, qi, qi)))
        if not norm:
            continue
        ri = r[i]
        ri[i] = norm
        qi = [v / norm for v in qi]
        for j in range(i + 1, m):
            qj = q[j]
            rij = ri[j] = sum(map(mul, qi, qj))
            q[j] = [a - rij * b for a, b in zip(qj, qi)]
    return r


def _beyond_range(ids: tuple[str, ...], cols) -> DomainError:
    names = ", ".join(ids[j] for j in cols)
    return DomainError(
        f"coefficient or standard error beyond the float range for predictor(s) {names}"
    )


def _factor(x: np.ndarray, y: np.ndarray, xtx: np.ndarray, xty: np.ndarray, tss: float,
            d: list[float], s: float) -> np.ndarray:
    """R, upper triangular, with A = Q R and Q's columns orthonormal, for
    A = [X D, y s], D = diag(d) (tss is y's scaled sum of squares): so
    R's columns S and y, reduced to a triangle, are a QR of A's.

    CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto 2014): R1 is
    the Cholesky factor of A'A, formed from the domain check's X'X, X'y
    and y'y; with M = R1^-1, Q1 = A M is X (D M[:k]) plus y s M[k, k] in
    its last column, so A is never formed; R2 is the Cholesky factor of
    Q1'Q1, and R = R2 R1. A Cholesky that fails, or an R1 whose
    ||R1||_F ||R1^-1||_F passes _CHOLESKY_QR_MAX_COND, leaves R to
    Householder QR of A (np.linalg.qr), as for an exactly singular [X y].
    """
    import numpy as np

    k = len(d)
    scale = np.array([*d, s])
    gram = np.empty((k + 1, k + 1))
    # d_i x_i'x_j d_j, never d_i d_j, which overflows for tiny data.
    gram[:k, :k] = xtx * scale[:k, None] * scale[:k]
    gram[:k, k] = gram[k, :k] = xty * scale[:k] * s
    gram[k, k] = tss
    with np.errstate(all="ignore"):
        try:
            r1 = np.linalg.cholesky(gram).T
            m = np.linalg.inv(r1)
            if np.linalg.norm(r1) * np.linalg.norm(m) <= _CHOLESKY_QR_MAX_COND:
                # Q1', row by row: a product of C-ordered arrays, since X is
                # column-major, and y's row added contiguously.
                q = (m[:k] * scale[:k, None]).T @ x.T
                q[k] += y * (s * m[k, k])
                return np.linalg.cholesky(q @ q.T).T @ r1
        except np.linalg.LinAlgError:  # not positive definite in floats
            pass
    a = np.empty((len(y), k + 1), order="F")
    np.multiply(x, scale[:k], out=a[:, :k])
    np.multiply(y, s, out=a[:, k])
    return np.linalg.qr(a, mode="r")


def _fitter(design: DesignMatrix, response: ResponseVector):
    """The function that fits stacks of this design's column lists.

    The data is judged once, here: X'X, X'y and y'y must be finite (the
    pure form reads the sums of squares, which bound the rest), and each
    column's and y's sum of squares zero or at least the smallest normal
    float, or a DomainError names the input. Each column, and y, is then
    scaled by a power of two, exactly, to a norm in [0.5, 1), so the rank
    test is the same in any units (van der Sluis 1969) and no residual
    sum underflows or overflows.

    The function takes a stack idx of column lists of any sizes,
    ascending in a search, and returns their fits in idx's order, None
    for each row it cannot fit: every row of a size s with n <= s, and
    each rank-deficient row. It is the one fitting kernel:
    fit_through_origin is its one-row case, each stepwise step is one
    call, and so is a whole exhaustive search. Both forms refuse a row by
    one rule. Let U be its scaled triangle, the R of its scaled columns:
    the row is refused when ||U||_F^2 ||U^-1||_F^2 * RANK_RTOL > 1, or U
    has a zero pivot. A fitted row whose b or standard error, unscaled,
    passes the float range raises a DomainError naming its predictors.
    The function stops at t: it makes no tail call, and each fit forms
    its p-values when they are read.

    One algorithm does that work. It factors the scaled [X y] once into
    an upper-triangular R, and reduces each row's columns of R with y's
    to a triangle [[U, c], [0, rho]]: b = U^-1 c, SSR = rho^2 with no
    cancellation, and the standard errors from the row norms of U^-1,
    formed by an s-step back substitution. No work after the factor
    depends on n, and a row has the same bits in any stack, so a refit
    through the fitter a search kept (see selection.CandidateSet) has
    the search's bits. The design's size alone picks one of two forms of
    it, which differ only in the vehicle and agree within rounding (see
    _PURE_MAX_ROWS). A design of the CLI's size takes the pure form, so
    it never loads numpy: modified Gram-Schmidt in Python (_mgs) for R,
    and again for each row's triangle. Any other takes the numpy form: R
    by CholeskyQR2 (see _factor), and for each size one batched
    Householder QR of the rows' blocks.
    """
    ids = design.variable_ids
    n, k = design.n_rows, len(ids)
    pure = k <= _PURE_MAX_COLUMNS and n <= _PURE_MAX_ROWS
    if pure:
        xs = design._held or design.array.T.tolist()
        y = response._held or response.values.tolist()
        # X'X off its diagonal, and X'y, are finite when these sums of
        # squares are (Cauchy-Schwarz).
        sq = [sum(map(mul, a, a)) for a in xs]
        tss = sum(map(mul, y, y))
        finite = all(map(math.isfinite, [*sq, tss]))
        columns, nonzero = xs, any
    else:
        import numpy as np

        x, y = design.array, response.values
        # Overflow and NaN are reported below as a DomainError naming the
        # input, so numpy's RuntimeWarnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            xtx = x.T @ x
            xty = x.T @ y
            tss = float(y @ y)
        finite = bool(np.isfinite(xtx).all() and np.isfinite(xty).all()) and math.isfinite(tss)
        sq = xtx.diagonal().tolist()
        columns, nonzero = x.T, np.ndarray.any
    for words, bad, bad_y in (
        ("non-finite value or overflow", [vid for vid, v in zip(ids, sq) if not math.isfinite(v)],
         not finite),
        # A zero column is left to the rank test.
        ("sum of squares below the smallest normal float",
         [vid for vid, v, col in zip(ids, sq, columns) if v < sys.float_info.min and nonzero(col)],
         tss < sys.float_info.min and nonzero(y)),
    ):
        if bad or bad_y:
            what = f"predictor(s) {', '.join(bad)}" if bad else f"response {response.variable_id}"
            raise DomainError(f"{words} in {what}")
    # d_i x_i'x_j d_j, never d_i d_j, which overflows for tiny data.
    d = [math.ldexp(1.0, -math.frexp(math.sqrt(v))[1]) for v in sq]
    s = math.ldexp(1.0, -math.frexp(math.sqrt(tss))[1])
    tss = tss * s * s
    largest = sys.float_info.max * s  # inf when s > 1

    if pure:
        # R of the scaled [X y], by columns: column k is y's.
        r = list(zip(*_mgs([[v * dj for v in a] for a, dj in zip(xs, d)] + [[v * s for v in y]])))

        def solve(rows: list[list[int]]) -> list[tuple | None]:
            """(b, standard errors, t, SSR) of each row of one size, or None
            for a rank-deficient row; SSR with y still scaled."""
            out, worst, bound_max = [], None, 0.0
            size = len(rows[0])
            dof = n - size
            for cols in rows:
                # The row's columns of R and y's, reduced to a triangle
                # [[U, c], [0, rho]]: b = U^-1 c and SSR = rho^2, y still scaled.
                tri = _mgs([r[j] for j in cols] + [r[k]])
                if not all(tri[i][i] for i in range(size)):  # a zero pivot
                    out.append(None)
                    continue
                # U^-1 [I c] by back substitution, one step per column of U from the last.
                z = [[float(i == j) for j in range(size)] + [tri[i][size]] for i in range(size)]
                for i in range(size - 1, -1, -1):
                    zi = z[i] = [v / tri[i][i] for v in z[i]]
                    for h in range(i):
                        u = tri[h][i]
                        z[h] = [a - u * b for a, b in zip(z[h], zi)]
                # The squared row norms of U^-1 are diag((U'U)^-1); the rank
                # test's cond(U)^2 <= ||U||_F^2 ||U^-1||_F^2, inf or NaN if U^-1 overflows.
                inv_sq = [sum([v * v for v in zi[:size]]) for zi in z]
                u_sq = sum([v * v for row in tri[:size] for v in row[:size]])
                if not (u_sq * sum(inv_sq) * RANK_RTOL <= 1.0):
                    out.append(None)
                    continue
                ssr = tri[size][size] * tri[size][size]
                # b and its standard errors in the columns' units, with y still scaled.
                beta = [d[j] * zi[size] for j, zi in zip(cols, z)]
                se = [d[j] * math.sqrt(v * (ssr / dof)) for j, v in zip(cols, inv_sq)]
                # A zero standard error makes t +-inf by the sign of b (p = 0), or 0
                # when b is 0 too (p = 1).
                t = [b / e if e else math.copysign(math.inf, b) if b else 0.0
                     for b, e in zip(beta, se)]
                bound = max(max(map(abs, beta)), max(se))
                if bound > bound_max:
                    worst, bound_max = cols, bound
                out.append(([b / s for b in beta], [e / s for e in se], t, ssr))
            # Unscaled by y's power of two, a b or standard error above
            # largest passes the float range: the row with the largest is refused.
            if bound_max > largest:
                raise _beyond_range(ids, worst)
            return out
    else:
        r = _factor(x, y, xtx, xty, tss, d, s)
        d = np.array(d)

        def solve(rows: list[list[int]]) -> list[tuple | None]:
            rows = np.asarray(rows)
            m, size = rows.shape
            # Each row's columns of R and y's, reduced to a triangle
            # [[U, c], [0, rho]]: b = U^-1 c and SSR = rho^2, y still scaled.
            cols = np.empty((m, size + 1), dtype=int)
            cols[:, :size], cols[:, size] = rows, k
            tri = np.linalg.qr(r[:, cols].transpose(1, 0, 2), mode="r")
            u = tri[:, :size, :size]
            # U^-1 [I c] by back substitution, one step per column of U from
            # the last: elementwise, so a row has the same bits in any stack.
            z = np.zeros((m, size, size + 1))
            z[:, range(size), range(size)] = 1.0
            z[:, :, size] = tri[:, :size, size]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for i in range(size - 1, -1, -1):
                    z[:, i] /= u[:, i, i, None]
                    z[:, :i] -= u[:, :i, i, None] * z[:, i, None]
                # The squared row norms of U^-1 are diag((U'U)^-1); the rank
                # test's cond(U)^2 <= ||U||_F^2 ||U^-1||_F^2, inf or NaN at a zero pivot.
                inv_sq = np.square(z[:, :, :size]).sum(2)
                ok = np.square(u).sum((1, 2)) * inv_sq.sum(1) * RANK_RTOL <= 1.0
            if not ok.any():
                return [None] * m
            # A row that cannot be fitted has b = 0 and standard errors 0; it
            # is dropped at the end.
            beta = np.where(ok[:, None], z[:, :, size], 0.0)
            inv_sq[~ok] = 0.0
            ssr = np.square(tri[:, size, size])
            # b and its standard errors in the columns' units, with y still scaled.
            d_rows = d[rows]
            beta *= d_rows
            std_errors = d_rows * np.sqrt(inv_sq * (ssr / (n - size))[:, None])
            # A zero standard error makes t +-inf by the sign of b (p = 0), or 0
            # when b is 0 too (p = 1).
            with np.errstate(divide="ignore", invalid="ignore"):
                t_stats = beta / std_errors
            t_stats[(std_errors == 0.0) & (beta == 0.0)] = 0.0
            # Unscaled by y's power of two, a b or standard error above
            # largest passes the float range: its row is refused, by name.
            bound = np.maximum(np.abs(beta), std_errors)
            if bound.max() > largest:
                raise _beyond_range(ids, rows[bound.max(1).argmax()].tolist())
            return [row if fitted else None for fitted, row in zip(ok.tolist(), zip(
                (beta / s).tolist(), (std_errors / s).tolist(), t_stats.tolist(), ssr.tolist()))]

    def fit(idx: list[list[int]]) -> list[RegressionFit | None]:
        by_size: dict[int, list[int]] = {}
        for i, cols in enumerate(idx):
            by_size.setdefault(len(cols), []).append(i)
        # (position in idx, (b, standard errors, t, SSR)) of each fitted row.
        solved = []
        for size, at in by_size.items():
            if n > size:
                solved += [(i, row) for i, row in zip(at, solve([idx[i] for i in at])) if row]
        fits: list[RegressionFit | None] = [None] * len(idx)
        for i, (beta, std_errors, t_stats, ssr) in solved:
            dof = n - len(beta)
            # SSR is a sum of squares, so only the floor at 0 can bind.
            r2 = 1.0 if tss == 0.0 else max(0.0, 1.0 - ssr / tss)
            fits[i] = RegressionFit(
                variable_ids=tuple([ids[j] for j in idx[i]]),
                coefficients=tuple(beta),
                standard_errors=tuple(std_errors),
                t_stats=tuple(t_stats),
                r_squared=r2,
                adjusted_r_squared=1.0 - (1.0 - r2) * n / dof,
                multiple_r=math.sqrt(r2),
                standard_error_of_regression=math.sqrt(ssr / dof) / s,
                n_observations=n,
                dof=dof,
            )
        return fits

    return fit


def fit_through_origin(design: DesignMatrix, response: ResponseVector) -> RegressionFit:
    """Fit response = design @ b with no intercept and return the full
    inference block; its fitted values and residuals are formed when read.

    Requirements: response length matches the design rows, the data is
    in _fitter's domain (judged before n > k >= 1), and X, each column
    scaled by a power of two to a norm in [0.5, 1), passes _fitter's rank
    test: its squared Frobenius condition estimate is at most
    1 / RANK_RTOL. A design that CandidateSet.design_for made after a
    search, given that set's response object, is fitted through the
    fitter the search formed: with no pass over the rows, and with the
    search's bits for those columns. Any other design is fitted anew.
    """
    n, k = design.n_rows, len(design.variable_ids)
    if response.n_rows != n:
        raise DimensionMismatch(f"response has length {response.n_rows}, design has {n} rows")
    # A candidate set's columns fit through the fitter its search kept, on
    # its response; any other design through its own, formed first, so data
    # out of its domain is named before a short one.
    fit_stack, searched, cols = design._source or (None, None, None)
    if searched is not response:
        fit_stack, cols = _fitter(design, response), list(range(k))
    if n <= k:
        raise InsufficientObservations(
            f"need more observations than predictors, got n={n}, k={k}"
        )
    fit = fit_stack([cols])[0]
    if fit is None:
        raise RankDeficient(
            f"predictor(s) {', '.join(design.variable_ids)} are rank deficient: with each"
            " column scaled by a power of two to a norm in [0.5, 1), the squared"
            f" Frobenius condition estimate of X passes {1 / RANK_RTOL:g}"
        )
    object.__setattr__(fit, "_data", (design, response))
    return fit

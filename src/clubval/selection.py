"""Explanatory-variable subset search over through-origin fits.

Two strategies: exhaustive enumeration of all subsets up to a size cap
(the default, and ground truth at this scale) and the classic stepwise
add/drop loop driven by significance thresholds. Both return the same
deterministic report shape.
"""

from __future__ import annotations

import itertools

from ._record import count, finite, record
from .errors import DimensionMismatch, DomainError, MissingPredictor, TooManyCandidates
from .regression import DesignMatrix, RegressionFit, ResponseVector, _fit, _gram
# Not called here: bench/tracer.py wraps this name to time a search's fits.
from .regression import fit_through_origin  # noqa: F401

# As in regression: numpy only at call time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

MAX_CANDIDATES = 12


@record
class CandidateSet:
    """Candidate predictor columns and the response they explain."""

    design: DesignMatrix
    response: ResponseVector

    def __post_init__(self) -> None:
        n = len(self.response.values)
        if self.design.n_rows != n:
            raise DimensionMismatch(
                f"candidates have {self.design.n_rows} rows, response has {n}"
            )

    @classmethod
    def from_columns(
        cls,
        pairs: list[tuple[str, "np.ndarray | list[float]"]],
        response: ResponseVector,
    ) -> "CandidateSet":
        return cls(DesignMatrix.from_columns(pairs), response)

    @property
    def variable_ids(self) -> tuple[str, ...]:
        return self.design.variable_ids

    def design_for(self, subset: tuple[str, ...]) -> DesignMatrix:
        # take copies the chosen columns into one C-ordered array; x[:, idx]
        # would be F-ordered, which changes the rounding of X'X.
        ids = self.design.variable_ids
        for vid in subset:
            if vid not in ids:
                raise MissingPredictor(vid)
        idx = [ids.index(vid) for vid in subset]
        return DesignMatrix(tuple(subset), self.design.array.take(idx, axis=1))


@record
class RankedModel:
    variable_ids: tuple[str, ...]
    fit: RegressionFit
    all_significant: bool


@record
class SelectionReport:
    """Ranked fits plus the subsets that could not be fitted.

    ranked_models is ordered by adjusted R squared descending, ties
    broken by fewer variables and then lexicographic ids, so identical
    inputs always produce identical reports. converged is False only
    when the stepwise loop detected a cycle and stopped early.
    """

    ranked_models: tuple[RankedModel, ...]
    skipped: tuple[tuple[str, ...], ...] = ()
    converged: bool = True

    @property
    def best(self) -> RankedModel | None:
        return self.ranked_models[0] if self.ranked_models else None


def _rank_key(model: RankedModel) -> tuple:
    return (-model.fit.adjusted_r_squared, len(model.variable_ids), model.variable_ids)


def _ranked(fit: RegressionFit, alpha: float) -> RankedModel:
    return RankedModel(fit.variable_ids, fit, all(p <= alpha for p in fit.p_values))


def exhaustive_subsets(
    cands: CandidateSet, max_size: int, alpha: float = 0.05
) -> SelectionReport:
    """Fit every non-empty candidate subset of at most max_size variables.

    Rank-deficient subsets, and every subset of a size s with n <= s,
    are recorded as skipped rather than fitted. At most MAX_CANDIDATES
    candidates are searched.

    X'X of all the candidates is formed once, and each size is one
    stacked call of the routine behind fit_through_origin: one eigh, one
    matmul against X for the residuals, one tail call. Subsets of equal
    span (c0 + c1 and c0 + c2 with c2 = c0 + c1, say) are ordered by
    rounding. Search fits carry no residuals or fitted values; refit a
    model for them with
    fit_through_origin(cands.design_for(ids), cands.response).
    """
    ids = cands.variable_ids
    if len(ids) > MAX_CANDIDATES:
        raise TooManyCandidates(
            f"{len(ids)} candidates exceed the exhaustive search cap of {MAX_CANDIDATES}"
        )
    count(max_size, None, "max_size", 1, len(ids))
    finite(alpha, None, "alpha", 0, True, 1)
    design, response = cands.design, cands.response
    gram = _gram(design, response)
    models: list[RankedModel] = []
    skipped: list[tuple[str, ...]] = []
    for size in range(1, max_size + 1):
        combos = list(itertools.combinations(range(len(ids)), size))
        for cols, fit in zip(combos, _fit(design, response, gram, combos)):
            if fit is None:
                skipped.append(tuple(ids[j] for j in cols))
            else:
                models.append(_ranked(fit, alpha))
    models.sort(key=_rank_key)
    return SelectionReport(ranked_models=tuple(models), skipped=tuple(skipped))


def stepwise(
    cands: CandidateSet, alpha_in: float = 0.05, alpha_out: float = 0.10
) -> SelectionReport:
    """Forward-backward selection to a fixed point.

    Each iteration first adds the candidate with the smallest p-value
    below alpha_in (ties broken by candidate order), then repeatedly
    drops the worst variable whose p-value exceeds alpha_out. Stops at
    a fixed point, or with converged False if the state cycles.

    Every add and drop is decided from one Gram matrix X'X of all the
    candidates, formed once per search. A forward step fits all of its
    trials as one stack in the routine behind fit_through_origin (one
    eigh, one matmul against X for the residuals, one tail call) and
    skips a trial it cannot fit. The winning trial's fit is the first
    backward check; each drop costs one fit, a one-row stack, and a
    forward step that adds nothing ends the search. The model reported
    is the last fit of the chosen columns, so, as in an exhaustive
    search, it carries no residuals or fitted values; refit it with
    fit_through_origin(cands.design_for(ids), cands.response).
    Candidates that tie in exact arithmetic (c0, c1 and c0 + c1, say)
    are ordered by rounding. There is no cap on the number of
    candidates: a forward step holds one n-vector per trial.
    """
    need = "need 0 < alpha_in <= alpha_out <= 1"
    finite(alpha_in, need, "alpha_in")
    finite(alpha_out, need, "alpha_out")
    if not (0.0 < alpha_in <= alpha_out <= 1.0):
        raise DomainError(f"{need}, got {alpha_in}, {alpha_out}")
    ids = cands.variable_ids
    design, response = cands.design, cands.response
    gram = _gram(design, response)
    current: list[int] = []  # positions in ids, ascending
    fit = None  # the fit of current, None while it is empty or unfittable
    seen: set[frozenset[int]] = {frozenset()}
    converged = True

    while True:
        # Forward step: every trial that adds one candidate, fitted as one
        # stack; the best addition by p-value, ties by candidate order.
        others = [j for j in range(len(ids)) if j not in current]
        trials = [sorted(current + [j]) for j in others]
        fits = _fit(design, response, gram, trials) if trials else []
        best_add = None
        for j, trial, trial_fit in zip(others, trials, fits):
            if trial_fit is None:
                continue
            p = float(trial_fit.p_values[trial.index(j)])
            if p < alpha_in and (best_add is None or (p, j) < best_add[:2]):
                best_add = (p, j, trial, trial_fit)
        # With nothing added, a backward pass would refit the state the
        # last one accepted.
        if best_add is None:
            break
        _, _, current, fit = best_add

        # Backward steps: drop the worst insignificant variable until
        # everything retained clears alpha_out, starting from the winning
        # trial's fit.
        while float(fit.p_values.max()) > alpha_out:
            del current[int(fit.p_values.argmax())]
            fit = _fit(design, response, gram, [current])[0] if current else None
            if fit is None:
                break

        state = frozenset(current)
        if state in seen:
            converged = False
            break
        seen.add(state)

    ranked = () if fit is None else (_ranked(fit, alpha_in),)
    return SelectionReport(ranked_models=ranked, converged=converged)

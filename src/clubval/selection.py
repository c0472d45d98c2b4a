"""Explanatory-variable subset search over through-origin fits.

Two strategies: exhaustive enumeration of all subsets up to a size cap
(the default, and ground truth at this scale) and the classic stepwise
add/drop loop driven by significance thresholds. Both return the same
deterministic report shape.
"""

from __future__ import annotations

import bisect
import itertools
from functools import cached_property

from ._record import count, finite, record
from .errors import DimensionMismatch, DomainError, MissingPredictor, TooManyCandidates
from .regression import DesignMatrix, RegressionFit, ResponseVector, _fitter
from .special import t_two_sided_p
# Not called here: bench/tracer.py wraps this name to time a search's fits.
from .regression import fit_through_origin  # noqa: F401

# As in regression: numpy only at call time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

MAX_CANDIDATES = 12
# Significance thresholds when none is given: to enter a model, and to stay in it.
DEFAULT_ALPHA_IN = 0.05
DEFAULT_ALPHA_OUT = 0.10


@record
class CandidateSet:
    """Candidate predictor columns and the response they explain.

    The first search forms the fitter of all the candidates (see
    regression._fitter) and the set keeps it, so later searches, and a
    refit of any subset through a later design_for, reuse its factor. So
    the design's and the response's arrays must not be written in place
    once a search has run; from_columns' and design_for's own arrays are
    read-only.
    """

    design: DesignMatrix
    response: ResponseVector

    def __post_init__(self) -> None:
        n = self.response.n_rows
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

    @cached_property
    def _fit_stack(self):
        return _fitter(self.design, self.response)

    def design_for(self, subset: tuple[str, ...]) -> DesignMatrix:
        """The design of subset's columns, in subset's order.

        Picking columns of a column-major array copies each one
        contiguously into a new column-major array, read-only, which
        DesignMatrix holds as it is. Once a search has formed the set's
        fitter, the design carries it, the set's response and the
        columns' positions, and fit_through_origin(design, self.response)
        fits through it: with the search's bits for every subset, and no
        pass over the rows. Before any search, or with another response,
        it has the bits of a design built from those columns alone. The
        design holds the fitter, not the set: past the pure rule (see
        regression._fitter) the fitter keeps R, not the other
        candidates' columns.
        """
        ids = self.design.variable_ids
        for vid in subset:
            if vid not in ids:
                raise MissingPredictor(vid)
        idx = [ids.index(vid) for vid in subset]
        array = self.design.array[:, idx]
        array.flags.writeable = False
        design = DesignMatrix(tuple(subset), array)
        fit_stack = self.__dict__.get("_fit_stack")  # formed by a search, if one has run
        if fit_stack is not None:
            object.__setattr__(design, "_source", (fit_stack, self.response, idx))
        return design


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


def _ranked(fits: list[RegressionFit], alpha: float) -> list[RankedModel]:
    """fits as RankedModels, each flagged all_significant when its largest
    p-value is at most alpha.

    p falls as |t| grows, so a fit's largest p is that of its smallest
    |t|; among the m fits of one dof, sorted by that |t|, the flagged
    ones run from the first whose p is at most alpha to the end, and
    bisection finds it in about log2(m) + 1 tail calls of one t. Both
    steps take the computed p to fall as |t| grows, which rounding
    breaks at close range: p rose in 10,092 of 66,400 steps to the next
    float (about t = 1, 2, 3 and the branch point, dof 1 to 83), and of
    two t as far as 544 ulps apart at those dofs, or 2e5 ulps at dof
    1e6, the larger can have the larger p.
    """
    by_dof: dict[int, list[tuple[float, int]]] = {}
    for i, fit in enumerate(fits):
        by_dof.setdefault(fit.dof, []).append((min(map(abs, fit.t_stats)), i))
    flags = [False] * len(fits)
    for dof, group in by_dof.items():
        group.sort()
        first = bisect.bisect_left(
            range(len(group)), True, key=lambda j: t_two_sided_p(group[j][0], dof) <= alpha
        )
        for _, i in group[first:]:
            flags[i] = True
    return [RankedModel(fit.variable_ids, fit, flag) for fit, flag in zip(fits, flags)]


def exhaustive_subsets(
    cands: CandidateSet, max_size: int, alpha: float = DEFAULT_ALPHA_IN
) -> SelectionReport:
    """Fit every non-empty candidate subset of at most max_size variables.

    Rank-deficient subsets, and every subset of a size s with n <= s,
    are recorded as skipped rather than fitted. At most MAX_CANDIDATES
    candidates are searched.

    The whole search, every size, is one call of the candidate set's
    fitter, whose one-row case is fit_through_origin (see
    regression._fitter); the set forms it on its first search and keeps
    it. The all_significant flags come from a bisection over each dof's
    models (see _ranked); no fit's p_values is formed until it is read.
    Subsets of equal span (c0 + c1 and c0 + c2 with c2 = c0 + c1, say)
    are ordered by rounding. Search fits carry no residuals or fitted
    values; refit a model for them with
    fit_through_origin(cands.design_for(ids), cands.response), which has
    the search's bits for every subset and makes no pass over the rows.
    """
    ids = cands.variable_ids
    if len(ids) > MAX_CANDIDATES:
        raise TooManyCandidates(
            f"{len(ids)} candidates exceed the exhaustive search cap of {MAX_CANDIDATES}"
        )
    count(max_size, None, "max_size", 1, len(ids))
    finite(alpha, None, "alpha", 0, True, 1)
    combos = [
        cols
        for size in range(1, max_size + 1)
        for cols in itertools.combinations(range(len(ids)), size)
    ]
    fits = cands._fit_stack(combos)
    skipped = [tuple(ids[j] for j in cols) for cols, fit in zip(combos, fits) if fit is None]
    models = _ranked([fit for fit in fits if fit is not None], alpha)
    models.sort(key=_rank_key)
    return SelectionReport(ranked_models=tuple(models), skipped=tuple(skipped))


def stepwise(
    cands: CandidateSet,
    alpha_in: float = DEFAULT_ALPHA_IN,
    alpha_out: float = DEFAULT_ALPHA_OUT,
) -> SelectionReport:
    """Forward-backward selection to a fixed point.

    Each iteration first adds the candidate with the smallest p-value
    below alpha_in (ties broken by candidate order), then repeatedly
    drops the worst variable whose p-value exceeds alpha_out. Stops at
    a fixed point, or with converged False if the state cycles.

    The candidate set's fitter, whose one-row case is
    fit_through_origin, decides every add and drop; an exhaustive search
    of the same set shares it (see CandidateSet). A forward step fits
    all of its trials as one stack, and skips a trial it cannot fit;
    its trials are of one size, so one tail call at their one dof gives
    the added columns' p-values, and no trial's p_values is formed.
    The winning trial's fit is the first backward check; each drop
    costs one fit, a one-row stack, and a forward step that adds
    nothing ends the search.
    The model reported is the last fit of the chosen columns, so, as in
    an exhaustive search, it carries no residuals or fitted values;
    refit it with fit_through_origin(cands.design_for(ids),
    cands.response), which has the search's bits for every subset.
    Candidates that tie in exact arithmetic (c0, c1 and c0 + c1, say)
    are ordered by rounding. There is no cap on the number of
    candidates: once the fitter has factored [X y], no step passes
    over the rows.
    """
    need = "need 0 < alpha_in <= alpha_out <= 1"
    finite(alpha_in, need, "alpha_in")
    finite(alpha_out, need, "alpha_out")
    if not (0.0 < alpha_in <= alpha_out <= 1.0):
        raise DomainError(f"{need}, got {alpha_in}, {alpha_out}")
    ids = cands.variable_ids
    fit_stack = cands._fit_stack
    current: list[int] = []  # positions in ids, ascending
    fit = None  # the fit of current, None while it is empty or unfittable
    seen: set[frozenset[int]] = {frozenset()}
    converged = True

    while True:
        # Forward step: every trial that adds one candidate, fitted as one
        # stack; the best addition by p-value, ties by candidate order. The
        # trials are of one size, so one tail call at their one dof serves.
        others = [j for j in range(len(ids)) if j not in current]
        trials = [sorted(current + [j]) for j in others]
        fitted = [(j, trial, f) for j, trial, f in zip(others, trials, fit_stack(trials))
                  if f is not None]
        if fitted:
            ps = t_two_sided_p([f.t_stats[trial.index(j)] for j, trial, f in fitted],
                               fitted[0][2].dof)
            p, _, trial, trial_fit = min((p, *row) for p, row in zip(ps, fitted))
        # With nothing added, a backward pass would refit the state the
        # last one accepted.
        if not fitted or p >= alpha_in:
            break
        current, fit = trial, trial_fit

        # Backward steps: drop the worst insignificant variable until
        # everything retained clears alpha_out, starting from the winning
        # trial's fit.
        while max(fit.p_values) > alpha_out:
            del current[fit.p_values.index(max(fit.p_values))]
            fit = fit_stack([current])[0] if current else None
            if fit is None:
                break

        state = frozenset(current)
        if state in seen:
            converged = False
            break
        seen.add(state)

    ranked = tuple(_ranked([] if fit is None else [fit], alpha_in))
    return SelectionReport(ranked_models=ranked, converged=converged)

"""Spans at clubval's layer boundaries, recorded from outside the package.

The tracer wraps the module-level names that each caller looks up, for
example ``clubval.selection.fit_through_origin``, so a call made through
that name records a span: name, start, end, parent span and op id.
Nothing under ``src/`` changes. Spans stay in memory and are written
when the run ends.

Two boundaries are called thousands of times per op, ``fmt_fixed`` and
``t_two_sided_p``. Storing a span per call would cost more memory than
the rest of the trace together, so they are tallied instead: call count
and total time per (parent span, op).

Which end-to-end metric each layer metric should move, on which workload:

- cli.startup_ms: none; it is the interpreter's floor.
- cli.import_ms: op_p50_ms, op_p90_ms and peak_rss_mb on cold_cli; no
  end-to-end metric on the other three workloads.
- cli.run_<command>_ms: op latency on cold_cli.
- dataset.*, valuation.valuate_all_ms, valuation.aggregate_ms:
  op_p50_ms and ops_per_s on bulk_table.
- valuation.premiums_ms: cold_cli, barely.
- regression.*, selection.*: op_p50_ms on subset_search (short fits)
  and on tall_stepwise (tall fits).
- special.*: subset_search; tall_stepwise slightly.
- report.render_valuation_*, report.fmt_fixed_*, report.self_ms:
  bulk_table. The other report spans should stay small where called.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: str | None
    size: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cli_run_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs["argv"]
    return f"cli.run_{argv[0]}"


def _valuation_table_name(args, kwargs) -> str:
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    return f"report.render_valuation_{spec.format}"


# (module, attribute, span name or function of the call's arguments,
#  function of the result giving a size, or None)
SPANNED = (
    ("clubval.cli", "run_cli", _cli_run_name, None),
    ("clubval.cli", "parse_club_csv", "dataset.parse", len),
    ("clubval.cli", "valuate_all", "valuation.valuate_all", None),
    ("clubval.cli", "aggregate", "valuation.aggregate", None),
    ("clubval.cli", "premiums_by_case", "valuation.premiums", None),
    ("clubval.cli", "premium_ranges", "valuation.premiums", None),
    ("clubval.cli", "fit_through_origin", "regression.fit", None),
    ("clubval.cli", "exhaustive_subsets", "selection.exhaustive", None),
    ("clubval.cli", "stepwise", "selection.stepwise", None),
    ("clubval.cli", "render_valuation_table", _valuation_table_name, None),
    ("clubval.cli", "render_premium_table", "report.render_premium", None),
    ("clubval.cli", "render_regression_table", "report.render_regression", None),
    ("clubval.cli", "render_selection_table", "report.render_selection", None),
    ("clubval.cli", "emit_scatter", "report.emit_scatter", None),
    ("clubval.selection", "fit_through_origin", "regression.fit", None),
    # Names the benchmark's own ops call directly.
    ("clubval.selection", "exhaustive_subsets", "selection.exhaustive", None),
    ("clubval.selection", "stepwise", "selection.stepwise", None),
    ("clubval.regression", "fit_through_origin", "regression.fit", None),
    ("clubval.report", "render_selection_table", "report.render_selection", None),
    ("clubval.report", "render_regression_table", "report.render_regression", None),
)

TALLIED = (
    ("clubval.regression", "t_two_sided_p", "special.t_p"),
    ("clubval.report", "fmt_fixed", "report.fmt_fixed"),
)


class Tracer:
    """Records spans for calls made while installed()."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tallies: dict[tuple[str, int | None, int | None], list] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _span(self, name, fn, size=None):
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                count = size(result) if size is not None and error is None else None
                self.spans.append(
                    Span(sid, label, start, end, parent, self.op, error, count)
                )

        return wrapper

    def _tally(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name, self._stack[-1] if self._stack else None, self.op)
                acc = self.tallies.get(key)
                if acc is None:
                    acc = self.tallies[key] = [0, 0.0]
                acc[0] += 1
                acc[1] += elapsed

        return wrapper

    @contextmanager
    def op_span(self, op_id: int):
        """Trace one op: every span inside carries op_id, under a root span."""
        self.op = op_id
        sid = next(self._ids)
        self._stack.append(sid)
        error = None
        start = perf_counter()
        try:
            with self.installed():
                yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, "op", start, end, None, op_id, error, None))
            self.op = None

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, size in SPANNED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._span(name, fn, size))
            for module_name, attr, name in TALLIED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._tally(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__) + "\n")
            for (name, parent, op), (calls, seconds) in self.tallies.items():
                record = {"name": name, "parent": parent, "op": op,
                          "calls": calls, "seconds": seconds}
                out.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the traced ops.

        A ``_ms`` metric is the median, over the ops that reach the layer,
        of the layer's time in one op; 0 when no op reaches it. Counts are
        totals over all traced ops, so they repeat exactly for a seed.
        """
        by_id = {s.id: s for s in self.spans}

        def parent_name(parent: int | None) -> str:
            return by_id[parent].name if parent in by_id else ""

        per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        calls: Counter = Counter()
        errors: Counter = Counter()
        sizes: Counter = Counter()
        for s in self.spans:
            per_op[s.name][s.op] += s.seconds
            calls[s.name] += 1
            if s.error:
                errors[(s.name, s.error)] += 1
            if s.size is not None:
                sizes[s.name] += s.size
        tally_ms: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        tally_calls: Counter = Counter()
        child_of: dict[tuple[str, str], dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for (name, parent, op), (n, seconds) in self.tallies.items():
            tally_ms[name][op] += seconds
            tally_calls[name] += n
            child_of[(name, parent_name(parent))][op] += seconds
        fits_under: Counter = Counter()
        for s in self.spans:
            if s.name == "regression.fit":
                owner = parent_name(s.parent)
                fits_under[(owner, s.error is None)] += 1
                child_of[("regression.fit", owner)][s.op] += s.seconds

        def median_ms(values_by_op: dict[int, float]) -> float:
            return 1e3 * statistics.median(values_by_op.values()) if values_by_op else 0.0

        def self_ms(owners: tuple[str, ...], child: str) -> float:
            totals: dict[int, float] = defaultdict(float)
            for owner in owners:
                for op, seconds in per_op.get(owner, {}).items():
                    totals[op] += seconds
                for op, seconds in child_of.get((child, owner), {}).items():
                    totals[op] -= seconds
            return median_ms(totals)

        def per_call_ms(name: str) -> float:
            durations = [s.seconds for s in self.spans if s.name == name]
            return 1e3 * statistics.median(durations) if durations else 0.0

        fit_seconds = sum(per_op["regression.fit"].values())
        fit_calls = calls["regression.fit"]
        useful, wasted = (
            fits_under[("selection.exhaustive", ok)] + fits_under[("selection.stepwise", ok)]
            for ok in (True, False)
        )
        reports = (
            "report.render_valuation_text",
            "report.render_valuation_csv",
            "report.render_premium",
            "report.render_regression",
            "report.render_selection",
            "report.emit_scatter",
        )
        metrics = {
            f"cli.run_{command}_ms": per_call_ms(f"cli.run_{command}")
            for command in ("apply", "premiums", "fit", "select", "plot")
        }
        metrics.update({
            "dataset.parse_ms": median_ms(per_op["dataset.parse"]),
            "dataset.rows_parsed": sizes["dataset.parse"],
            "valuation.valuate_all_ms": median_ms(per_op["valuation.valuate_all"]),
            "valuation.aggregate_ms": median_ms(per_op["valuation.aggregate"]),
            "valuation.premiums_ms": median_ms(per_op["valuation.premiums"]),
            "regression.fit_calls": fit_calls,
            "regression.fit_ms": median_ms(per_op["regression.fit"]),
            "regression.fit_us_per_call": 1e6 * fit_seconds / fit_calls if fit_calls else 0.0,
            "regression.rank_deficient": errors[("regression.fit", "RankDeficient")],
            "special.t_p_calls": tally_calls["special.t_p"],
            "special.t_p_ms": median_ms(tally_ms["special.t_p"]),
            "selection.exhaustive_ms": median_ms(per_op["selection.exhaustive"]),
            "selection.stepwise_ms": median_ms(per_op["selection.stepwise"]),
            "selection.self_ms": self_ms(
                ("selection.exhaustive", "selection.stepwise"), "regression.fit"
            ),
            "selection.subsets_fitted": fits_under[("selection.exhaustive", True)],
            "selection.subsets_skipped": fits_under[("selection.exhaustive", False)],
            "selection.fit_useful_ratio": useful / (useful + wasted) if useful + wasted else 0.0,
            "report.render_valuation_text_ms": median_ms(per_op["report.render_valuation_text"]),
            "report.render_valuation_csv_ms": median_ms(per_op["report.render_valuation_csv"]),
            "report.fmt_fixed_calls": tally_calls["report.fmt_fixed"],
            "report.fmt_fixed_ms": median_ms(tally_ms["report.fmt_fixed"]),
            "report.self_ms": self_ms(reports, "report.fmt_fixed"),
            "report.render_selection_ms": median_ms(per_op["report.render_selection"]),
            "report.render_regression_ms": median_ms(per_op["report.render_regression"]),
            "report.emit_scatter_ms": median_ms(per_op["report.emit_scatter"]),
        })
        return metrics

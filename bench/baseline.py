"""Re-measure the ROADMAP baseline table with the committed code.

Each traced run measures the rows of the layers its workload exercises,
so the four traced runs together cover the table. As in the table, CLI
rows are the median of 5 cold runs and layer rows the best of 3 repeats.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import inputs
from workloads import COMMANDS, run_child

COLD_RUNS = 5
REPEATS = 3


def cold_ms(argv: list[str]) -> float:
    """Median wall time of COLD_RUNS fresh child processes, in ms."""
    times = []
    for _ in range(COLD_RUNS):
        start = perf_counter()
        code, _, err, _ = run_child(argv)
        times.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {err[-300:]!r}")
    return 1e3 * statistics.median(times)


def best(fn, calls: int = 1) -> float:
    """Best of REPEATS of the mean time of `calls` calls, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return min(times)


def _cold_cli(seed: int) -> list[tuple[str, float, str]]:
    from clubval import FORMULA_1, FORMULA_2, bundled_jleague_dataset, valuate_all
    from clubval.report import RenderSpec, ScatterSeries, emit_scatter

    py = sys.executable
    rows = [
        ("python -c pass", cold_ms([py, "-c", "pass"]), "ms"),
        ("import numpy", cold_ms([py, "-c", "import numpy"]), "ms"),
        ("import clubval", cold_ms([py, "-c", "import clubval"]), "ms"),
    ]
    for _, argv, _ in COMMANDS:
        rows.append((f"CLI {' '.join(argv)}", cold_ms([py, "-m", "clubval.cli", *argv]), "ms"))
    results = valuate_all(bundled_jleague_dataset(), FORMULA_1, FORMULA_2)
    series = [ScatterSeries("J.League", tuple((r.fv1, r.fv2, r.club) for r in results))]
    spec = RenderSpec(format="svg", scale="log10")
    rows.append(("emit_scatter, 60 points", 1e3 * best(lambda: emit_scatter(series, spec), 20), "ms"))
    return rows


def _bulk_table(seed: int) -> list[tuple[str, float, str]]:
    from clubval import (FORMULA_1, FORMULA_2, aggregate, bundled_jleague_dataset,
                         club_csv, parse_club_csv, valuate_all)
    from clubval.report import RenderSpec, render_valuation_table

    rows = []
    spec = RenderSpec()
    _, big = inputs.club_rows(seed, 0, 120_000, "baseline")
    for label, text, calls in (
        ("bundled 60 clubs", club_csv(bundled_jleague_dataset()), 20),
        ("120k rows", big, 1),
    ):
        records = parse_club_csv(text)
        results = valuate_all(records, FORMULA_1, FORMULA_2)
        agg = aggregate(results, records)
        for what, fn in (
            ("parse_club_csv", lambda: parse_club_csv(text)),
            ("valuate_all", lambda: valuate_all(records, FORMULA_1, FORMULA_2)),
            ("render_valuation_table", lambda: render_valuation_table(results, records, agg, spec)),
        ):
            rows.append((f"{what}, {label}", best(fn, calls), "s"))
    return rows


def _subset_search(seed: int) -> list[tuple[str, float, str]]:
    import numpy as np
    from clubval.regression import DesignMatrix, ResponseVector, fit_through_origin
    from clubval.selection import CandidateSet, exhaustive_subsets, stepwise
    from clubval.special import t_two_sided_p

    d = inputs.wide_design(seed)
    response = ResponseVector("y", d.y)
    columns = list(zip(d.ids, d.x.T))
    two = DesignMatrix.from_columns(columns[:2])
    twelve = DesignMatrix.from_columns(columns)
    cands = CandidateSet.from_columns(columns, response)
    return [
        ("fit_through_origin n=60 k=2", 1e6 * best(lambda: fit_through_origin(two, response), 200), "us"),
        ("np.linalg.lstsq n=60 k=2", 1e6 * best(lambda: np.linalg.lstsq(d.x[:, :2], d.y, rcond=None), 200), "us"),
        ("fit_through_origin n=60 k=12", 1e6 * best(lambda: fit_through_origin(twelve, response), 50), "us"),
        ("t_two_sided_p", 1e6 * best(lambda: t_two_sided_p(2.1, 58), 2000), "us"),
        ("exhaustive_subsets, 12 candidates (4,095 fits)", best(lambda: exhaustive_subsets(cands, 12)), "s"),
        ("stepwise, 12 candidates", 1e3 * best(lambda: stepwise(cands), 5), "ms"),
    ]


def _tall_stepwise(seed: int) -> list[tuple[str, float, str]]:
    import numpy as np
    from clubval.regression import DesignMatrix, ResponseVector, fit_through_origin

    d = inputs.tall_design(seed, 0, "baseline", n=120_000, k=6, nulls=0)
    design = DesignMatrix.from_columns(list(zip(d.ids, d.x.T)))
    response = ResponseVector("y", d.y)
    return [
        ("fit_through_origin n=120k k=6", 1e3 * best(lambda: fit_through_origin(design, response), 5), "ms"),
        ("np.linalg.lstsq n=120k k=6", 1e3 * best(lambda: np.linalg.lstsq(d.x, d.y, rcond=None), 5), "ms"),
        ("np.linalg.svd n=120k k=6", 1e3 * best(lambda: np.linalg.svd(d.x, full_matrices=False), 5), "ms"),
    ]


ROWS = {
    "cold_cli": _cold_cli,
    "bulk_table": _bulk_table,
    "subset_search": _subset_search,
    "tall_stepwise": _tall_stepwise,
}


def measure(workload: str, seed: int) -> list[tuple[str, float, str]]:
    return ROWS[workload](seed)

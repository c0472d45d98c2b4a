"""The four workloads.

Each one makes a fresh seeded input per op (untimed), runs the op on
clubval (timed), and checks the op's output against an oracle that does
not use clubval (untimed). clubval is imported only in load(), which is
the import half of the benchmark's set-up.

- cold_cli: each op is a fresh ``python -m clubval.cli`` process running
  one of the five README commands on bundled data, compared byte for
  byte with its golden output. Interpreter start-up and imports dominate.
- bulk_table: each op runs ``apply`` in-process on a fresh 2,000-row club
  CSV, once as text and once as csv. Parsing, valuation and rendering
  dominate; regression does no work.
- subset_search: each op searches all 1,023 subsets of 10 candidates at
  n=60 (128 of them rank deficient), runs stepwise and renders the
  ranked table. Many short fits and p-values dominate.
- tall_stepwise: each op runs stepwise over 8 candidates at n=60,000,
  refits the chosen subset and renders it. Few fits over tall columns.
"""

from __future__ import annotations

import csv
import io
import os
import resource
import selectors
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

# The published formulas, restated so the oracle does not read clubval.
FV1_SNS, FV1_REVENUE = 3.7233, 2.9233
FV2_SNS, FV2_PMV = 5.7754, 1.2599

# Rendered aggregates carry one decimal, so half a unit plus float slack.
RENDERED_TOL = 0.05 + 1e-9
# Coefficients from clubval against numpy.linalg.lstsq, relative to the
# largest coefficient: both solve a well-conditioned problem in float64.
COEF_RTOL = 1e-8
CHILD_TIMEOUT_S = 60.0


class OpFailed(Exception):
    """An op's output failed its correctness check."""


def child_env() -> dict[str, str]:
    """Environment for clubval child processes: the source tree on the
    path, and no VALUATE_FX_RATE, so a stray setting cannot change
    ``premiums``."""
    env = {k: v for k, v in os.environ.items() if k != "VALUATE_FX_RATE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[int, bytes, bytes, int]:
    """Run a child to completion: exit code, stdout, stderr, and its own
    peak RSS in KiB (from wait4, so other children do not count).

    A child still running after `timeout` seconds is killed and reaped,
    and TimeoutError is raised.
    """
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    deadline = perf_counter() + timeout
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise TimeoutError(f"{argv} ran longer than {timeout} s")
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[p]) for p in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss


def _close(got, want) -> bool:
    import numpy as np

    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= COEF_RTOL * scale


def _lstsq(design: inputs.Design, ids) -> "object":
    import numpy as np

    cols = [design.ids.index(v) for v in ids]
    return np.linalg.lstsq(design.x[:, cols], design.y, rcond=None)[0]


def _table_lines(doc: str) -> list[str]:
    """The lines of a text document's first table (up to the first blank)."""
    lines = doc.split("\n")
    return lines[: lines.index("")] if "" in lines else lines


class Workload:
    name = ""

    def load(self) -> None:
        """Import what the op calls."""

    def make_input(self, seed: int, op_id: int, stream: str = "op"):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def run_in_process(self, inp):
        """The op as the traced run executes it: inside this process."""
        return self.run(inp)

    def check(self, inp, out) -> None:
        raise NotImplementedError

    def warm_up_input(self, seed: int, stream: str):
        return self.make_input(seed, 0, stream)

    def warm_up(self, inp):
        """The untimed op that ends set-up."""
        return self.run(inp)

    def check_warm_up(self, inp, out) -> None:
        self.check(inp, out)

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# (command, argv, golden file): the five commands of the README.
COMMANDS = (
    ("apply", ("apply", "--bundled", "jleague"), "apply.txt"),
    ("premiums", ("premiums",), "premiums.txt"),
    (
        "fit",
        ("fit", "--response", "revenue_meur",
         "--predictors", "sns_followers_m,player_market_value_meur"),
        "fit.txt",
    ),
    ("select", ("select", "--response", "revenue_meur"), "select.txt"),
    ("plot", ("plot", "--bundled", "combined"), "plot.svg"),
)


class ColdCli(Workload):
    name = "cold_cli"

    def __init__(self, golden_dir: Path = GOLDEN) -> None:
        self.golden = {cmd: (golden_dir / f).read_bytes() for cmd, _, f in COMMANDS}
        self.max_child_rss_kib = 0

    def load(self) -> None:
        from clubval import cli

        self.cli = cli

    def make_input(self, seed, op_id, stream="op"):
        return COMMANDS[(seed + op_id) % len(COMMANDS)]

    def run(self, inp):
        code, out, err, rss = run_child([sys.executable, "-m", "clubval.cli", *inp[1]])
        self.max_child_rss_kib = max(self.max_child_rss_kib, rss)
        return code, out, err

    def run_in_process(self, inp):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.run_cli(list(inp[1]))
        return code, buf.getvalue().encode(), b""

    def warm_up_input(self, seed, stream):
        return COMMANDS

    def warm_up(self, inp):
        """One in-process run of each command, which also fills __pycache__."""
        return [self.run_in_process(c) for c in inp]

    def check_warm_up(self, inp, out) -> None:
        for command, result in zip(inp, out):
            self.check(command, result)

    def check(self, inp, out) -> None:
        code, stdout, stderr = out
        if code != 0:
            raise OpFailed(f"{inp[0]} exited {code}: {stderr.decode(errors='replace')[-300:]}")
        if stdout != self.golden[inp[0]]:
            raise OpFailed(f"{inp[0]}: output differs from golden")

    def peak_rss_kib(self) -> int:
        return self.max_child_rss_kib


@dataclass(frozen=True)
class TableInput:
    rows: list
    csv_in: Path
    text_out: Path
    csv_out: Path


class BulkTable(Workload):
    name = "bulk_table"
    clubs = 2_000

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def load(self) -> None:
        from clubval import cli

        self.cli = cli

    def make_input(self, seed, op_id, stream="op"):
        rows, text = inputs.club_rows(seed, op_id, self.clubs, stream)
        # Ops run one at a time, so each op's files replace the previous op's.
        base = self.workdir / stream
        csv_in = base.with_suffix(".in.csv")
        csv_in.write_text(text, encoding="utf-8")
        return TableInput(rows, csv_in, base.with_suffix(".txt"), base.with_suffix(".csv"))

    def run(self, inp):
        src = str(inp.csv_in)
        return (
            self.cli.run_cli(["apply", "--input", src, "--out", str(inp.text_out)]),
            self.cli.run_cli(
                ["apply", "--input", src, "--format", "csv", "--out", str(inp.csv_out)]
            ),
        )

    def check(self, inp, out) -> None:
        if out != (0, 0):
            raise OpFailed(f"apply exited {out}")
        self._check_docs(inp.rows, inp.text_out.read_text(encoding="utf-8"),
                         inp.csv_out.read_text(encoding="utf-8"))

    @staticmethod
    def _check_docs(rows, text_doc: str, csv_doc: str) -> None:
        fv1 = [FV1_SNS * r.sns_followers / 1e6 + FV1_REVENUE * r.revenue_meur for r in rows]
        fv2 = [FV2_SNS * r.sns_followers / 1e6 + FV2_PMV * r.player_market_value_meur for r in rows]
        want = (
            statistics.fmean(fv1),
            statistics.fmean(fv2),
            statistics.fmean(100.0 * a / b for a, b in zip(fv1, fv2)),
        )
        expected_rows = len(rows) + 3  # clubs + header + Average + Median

        table = list(csv.reader(io.StringIO(csv_doc)))
        text_table = _table_lines(text_doc)
        for label, count, average in (
            ("csv", len(table), table[-2][5:8] if len(table) > 2 else []),
            ("text", len(text_table), text_table[-2].split()[4:7] if len(text_table) > 2 else []),
        ):
            if count != expected_rows:
                raise OpFailed(f"{label}: {count} rendered rows, expected {expected_rows}")
            try:
                got = [float(cell.rstrip("%")) for cell in average]
            except ValueError:
                raise OpFailed(f"{label}: unreadable Average row {average}") from None
            if len(got) != 3 or any(abs(g - w) > RENDERED_TOL for g, w in zip(got, want)):
                raise OpFailed(f"{label}: Average FV1, FV2, ratio {got} != {want}")


class _Regression(Workload):
    def load(self) -> None:
        from clubval import regression, report, selection

        self.regression, self.report, self.selection = regression, report, selection


class SubsetSearch(_Regression):
    name = "subset_search"

    def make_input(self, seed, op_id, stream="op"):
        return inputs.short_design(seed, op_id, stream)

    def run(self, d):
        sel = self.selection
        cands = sel.CandidateSet.from_columns(
            list(zip(d.ids, d.x.T)), self.regression.ResponseVector("y", d.y)
        )
        searched = sel.exhaustive_subsets(cands, len(d.ids))
        stepped = sel.stepwise(cands)
        doc = self.report.render_selection_table(searched, self.report.RenderSpec())
        return searched, stepped, doc

    def check(self, d, out) -> None:
        searched, stepped, doc = out
        fitted, skipped = len(searched.ranked_models), len(searched.skipped)
        k = len(d.ids)
        if fitted + skipped != 2**k - 1:
            raise OpFailed(f"fitted {fitted} + skipped {skipped} != {2**k - 1}")
        # Subsets holding c0, c1 and their sum: 2 ** (k - 3) of them.
        if skipped != 2 ** (k - 3):
            raise OpFailed(f"skipped {skipped} subsets, expected {2 ** (k - 3)}")
        for report in (searched, stepped):
            best = report.best
            if best is None or not _close(best.fit.coefficients, _lstsq(d, best.variable_ids)):
                raise OpFailed(f"best subset coefficients differ from lstsq: {best}")
        if len(_table_lines(doc)) != fitted + 1:
            raise OpFailed(f"selection table has {len(_table_lines(doc))} lines")


class TallStepwise(_Regression):
    name = "tall_stepwise"

    def make_input(self, seed, op_id, stream="op"):
        return inputs.tall_design(seed, op_id, stream)

    def run(self, d):
        cands = self.selection.CandidateSet.from_columns(
            list(zip(d.ids, d.x.T)), self.regression.ResponseVector("y", d.y)
        )
        chosen = self.selection.stepwise(cands).best.variable_ids
        fit = self.regression.fit_through_origin(cands.design_for(chosen), cands.response)
        return fit, self.report.render_regression_table(fit, self.report.RenderSpec())

    def check(self, d, out) -> None:
        fit, doc = out
        if not set(d.true_ids) <= set(fit.variable_ids):
            raise OpFailed(f"stepwise dropped a true effect: {fit.variable_ids}")
        if not _close(fit.coefficients, _lstsq(d, fit.variable_ids)):
            raise OpFailed("tall fit coefficients differ from lstsq")
        if len(_table_lines(doc)) != len(fit.variable_ids) + 2:  # header + intercept
            raise OpFailed("regression table has the wrong number of rows")


def make(name: str, workdir: Path) -> Workload:
    if name == "cold_cli":
        return ColdCli()
    if name == "bulk_table":
        return BulkTable(workdir)
    if name == "subset_search":
        return SubsetSearch()
    if name == "tall_stepwise":
        return TallStepwise()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cold_cli", "bulk_table", "subset_search", "tall_stepwise")

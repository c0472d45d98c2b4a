"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(workloads.SRC))


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    assert inputs.club_rows(7, 3, 50) == inputs.club_rows(7, 3, 50)
    assert inputs.club_rows(7, 3, 50) != inputs.club_rows(8, 3, 50)
    assert inputs.club_rows(7, 3, 50) != inputs.club_rows(7, 4, 50)
    for make in (inputs.short_design, lambda s, o: inputs.tall_design(s, o, n=500)):
        a, b, c = make(7, 3), make(7, 3), make(8, 3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)


def test_club_csv_leaves_optional_cells_empty_and_quotes_commas():
    rows, text = inputs.club_rows(1, 0, 200)
    lines = text.splitlines()
    assert lines[0] == ",".join(inputs.CSV_FIELDS)
    assert len(lines) == len(rows) + 1
    assert any(",," in line for line in lines[1:])
    assert '"Club 00007, Reserves"' in text


def test_p90_refused_below_100_ops():
    with pytest.raises(ValueError):
        run.p90([1.0] * (run.MIN_OPS - 1))
    assert run.p90([float(i) for i in range(run.MIN_OPS)]) == pytest.approx(89.9)


def test_golden_outputs_match_readme_excerpts():
    golden = {cmd: (workloads.GOLDEN / f).read_text() for cmd, _, f in workloads.COMMANDS}
    assert (
        "J1      Urawa Reds                        807,734         54.18"
        "                     28.55    161.39     40.64   397.2%"
    ) in golden["apply"]
    assert "Average" in golden["apply"] and "342.0%" in golden["apply"]
    assert "Formula 1            304.3            602.5" in golden["premiums"]
    assert "Formula 2             65.0             77.1" in golden["premiums"]
    assert (
        "player_market_value_meur       1.4249          0.0971  14.6687  3.56E-21"
    ) in golden["fit"]
    assert (
        "   1  sns_followers_m+player_market_value_meur         0.9550     0.9565"
        "     4.3185  yes"
    ) in golden["select"]
    assert golden["plot"].startswith("<svg") and golden["plot"].endswith("</svg>\n")


def test_cold_cli_passes_on_golden_and_fails_on_corrupted_golden(tmp_path):
    wl = workloads.ColdCli()
    wl.load()
    outputs = wl.warm_up(workloads.COMMANDS)
    wl.check_warm_up(workloads.COMMANDS, outputs)

    shutil.copytree(workloads.GOLDEN, tmp_path, dirs_exist_ok=True)
    apply_golden = tmp_path / "apply.txt"
    apply_golden.write_text(apply_golden.read_text().replace("342.0%", "342.1%"))
    corrupted = workloads.ColdCli(golden_dir=tmp_path)
    corrupted.load()
    _, reason = run.attempt(corrupted, workloads.COMMANDS[0], corrupted.run_in_process)
    assert "differs from golden" in reason
    _, reason = run.attempt(corrupted, workloads.COMMANDS[1], corrupted.run_in_process)
    assert reason is None


def test_cold_cli_child_op_matches_golden():
    wl = workloads.ColdCli()
    inp = wl.make_input(seed=0, op_id=1)
    wl.check(inp, wl.run(inp))
    assert wl.peak_rss_kib() > 0


def test_bulk_table_wrong_oracle_value_fails(tmp_path):
    wl = workloads.BulkTable(tmp_path)
    wl.clubs = 40
    wl.load()
    inp = wl.make_input(seed=3, op_id=0)
    out = wl.run(inp)
    wl.check(inp, out)

    rows = list(inp.rows)
    rows[5] = dataclasses.replace(rows[5], revenue_meur=rows[5].revenue_meur + 10.0)
    with pytest.raises(workloads.OpFailed, match="Average"):
        wl.check(dataclasses.replace(inp, rows=rows), out)
    with pytest.raises(workloads.OpFailed, match="rendered rows"):
        wl.check(dataclasses.replace(inp, rows=rows[:-1]), out)
    # Through the op loop, a wrong oracle value is a failed op.
    wrong = dataclasses.replace(inp, rows=rows)
    _, reason = run.attempt(wl, wrong, wl.run)
    assert reason is not None


def test_subset_search_wrong_oracle_value_fails():
    wl = workloads.SubsetSearch()
    wl.load()
    d = wl.make_input(seed=3, op_id=0)
    out = wl.run(d)
    wl.check(d, out)
    with pytest.raises(workloads.OpFailed):
        wl.check(dataclasses.replace(d, y=d.y * 1.001), out)


def test_tall_stepwise_wrong_oracle_value_fails():
    wl = workloads.TallStepwise()
    wl.load()
    d = inputs.tall_design(3, 0, n=2_000)
    out = wl.run(d)
    wl.check(d, out)
    with pytest.raises(workloads.OpFailed):
        wl.check(dataclasses.replace(d, y=d.y + 1.0), out)


def test_traced_subset_search_counts():
    wl = workloads.SubsetSearch()
    wl.load()
    d = wl.make_input(seed=3, op_id=0)
    tracer = Tracer()
    with tracer.op_span(0):
        wl.run(d)
    metrics = tracer.layer_metrics()
    assert metrics["selection.subsets_fitted"] == 895
    assert metrics["selection.subsets_skipped"] == 128
    assert metrics["regression.rank_deficient"] >= 128
    assert metrics["regression.fit_calls"] >= 1023
    assert metrics["special.t_p_calls"] > 0
    assert 0 < metrics["selection.self_ms"] < metrics["selection.exhaustive_ms"] + metrics["selection.stepwise_ms"]
    # Wrappers are removed once the op ends.
    from clubval import selection
    assert selection.fit_through_origin.__module__ == "clubval.regression"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(workloads.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert "setup_s" in run.declared_metrics("end_to_end")

"""Bundled-data CLI output, byte for byte.

The files under tests/golden hold the csv and md tables of the four
tabular commands and the linear plot. bench/golden holds the text tables
and the log10 plot, which the benchmark checks each run against; they
are read here, never written. So every format of every command has a
fixed expected output in tier-1.
"""

from pathlib import Path

import pytest

from clubval.cli import ENV_FX, run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
BENCH_GOLDEN = ROOT / "bench" / "golden"

FIT = ("fit", "--response", "revenue_meur",
       "--predictors", "sns_followers_m,player_market_value_meur")
COMMANDS = {
    "apply": ("apply", "--bundled", "jleague"),
    "premiums": ("premiums",),
    "fit": FIT,
    "select": ("select", "--response", "revenue_meur"),
}
CASES = {
    GOLDEN / f"{name}.{fmt}": (*argv, "--format", fmt)
    for name, argv in COMMANDS.items()
    for fmt in ("csv", "md")
}
CASES[GOLDEN / "plot_linear.svg"] = ("plot", "--scale", "linear", "--bundled", "combined")
CASES.update({BENCH_GOLDEN / f"{name}.txt": argv for name, argv in COMMANDS.items()})
CASES[BENCH_GOLDEN / "plot.svg"] = ("plot", "--bundled", "combined")


@pytest.mark.parametrize("golden, argv", CASES.items(), ids=[path.name for path in CASES])
def test_bundled_output_matches_golden(golden, argv, capsys, monkeypatch):
    monkeypatch.delenv(ENV_FX, raising=False)
    assert run_cli(list(argv)) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

"""Bundled-data CLI output, byte for byte.

bench/golden holds the text tables and the log10 plot. The files under
tests/golden hold the csv and md tables of the four tabular commands and
the linear plot, so every format of every command has a fixed expected
output.
"""

from pathlib import Path

import pytest

from clubval.cli import ENV_FX, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

FIT = ("fit", "--response", "revenue_meur",
       "--predictors", "sns_followers_m,player_market_value_meur")
COMMANDS = {
    "apply": ("apply", "--bundled", "jleague"),
    "premiums": ("premiums",),
    "fit": FIT,
    "select": ("select", "--response", "revenue_meur"),
}
CASES = {
    f"{name}.{fmt}": (*argv, "--format", fmt)
    for name, argv in COMMANDS.items()
    for fmt in ("csv", "md")
}
CASES["plot_linear.svg"] = ("plot", "--scale", "linear", "--bundled", "combined")


@pytest.mark.parametrize("golden, argv", CASES.items(), ids=CASES.keys())
def test_bundled_output_matches_golden(golden, argv, capsys, monkeypatch):
    monkeypatch.delenv(ENV_FX, raising=False)
    assert run_cli(list(argv)) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clubval
from clubval import cli
from clubval.cli import run_cli
from clubval.dataset import CSV_HEADER, bundled_jleague_dataset, club_csv


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApply:
    def test_bundled_csv(self, capsys):
        code, out, err = _run(capsys, "apply", "--bundled", "jleague", "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 1 + 60 + 2
        assert lines[0].startswith("league,club,")
        assert any("Urawa Reds" in l for l in lines)

    def test_deterministic_output(self, capsys):
        _code, first, _err = _run(capsys, "apply", "--bundled", "jleague")
        _code, second, _err = _run(capsys, "apply", "--bundled", "jleague")
        assert first == second

    def test_input_file(self, capsys, tmp_path):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(
            CSV_HEADER + "\nUrawa Reds,J1,807734,54.18,28.55\n", encoding="utf-8"
        )
        code, out, _err = _run(capsys, "apply", "--input", str(club_file))
        assert code == 0
        assert "161.39" in out

    def test_missing_input_is_data_error(self, capsys):
        code, _out, err = _run(capsys, "apply", "--input", "missing.csv")
        assert code == 1
        assert "error" in err.lower()

    def test_no_source_is_usage_error(self, capsys):
        code, _out, err = _run(capsys, "apply")
        assert code == 2
        assert "apply needs" in err

    def test_header_only_input_is_data_error(self, capsys, tmp_path):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(CSV_HEADER + "\n", encoding="utf-8")
        code, out, err = _run(capsys, "apply", "--input", str(club_file))
        assert (code, out) == (1, "")
        assert err == f"error: {club_file} contains no club rows\n"

    def test_bad_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\nClub,J1,x,1,2\n", encoding="utf-8")
        code, _out, err = _run(capsys, "apply", "--input", str(bad))
        assert code == 1
        assert "sns_followers" in err

    def test_utf8_bom_input(self, capsys, tmp_path):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(
            CSV_HEADER + "\nUrawa Reds,J1,807734,54.18,28.55\n", encoding="utf-8-sig"
        )
        code, out, _err = _run(capsys, "apply", "--input", str(club_file))
        assert code == 0
        assert "161.39" in out

    @pytest.mark.parametrize(
        "argv, what, data",
        [
            (("apply", "--input"), "",
             (CSV_HEADER + "\nMünchen,J1,1,1.0,1.0\n").encode("latin-1")),
            (("premiums", "--config"), "config ", b"stake = 0.5\n\xff\n"),
        ],
        ids=["input-latin-1", "config-0xff"],
    )
    def test_undecodable_file_is_data_error(self, capsys, tmp_path, argv, what, data):
        path = tmp_path / "file"
        path.write_bytes(data)
        code, out, err = _run(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {what}{path}: ")
        assert "Traceback" not in err

    def test_values_beyond_default_decimal_precision(self, capsys, tmp_path):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(
            CSV_HEADER + "\nBig,J1,1000000,1e30,2.0\n", encoding="utf-8"
        )
        code, out, err = _run(
            capsys, "apply", "--input", str(club_file), "--format", "csv"
        )
        assert code == 0, err
        big_row = out.splitlines()[1].split(",")
        assert big_row[3] == "1" + "0" * 30 + ".00"
        assert big_row[5] == "29233" + "0" * 26 + ".00"

    def test_follower_count_beyond_float_range(self, capsys, tmp_path):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(
            CSV_HEADER + f"\nUrawa Reds,J1,{10**400},54.18,28.55\n", encoding="utf-8"
        )
        code, out, err = _run(capsys, "apply", "--input", str(club_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 2: Urawa Reds: sns_followers")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "row, field",
        [
            ("A,J1,-5,1.0,1.0", "sns_followers"),
            ("A,J1,5,-1.0,1.0", "revenue_meur"),
            ("A,J1,5,inf,1.0", "revenue_meur"),
            ("A,J1,5,1.0,1.0,,nan", "wage_cost_ratio"),
            ("A,J1,5,1.0,1.0,-2", "broadcasting_meur"),
            ("A,J1,5,abc,1.0", "revenue_meur"),
            ("A,J1,5,1.0,1.0,,,,maybe", "stadium_owned"),
            ('"C\nD",J1,5,1.0,1.0', "name"),
            ('A,"J\r1",5,1.0,1.0', "league"),
        ],
        ids=["negative-followers", "negative-revenue", "inf-revenue", "nan-wage-ratio",
             "negative-broadcasting", "abc-revenue", "bad-stadium", "broken-name",
             "broken-league"],
    )
    def test_rejected_row_names_line_and_field(self, capsys, tmp_path, row, field):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
        for fmt in ("text", "md"):
            code, out, err = _run(
                capsys, "apply", "--input", str(club_file), "--format", fmt
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: line 2:")
            assert field in err

    def test_md_escapes_pipe_in_club_name(self, capsys, tmp_path):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(CSV_HEADER + "\nA|B,J1,5,1.0,1.0\n", encoding="utf-8")
        code, out, _err = _run(
            capsys, "apply", "--input", str(club_file), "--format", "md"
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("|")]
        assert "| A\\|B |" in rows[2]
        # Every row of the table has the header's column count.
        assert {len(row.replace("\\|", "").split("|")) for row in rows} == {
            len(rows[0].split("|"))
        }

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.md"
        code, out, _err = _run(
            capsys, "apply", "--bundled", "jleague", "--format", "md",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("| league |")

    def test_out_dash_is_stdout(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ("apply", "--bundled", "jleague", "--format", "md")
        _code, plain, _err = _run(capsys, *argv)
        code, out, _err = _run(capsys, *argv, "--out", "-")
        assert (code, out) == (0, plain)
        assert list(tmp_path.iterdir()) == []


class TestPremiums:
    def test_reference_ranges(self, capsys):
        code, out, _err = _run(capsys, "premiums", "--fx-rate", "150")
        assert code == 0
        assert "304.3" in out
        assert "602.5" in out
        assert "65.0" in out
        assert "77.1" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VALUATE_FX_RATE", "300")
        _code, out_flag, _err = _run(capsys, "premiums", "--fx-rate", "150")
        assert "304.3" in out_flag

    def test_env_beats_config_and_default(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "settings.conf"
        config.write_text("fx_rate = 75\n", encoding="utf-8")
        monkeypatch.setenv("VALUATE_FX_RATE", "150")
        _code, out, _err = _run(capsys, "premiums", "--config", str(config))
        assert "304.3" in out

    def test_config_used_when_no_flag_or_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        config = tmp_path / "settings.conf"
        config.write_text("# settings\nfx_rate = 300\n", encoding="utf-8")
        _code, out_config, _err = _run(capsys, "premiums", "--config", str(config))
        _code, out_default, _err = _run(capsys, "premiums")
        assert out_config != out_default
        # Doubling the exchange rate doubles implied values: 304.3% becomes 708.7%.
        assert "708.7" in out_config

    def test_config_byte_order_mark_is_dropped(self, capsys, monkeypatch, tmp_path):
        # As in the club file: an editor that saves "UTF-8 with BOM" writes
        # U+FEFF before the first key.
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        marked, plain = tmp_path / "marked.conf", tmp_path / "plain.conf"
        marked.write_bytes(b"\xef\xbb\xbfstake = 0.5\n")
        plain.write_bytes(b"stake = 0.5\n")
        code, out, err = _run(capsys, "premiums", "--config", str(marked))
        assert (code, err) == (0, "")
        assert out == _run(capsys, "premiums", "--config", str(plain))[1]
        assert out != _run(capsys, "premiums")[1]

    def test_bad_env_value_is_data_error(self, capsys, monkeypatch):
        # inf and nan parse as floats, and the error still names their source.
        for value in ("not-a-number", "inf", "nan", "-1"):
            monkeypatch.setenv("VALUATE_FX_RATE", value)
            code, _out, err = _run(capsys, "premiums")
            assert code == 1
            assert "VALUATE_FX_RATE" in err

    def test_stake_flag(self, capsys):
        code, out, _err = _run(capsys, "premiums", "--stake", "1.0")
        assert code == 0
        # At a full stake the Machida Formula 1 premium is (1+3.0433)/0.51 - 1.
        assert "692.8" in out

    def test_bad_stake_is_data_error(self, capsys):
        code, _out, err = _run(capsys, "premiums", "--stake", "1.5")
        assert code == 1
        assert "stake" in err

    def test_duplicate_club_is_data_error(self, capsys, tmp_path):
        rows = club_csv(bundled_jleague_dataset())
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(
            rows + "FC Tokyo,J1,9000000,400.0,250.0\n", encoding="utf-8"
        )
        code, out, err = _run(capsys, "premiums", "--input", str(club_file))
        assert code == 1
        assert out == ""
        assert "FC Tokyo" in err

    @pytest.mark.parametrize(
        "argv, head, marker",
        [
            (("apply", "--bundled", "jleague"), "league,club,", "Urawa Reds"),
            (("fit", "--response", "revenue_meur", "--predictors", "sns_followers_m"),
             "variable,", "Observations"),
            (("select", "--response", "revenue_meur"), "rank,", "sns_followers_m"),
            (("premiums",), "club,", "708.7"),
        ],
        ids=["apply", "fit", "select", "premiums"],
    )
    def test_config_read_once(self, capsys, monkeypatch, tmp_path, argv, head, marker):
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        config = tmp_path / "settings.conf"
        config.write_text("fx_rate = 300\nformat = csv\n", encoding="utf-8")
        calls = []
        load = cli._load_config
        monkeypatch.setattr(
            cli, "_load_config", lambda path: calls.append(path) or load(path)
        )
        code, out, _err = _run(capsys, *argv, "--config", str(config))
        assert code == 0
        assert calls == [str(config)]
        assert out.startswith(head)
        assert marker in out

    @pytest.mark.parametrize(
        "argv, env, config_text, message",
        [
            (("premiums", "--fx-rate", "-1"), None, None,
             "--fx-rate must be positive and finite, got -1.0"),
            (("premiums",), "-1", None, "VALUATE_FX_RATE must be positive and finite, got -1.0"),
            (("premiums",), None, "fx_rate = 0",
             "config fx_rate must be positive and finite, got 0.0"),
            (("premiums", "--stake", "1.5"), None, None, "need 0 < --stake <= 1, got 1.5"),
            (("premiums",), None, "stake = 1.5", "need 0 < config stake <= 1, got 1.5"),
            (("apply", "--bundled", "jleague"), None, "format = svg",
             "config format must be one of ('text', 'csv', 'md'), got 'svg'"),
            (("fit", "--response", "revenue_meur", "--predictors", "sns_followers_m"), None,
             "format = svg", "config format must be one of ('text', 'csv', 'md'), got 'svg'"),
            (("select", "--response", "revenue_meur"), None, "format = bogus",
             "config format must be one of ('text', 'csv', 'md'), got 'bogus'"),
        ],
        ids=["flag-fx", "env-fx", "config-fx", "flag-stake", "config-stake", "config-svg-apply",
             "config-svg-fit", "config-bogus-select"],
    )
    def test_refusal_names_the_source(
        self, capsys, monkeypatch, tmp_path, argv, env, config_text, message
    ):
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        if env is not None:
            monkeypatch.setenv("VALUATE_FX_RATE", env)
        if config_text is not None:
            config = tmp_path / "settings.conf"
            config.write_text(config_text + "\n", encoding="utf-8")
            argv = (*argv, "--config", str(config))
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_empty_env_value_is_unset(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "settings.conf"
        config.write_text("fx_rate = 300\n", encoding="utf-8")
        monkeypatch.setenv("VALUATE_FX_RATE", "")
        code, out, _err = _run(capsys, "premiums", "--config", str(config))
        assert code == 0
        assert "708.7" in out

    @pytest.mark.parametrize("key", ["fx_rate", "stake", "format"])
    def test_empty_config_value_is_refused(self, capsys, monkeypatch, tmp_path, key):
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        config = tmp_path / "settings.conf"
        config.write_text(f"{key} =\n", encoding="utf-8")
        code, out, err = _run(capsys, "premiums", "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config {key} must be ")
        assert err.endswith(", got ''\n")

    def test_config_key_given_twice_is_data_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        config = tmp_path / "settings.conf"
        config.write_text("fx_rate = 75\n# again\nfx_rate = 300\n", encoding="utf-8")
        code, out, err = _run(capsys, "premiums", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"error: {config}:3: key 'fx_rate' is given twice\n"

    def test_config_line_without_equals_is_data_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        config = tmp_path / "settings.conf"
        config.write_text("stake = 0.51\n  fx_rate 300\n", encoding="utf-8")
        code, out, err = _run(capsys, "premiums", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"error: {config}:2: expected key=value, got '  fx_rate 300'\n"

    def test_unknown_config_key_is_data_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("VALUATE_FX_RATE", raising=False)
        config = tmp_path / "settings.conf"
        config.write_text("# settings\nstake = 0.51\nfxrate = 300\n", encoding="utf-8")
        code, out, err = _run(capsys, "premiums", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {config}:3: unknown key 'fxrate', "
            "not one of ('fx_rate', 'stake', 'format')\n"
        )


class TestFitAndSelect:
    def test_fit_bundled(self, capsys):
        code, out, _err = _run(
            capsys, "fit",
            "--response", "revenue_meur",
            "--predictors", "sns_followers_m,player_market_value_meur",
        )
        assert code == 0
        assert "Adjusted R Square" in out
        assert "Observations" in out

    @pytest.mark.parametrize("flag", ["--predictors", "--candidates"])
    def test_no_variable_ids_is_data_error(self, capsys, flag):
        command = "fit" if flag == "--predictors" else "select"
        code, out, err = _run(capsys, command, "--response", "revenue_meur", flag, " , ")
        assert (code, out) == (1, "")
        assert err == "error: no variable ids in ' , '\n"

    def test_select_candidates(self, capsys):
        # The default candidates given by name give the default's document;
        # one candidate gives a one-model search.
        _code, default, _err = _run(capsys, "select", "--response", "revenue_meur")
        code, out, _err = _run(
            capsys, "select", "--response", "revenue_meur",
            "--candidates", " sns_followers_m , player_market_value_meur",
        )
        assert (code, out) == (0, default)
        code, out, _err = _run(
            capsys, "select", "--response", "revenue_meur", "--format", "csv",
            "--candidates", "player_market_value_meur",
        )
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()] == [
            "variables", "player_market_value_meur"]

    @pytest.mark.parametrize("method", ["exhaustive", "stepwise"])
    def test_select_alpha_in_default(self, capsys, method):
        # An unset --alpha-in is the library's default, 0.05.
        argv = ("select", "--response", "revenue_meur", "--method", method)
        _code, unset, _err = _run(capsys, *argv)
        code, given, _err = _run(capsys, *argv, "--alpha-in", "0.05")
        assert (code, given) == (0, unset)

    def test_fit_unknown_predictor_is_data_error(self, capsys):
        code, _out, err = _run(
            capsys, "fit", "--response", "revenue_meur", "--predictors", "bogus"
        )
        assert code == 1
        assert "bogus" in err

    def test_bad_env_fx_rate_does_not_affect_tables(self, capsys, monkeypatch):
        monkeypatch.setenv("VALUATE_FX_RATE", "not-a-number")
        for argv in (
            ("apply", "--bundled", "jleague"),
            ("fit", "--response", "revenue_meur", "--predictors", "sns_followers_m"),
            ("select", "--response", "revenue_meur"),
        ):
            code, _out, err = _run(capsys, *argv)
            assert code == 0, err

    @pytest.mark.parametrize(
        "revenue, message",
        [
            ("{i}e200", "non-finite value or overflow in predictor(s) revenue_meur"),
            ("inf", "revenue_meur"),
            ("nan", "revenue_meur"),
        ],
    )
    def test_fit_non_finite_or_overflowing_input(
        self, capsys, tmp_path, revenue, message
    ):
        # The CSV parser already refuses inf and NaN; 1e200 passes it
        # and is caught by the fit, whose X'X would overflow.
        rows = "".join(
            f"Club {i},J1,{1000 * i},{revenue.format(i=i)},{i + 0.5}\n"
            for i in range(1, 11)
        )
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(CSV_HEADER + "\n" + rows, encoding="utf-8")
        code, out, err = _run(
            capsys, "fit", "--input", str(club_file),
            "--response", "player_market_value_meur",
            "--predictors", "revenue_meur",
        )
        assert code == 1
        assert out == ""
        assert message in err

    def test_select_exhaustive(self, capsys):
        code, out, _err = _run(
            capsys, "select", "--response", "revenue_meur", "--max-size", "2"
        )
        assert code == 0
        assert "sns_followers_m+player_market_value_meur" in out

    def test_select_stepwise(self, capsys):
        code, out, _err = _run(
            capsys, "select", "--response", "revenue_meur", "--method", "stepwise"
        )
        assert code == 0
        assert "rank" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--max-size", "0"), "max_size must lie in [1, 2], got 0"),
            (("--alpha-in", "-1"), "need 0 < alpha <= 1, got -1.0"),
            (("--alpha-in", "nan"), "need 0 < alpha <= 1, got nan"),
            (
                ("--method", "stepwise", "--alpha-out", "1.5"),
                "need 0 < alpha_in <= alpha_out <= 1, got 0.05, 1.5",
            ),
            (
                ("--method", "stepwise", "--max-size", "0"),
                "--max-size applies only to --method exhaustive, not stepwise",
            ),
            (
                ("--alpha-out", "0.01"),
                "--alpha-out applies only to --method stepwise, not exhaustive",
            ),
        ],
        ids=[
            "max-size-0", "negative-alpha-in", "nan-alpha-in", "alpha-out-above-1",
            "stepwise-max-size", "exhaustive-alpha-out",
        ],
    )
    def test_select_out_of_range_setting_is_data_error(self, capsys, flags, message):
        code, out, err = _run(capsys, "select", "--response", "revenue_meur", *flags)
        assert code == 1
        assert out == ""
        assert message in err


class TestPlot:
    def test_combined_svg(self, capsys, tmp_path):
        target = tmp_path / "figure.svg"
        code, _out, _err = _run(
            capsys, "plot", "--bundled", "combined", "--out", str(target)
        )
        assert code == 0
        root = ET.fromstring(target.read_text(encoding="utf-8"))
        markers = [
            el for el in root.iter() if "marker" in el.get("class", "").split()
        ]
        assert len(markers) == 97

    def test_svg_to_stdout(self, capsys):
        code, out, _err = _run(capsys, "plot", "--bundled", "jleague")
        assert code == 0
        assert out.startswith("<svg")
        ET.fromstring(out)

    def test_linear_scale_flag(self, capsys):
        code, out, _err = _run(
            capsys, "plot", "--bundled", "european", "--scale", "linear", "--no-guide"
        )
        assert code == 0
        root = ET.fromstring(out)
        guides = [el for el in root.iter() if el.get("class") == "guide"]
        assert guides == []

    def test_source_defaults(self, capsys, tmp_path):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(CSV_HEADER + "\nUrawa Reds,J1,807734,54.18,28.55\n", encoding="utf-8")
        _code, bare, _err = _run(capsys, "plot")
        _code, combined, _err = _run(capsys, "plot", "--bundled", "combined")
        assert bare == combined
        code, out, _err = _run(capsys, "plot", "--input", str(club_file))
        assert code == 0
        groups = ET.fromstring(out).findall("{http://www.w3.org/2000/svg}g")
        assert [g.get("data-label") for g in groups] == ["Clubs"]

    def test_config_is_usage_error(self, capsys):
        # plot has no setting to read, so it takes no --config.
        code, out, err = _run(capsys, "plot", "--config", "settings.conf")
        assert code == 2
        assert out == ""
        assert "--config" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert _run(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert _run(capsys, "frobnicate")[0] == 2

    def test_bad_format_choice(self, capsys):
        assert _run(capsys, "apply", "--bundled", "jleague", "--format", "pdf")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert _run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "command, bundled",
        [("apply", "jleague"), ("plot", "jleague"), ("plot", "european"), ("plot", "combined")],
    )
    def test_bundled_with_input_is_usage_error(self, capsys, tmp_path, command, bundled):
        club_file = tmp_path / "clubs.csv"
        club_file.write_text(CSV_HEADER + "\nUrawa Reds,J1,807734,54.18,28.55\n", encoding="utf-8")
        for argv in (("--bundled", bundled, "--input", str(club_file)),
                     ("--input", str(club_file), "--bundled", bundled)):
            code, out, err = _run(capsys, command, *argv)
            assert (code, out) == (2, "")
            assert "not allowed with argument" in err


COLD_PATH_SCRIPT = """
import contextlib, io, sys
import clubval
print(sorted(m for m in sys.modules if m.startswith("clubval.")))
from clubval.cli import run_cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(list(argv)) == 0

COLD_UNLOADED = (
    "dataclasses", "decimal", "fractions", "inspect", "numpy", "statistics",
    "urllib.request", "clubval.regression", "clubval.selection", "clubval.special",
)
print(sorted(m for m in COLD_UNLOADED if m in sys.modules))
run("apply", "--bundled", "jleague")
run("premiums")
run("plot")
print(sorted(m for m in COLD_UNLOADED if m in sys.modules))
run("fit", "--response", "revenue_meur", "--predictors", "sns_followers_m")
print([m in sys.modules for m in ("numpy", "clubval.regression", "clubval.selection")])
run("select", "--response", "revenue_meur")
run("select", "--response", "revenue_meur", "--method", "stepwise")
print([m in sys.modules for m in ("numpy", "clubval.selection")])

# 7 list columns at n = 60: a search of 127 fits, whose one tail call is
# narrower than the tail's numpy form, and a stepwise search.
import math
from clubval.regression import ResponseVector
from clubval.selection import CandidateSet, exhaustive_subsets, stepwise
cols = [(f"c{j}", [1.0 + (i * (2 * j + 3)) % 17 + math.sin(i * (j + 1)) for i in range(60)])
        for j in range(7)]
y = [2.0 * cols[0][1][i] + cols[1][1][i] + math.cos(7 * i) for i in range(60)]
cands = CandidateSet.from_columns(cols, ResponseVector("y", y))
reports = exhaustive_subsets(cands, 7), stepwise(cands)
print([len(r.ranked_models) for r in reports], [len(r.best.fit.p_values) for r in reports],
      "numpy" in sys.modules)
"""


class TestColdPath:
    def test_apply_premiums_plot_leave_numpy_unloaded(self):
        # A fresh interpreter, since this test process has loaded numpy already.
        env = {k: v for k, v in os.environ.items() if k != "VALUATE_FX_RATE"}
        src = str(Path(clubval.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_PATH_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # Importing the package loads no submodule. Importing the CLI, then
        # apply, premiums and plot, load neither these stdlib modules nor the
        # regression stack; fit loads regression but not selection, and
        # neither fit nor either search of the bundled data loads numpy,
        # nor do both searches of 7 list columns, their p-values read.
        assert proc.stdout.splitlines() == [
            "[]", "[]", "[]", "[False, True, False]", "[False, True]", "[127, 1] [5, 5] False"
        ]


# Extreme finite amounts and follower counts, up to past the float range.
_AMOUNTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e200, 1.7e308]),
    st.floats(min_value=0.0, max_value=sys.float_info.max),
)
_FOLLOWERS = st.one_of(
    st.sampled_from([0, 10**6, int(sys.float_info.max), 10**309, 10**400]),
    st.integers(min_value=0, max_value=10**400),
)
# Three names carry disclosed transaction prices, so premiums has work.
_NAMES = st.sampled_from(
    ["FC Tokyo", "FC Machida Zelvia", "Kashima Antlers", "Club A", "Club B", "München"]
)
_ROWS = st.lists(
    st.tuples(_NAMES, _FOLLOWERS, _AMOUNTS, _AMOUNTS), min_size=1, max_size=6
)
_FUZZED_COMMANDS = (
    ("apply",),
    ("premiums",),
    ("fit", "--response", "revenue_meur",
     "--predictors", "sns_followers_m,player_market_value_meur"),
    ("select", "--response", "revenue_meur"),
    ("select", "--response", "revenue_meur", "--method", "stepwise"),
    ("plot", "--scale", "log10"),
    ("plot", "--scale", "linear"),
)
# Setting values, in and out of range and of every kind, as argv, environment
# or config text; each command is given the flags it takes, and every command
# sees the environment.
_NUMBER_TEXTS = ["0.05", "0.51", "1", "150", "0", "-1", "1.5", "nan", "inf", "1e400", "x", ""]
_FLAG_VALUES = {
    "--fx-rate": _NUMBER_TEXTS,
    "--stake": _NUMBER_TEXTS,
    "--alpha-in": _NUMBER_TEXTS,
    "--max-size": ["1", "2", "0", "-1", "99", "2.5", "x", str(10**400)],
    "--format": ["text", "csv", "md", "svg", "pdf"],
}
_FLAGS_TAKEN = {
    "apply": {"--format"},
    "premiums": {"--fx-rate", "--stake", "--format"},
    "fit": {"--format"},
    "select": {"--alpha-in", "--max-size", "--format"},
    "plot": set(),
}
_SETTINGS = st.fixed_dictionaries(
    {}, optional={
        **{flag: st.sampled_from(values) for flag, values in _FLAG_VALUES.items()},
        cli.ENV_FX: st.sampled_from(_NUMBER_TEXTS),
    }
)
# Files are read as UTF-8: a latin-1 file holding München, or any utf-16
# file, must exit 1.
_ENCODINGS = st.sampled_from(["utf-8", "utf-8-sig", "latin-1", "utf-16"])
_CONFIG_LINES = st.lists(
    st.one_of(
        st.builds("fx_rate = {}".format, st.sampled_from(_NUMBER_TEXTS)),
        st.builds("stake = {}".format, st.sampled_from(_NUMBER_TEXTS)),
        st.builds("format = {}".format, st.sampled_from(_FLAG_VALUES["--format"])),
        st.sampled_from(["# comment", "", "fx_rate", "bogus = 1", "stake = 0.5 = 1"]),
    ),
    max_size=3,
)


class TestFuzz:
    @settings(max_examples=50, deadline=None)
    @given(_ROWS, _SETTINGS, _CONFIG_LINES, _ENCODINGS, _ENCODINGS)
    @example([("Club A", 10**400, 1.0, 1.0)], {}, [], "utf-8", "utf-8")
    @example([("Club A", 0, 1.7e308, 1.0), ("Club B", 0, 1.7e308, 1.0)], {}, [], "utf-8", "utf-8")
    @example([("Club A", 0, 2.05e16, 5e16)], {}, [], "utf-8", "utf-8")
    @example([("Club A", 0, 3e306, 1.0), ("Club B", 0, 1.0, 1.0)], {}, [], "utf-8", "utf-8")
    @example([("FC Tokyo", 1, 1.0, 1.0)], {"--stake": "inf", "--fx-rate": "1e400"}, [],
             "utf-8", "utf-8")
    @example([("Club A", 1, 1.0, 1.0)], {"--max-size": str(10**400)}, ["stake = nan"],
             "utf-8", "utf-8")
    @example([("FC Tokyo", 1, 1.0, 1.0)], {cli.ENV_FX: "1e400"}, ["fx_rate = x"],
             "utf-8", "utf-8")
    @example([("München", 1, 1.0, 1.0)], {}, ["stake = 0.5"], "utf-16", "utf-16")
    def test_every_command_exits_0_or_1(
        self, rows, flags, config_lines, club_encoding, config_encoding
    ):
        # Every generated CSV, whether parse_club_csv accepts it or not,
        # ends in exit 0 or a ClubValError (exit 1), never an exception;
        # a fuzzed setting may also end in a usage error (exit 2).
        text = CSV_HEADER + "\n" + "".join(
            f"{name},J1,{sns},{rev!r},{pmv!r}\n" for name, sns, rev, pmv in rows
        )
        env = {cli.ENV_FX: flags.get(cli.ENV_FX, "")}  # an empty variable is unset
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
            club_file = Path(tmp) / "clubs.csv"
            club_file.write_text(text, encoding=club_encoding)
            config = Path(tmp) / "settings.conf"
            config.write_text("\n".join(config_lines), encoding=config_encoding)
            out = str(Path(tmp) / "out")
            for command in _FUZZED_COMMANDS:
                fuzzed = [
                    arg for flag, value in flags.items()
                    if flag in _FLAGS_TAKEN[command[0]] for arg in (flag, value)
                ]
                if config_lines and command[0] != "plot":
                    fuzzed += ["--config", str(config)]
                argv = [*command, "--input", str(club_file), "--out", out, *fuzzed]
                assert run_cli(argv) in ((0, 1, 2) if fuzzed else (0, 1)), argv

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clubval import reference_data
from clubval.dataset import (
    CSV_HEADER,
    ClubRecord,
    EuropeanReference,
    FxRate,
    TransactionCase,
    TransactionPattern,
    bundled_european_reference,
    bundled_jleague_dataset,
    bundled_jleague_reported_values,
    bundled_transactions,
    club_csv,
    parse_club_csv,
    predictor_reader,
    published_fit_statistics,
)
from clubval.errors import (
    DomainError,
    HeaderMismatch,
    MissingPredictor,
    NonNumeric,
    RowArity,
)
from clubval.valuation import transaction_premium


class TestParseClubCsv:
    def test_five_field_row(self):
        text = CSV_HEADER + "\nUrawa Reds,J1,807734,54.18,28.55\n"
        records = parse_club_csv(text)
        assert len(records) == 1
        rec = records[0]
        assert rec.name == "Urawa Reds"
        assert rec.league == "J1"
        assert rec.sns_followers == 807734
        assert rec.revenue_meur == 54.18
        assert rec.player_market_value_meur == 28.55
        assert rec.broadcasting_meur is None
        assert rec.stadium_owned is None

    def test_full_row_with_optionals(self):
        text = CSV_HEADER + "\nSome Club,J2,1000,2.5,3.5,0.8,0.45,1.9,true\n"
        rec = parse_club_csv(text)[0]
        assert rec.broadcasting_meur == 0.8
        assert rec.wage_cost_ratio == 0.45
        assert rec.player_wages_meur == 1.9
        assert rec.stadium_owned is True

    def test_empty_optionals(self):
        text = CSV_HEADER + "\nSome Club,J2,1000,2.5,3.5,,,,\n"
        rec = parse_club_csv(text)[0]
        assert rec.broadcasting_meur is None
        assert rec.wage_cost_ratio is None
        assert rec.player_wages_meur is None
        assert rec.stadium_owned is None

    def test_header_only_gives_empty_list(self):
        assert parse_club_csv(CSV_HEADER + "\n") == []

    def test_crlf_accepted(self):
        text = CSV_HEADER + "\r\nUrawa Reds,J1,807734,54.18,28.55\r\n"
        assert parse_club_csv(text)[0].name == "Urawa Reds"

    def test_utf8_bom_ignored(self):
        text = "\ufeff" + CSV_HEADER + "\nUrawa Reds,J1,807734,54.18,28.55\n"
        assert parse_club_csv(text) == parse_club_csv(text[1:])

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            parse_club_csv("club,tier,followers\nx,y,1\n")
        with pytest.raises(HeaderMismatch):
            parse_club_csv("")

    def test_row_arity(self):
        with pytest.raises(RowArity):
            parse_club_csv(CSV_HEADER + "\nClub,J1,100,1.0\n")

    def test_non_numeric(self):
        with pytest.raises(NonNumeric):
            parse_club_csv(CSV_HEADER + "\nClub,J1,many,1.0,2.0\n")
        with pytest.raises(NonNumeric):
            parse_club_csv(CSV_HEADER + "\nClub,J1,100,abc,2.0\n")
        with pytest.raises(NonNumeric):
            parse_club_csv(CSV_HEADER + "\nClub,J1,100,1.0,2.0,,,,maybe\n")

    def test_negative_value(self):
        with pytest.raises(DomainError):
            parse_club_csv(CSV_HEADER + "\nClub,J1,100,-5,2.0\n")
        with pytest.raises(DomainError):
            parse_club_csv(CSV_HEADER + "\nClub,J1,-100,5,2.0\n")

    def test_error_carries_line_number(self):
        text = CSV_HEADER + "\nOk,J1,1,1,1\nBad,J1,1,-9,1\n"
        with pytest.raises(DomainError) as exc_info:
            parse_club_csv(text)
        assert "line 3" in str(exc_info.value)


class TestRoundTrip:
    def test_bundled_records_round_trip(self):
        records = bundled_jleague_dataset()
        assert parse_club_csv(club_csv(records)) == records

    def test_optionals_round_trip(self):
        records = [
            ClubRecord(
                name="Full Club",
                league="J9",
                sns_followers=123,
                revenue_meur=4.5,
                player_market_value_meur=6.75,
                broadcasting_meur=0.0,
                wage_cost_ratio=1.25,
                player_wages_meur=3.125,
                stadium_owned=False,
            ),
            ClubRecord("Owner", "J1", 10**30, 1e-300, 1.7e308, 1e16, 2.0, 0.1, True),
            ClubRecord("Bare", "", 0, 0.0, 0.0),
            ClubRecord("Whole", "J2", 7, 5, 3),
        ]
        text = club_csv(records)
        assert text.splitlines()[2:] == [
            "Owner,J1,1000000000000000000000000000000,1e-300,1.7e+308,1e+16,2.0,0.1,true",
            "Bare,,0,0.0,0.0,,,,",
            "Whole,J2,7,5,3,,,,",
        ]
        assert parse_club_csv(text) == records


class TestBundles:
    def test_jleague_counts(self):
        records = bundled_jleague_dataset()
        assert len(records) == 60
        tiers = {"J1": 0, "J2": 0, "J3": 0}
        for rec in records:
            tiers[rec.league] += 1
        assert tiers == {"J1": 18, "J2": 22, "J3": 20}

    def test_jleague_spot_values(self):
        by_name = {r.name: r for r in bundled_jleague_dataset()}
        kashima = by_name["Kashima Antlers"]
        assert kashima.sns_followers == 792968
        assert kashima.revenue_meur == 40.77
        assert kashima.player_market_value_meur == 20.80
        assert by_name["Y.S.C.C. Yokohama"].revenue_meur == 1.05
        assert "Kagoshima United FC" in by_name

    def test_reported_values_cover_every_club(self):
        reported = bundled_jleague_reported_values()
        records = bundled_jleague_dataset()
        assert set(reported) == {r.name for r in records}
        assert reported["Urawa Reds"] == (161.39, 40.64, 397.2)

    def test_transactions(self):
        cases = bundled_transactions()
        assert len(cases) == 4
        by_club = {c.club: c for c in cases}
        assert by_club["FC Machida Zelvia"].price_for_51pct_myen == 714.0
        assert by_club["FC Tokyo"].pattern is TransactionPattern.CAPITAL_INCREASE
        assert by_club["Sagan Tosu"].price_for_51pct_myen is None
        assert by_club["Kashima Antlers"].pattern is TransactionPattern.SHARE_TRANSFER

    def test_european_reference(self):
        refs = bundled_european_reference()
        assert len(refs) == 37
        real = next(r for r in refs if r.club == "Real Madrid")
        assert (real.ev_kpmg, real.fv1, real.fv2) == (3184.0, 3283.0, 3500.0)

    def test_published_fit_statistics_shape(self):
        stats = published_fit_statistics()
        assert set(stats) == {"Formula 1", "Formula 2"}
        f1 = stats["Formula 1"]
        assert f1["rows"][0][:2] == ("sns_followers_m", 3.7233)
        assert f1["rows"][1][:2] == ("revenue_meur", 2.9233)
        f2 = stats["Formula 2"]
        assert f2["rows"][0][:2] == ("sns_followers_m", 5.7754)
        assert f2["rows"][1][:2] == ("player_market_value_meur", 1.2599)

    def test_published_fit_statistics_are_copies(self):
        published = repr(reference_data.PUBLISHED_FIT_STATISTICS)
        first = published_fit_statistics()
        expected = repr(first)
        first["Formula 1"]["r_squared"] = 0.0
        first["Formula 2"].clear()
        del first["Formula 1"]["rows"]
        assert repr(published_fit_statistics()) == expected
        assert repr(reference_data.PUBLISHED_FIT_STATISTICS) == published


_PRICED_CASE = TransactionCase("X", TransactionPattern.SHARE_TRANSFER, None, None, 1.0, "")


class TestConversions:
    """The two unit conversions: the sns_followers_m reader's count in
    millions, and transaction_premium's euros to yen."""

    def test_followers_to_millions(self):
        millions = predictor_reader("sns_followers_m")
        for count, expected in ((807_734, 0.807734), (0, 0.0), (1_000_000, 1.0)):
            assert millions(ClubRecord("X", "J1", count, 1.0, 1.0)) == expected

    def test_negative_amounts_rejected(self):
        # Each conversion reads a value that was checked on the way in.
        with pytest.raises(DomainError, match="sns_followers must be >= 0"):
            ClubRecord("X", "J1", -1, 1.0, 1.0)
        with pytest.raises(DomainError, match="firm value must be positive"):
            transaction_premium(_PRICED_CASE, -1.0, FxRate())

    @given(
        st.floats(min_value=1e-300, max_value=1e9),
        st.floats(min_value=1.0, max_value=500.0),
    )
    def test_round_trip(self, amount, rate):
        implied = transaction_premium(_PRICED_CASE, amount, FxRate(rate)).implied_stake_value_myen
        assert implied == amount * rate * 0.51
        assert implied / 0.51 / rate == pytest.approx(amount, rel=1e-12)


class TestInvariants:
    def test_fx_rate_must_be_positive(self):
        for value in (0.0, -150.0, float("inf"), float("nan"), "150", None, 10**400, True):
            with pytest.raises(DomainError, match="^yen_per_euro must be positive and finite"):
                FxRate(value)

    _NOT_POSITIVE_NUMBERS = [
        float("nan"), float("inf"), -1.0, 0.0, "5", None,
        pytest.param(10**400, id="int-past-float-range"),
    ]

    @pytest.mark.parametrize("value", _NOT_POSITIVE_NUMBERS)
    @pytest.mark.parametrize("field", ["par_value_kyen", "stock_price_kyen", "price_for_51pct_myen"])
    def test_transaction_case_judges_its_numbers(self, field, value):
        amounts = {"par_value_kyen": 50.0, "stock_price_kyen": 50.0, "price_for_51pct_myen": 714.0}
        amounts[field] = value

        def case():
            return TransactionCase("A", TransactionPattern.CAPITAL_INCREASE, **amounts, method_label="")

        if value is None:  # each of them may be undisclosed
            assert getattr(case(), field) is None
            return
        with pytest.raises(DomainError, match=f"^A: {field} must be positive and finite"):
            case()

    @pytest.mark.parametrize("value", _NOT_POSITIVE_NUMBERS)
    @pytest.mark.parametrize("field", ["ev_kpmg", "fv1", "fv2"])
    def test_european_reference_judges_its_numbers(self, field, value):
        values = {"ev_kpmg": 1.0, "fv1": 1.0, "fv2": 2.0, field: value}
        with pytest.raises(DomainError, match=f"^A: {field} must be positive and finite"):
            EuropeanReference("A", **values)

    @pytest.mark.parametrize(
        "club, message",
        [
            (None, "club must be a one-line string, got None"),
            (7, "club must be a one-line string, got 7"),
            ("X\nY", "club must be a one-line string, got 'X\\nY'"),
            ("", "club name must be non-empty, got ''"),
        ],
        ids=["none", "int", "line-break", "empty"],
    )
    def test_transaction_and_reference_club_is_one_line_name(self, club, message):
        # The same judge, and message, as ClubRecord.name.
        with pytest.raises(DomainError) as info:
            TransactionCase(club, TransactionPattern.SHARE_TRANSFER, None, None, 1.0, "")
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            EuropeanReference(club, 1.0, 1.0, 2.0)
        assert str(info.value) == message

    def test_non_finite_firm_value_named_as_such(self):
        for fv in (float("nan"), float("inf"), "10"):
            with pytest.raises(DomainError, match="firm value must be positive and finite"):
                transaction_premium(_PRICED_CASE, fv, FxRate())

    def test_club_record_validation(self):
        with pytest.raises(DomainError):
            ClubRecord("", "J1", 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            ClubRecord("X", "J1", -1, 1.0, 1.0)
        with pytest.raises(DomainError):
            ClubRecord("X", "J1", 1, -1.0, 1.0)
        with pytest.raises(DomainError):
            ClubRecord("X", "J1", 1, 1.0, 1.0, wage_cost_ratio=2.5)

    def test_follower_count_beyond_float_range(self):
        largest = int(sys.float_info.max)
        assert ClubRecord("X", "J1", largest, 1.0, 1.0).sns_followers == largest
        for count in (largest + 1, 10**309, 10**400, -(10**5000)):
            with pytest.raises(DomainError, match="sns_followers"):
                ClubRecord("X", "J1", count, 1.0, 1.0)
        with pytest.raises(DomainError, match="sns_followers"):
            parse_club_csv(CSV_HEADER + f"\nX,J1,{10**400},1.0,1.0\n")

    @pytest.mark.parametrize("field", ["revenue_meur", "player_market_value_meur"])
    def test_required_amount_must_not_be_none(self, field):
        amounts = {"revenue_meur": 1.0, "player_market_value_meur": 1.0, field: None}
        with pytest.raises(DomainError, match=f"X: {field} must be finite and >= 0, got None"):
            ClubRecord("X", "J1", 1, **amounts)

    def test_optional_amounts_may_be_none(self):
        rec = ClubRecord("X", "J1", 1, 1.0, 1.0, broadcasting_meur=None, player_wages_meur=None)
        assert rec.broadcasting_meur is None and rec.player_wages_meur is None

    @pytest.mark.parametrize(
        "field",
        ["revenue_meur", "player_market_value_meur", "broadcasting_meur", "player_wages_meur"],
    )
    @pytest.mark.parametrize(
        "amount", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
    )
    def test_int_amount_past_the_float_range(self, field, amount):
        amounts = {"revenue_meur": 1.0, "player_market_value_meur": 1.0, field: amount}
        with pytest.raises(DomainError, match=f"X: {field} must be finite and >= 0, got an int"):
            ClubRecord("X", "J1", 0, **amounts)
        largest = int(sys.float_info.max)
        amounts[field] = largest
        assert getattr(ClubRecord("X", "J1", 0, **amounts), field) == largest

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("revenue_meur", "5", "revenue_meur must be finite and >= 0, got '5'"),
            ("player_market_value_meur", [1.0], "must be finite and >= 0, got [1.0]"),
            ("broadcasting_meur", 1j, "broadcasting_meur must be finite and >= 0, got 1j"),
            ("player_wages_meur", b"2", "player_wages_meur must be finite and >= 0, got b'2'"),
            ("wage_cost_ratio", "x", "wage_cost_ratio must be a number, got 'x'"),
            ("wage_cost_ratio", [0.5], "wage_cost_ratio must be a number, got [0.5]"),
            (
                "wage_cost_ratio", 10**5000,
                "wage_cost_ratio must lie in [0, 2], got an int past the float range",
            ),
            ("revenue_meur", True, "revenue_meur must be finite and >= 0, got True"),
        ],
        ids=["str", "list", "complex", "bytes", "str-ratio", "list-ratio", "1e5000-ratio",
             "bool"],
    )
    def test_non_number_names_field_and_value(self, field, value, message):
        amounts = {"revenue_meur": 1.0, "player_market_value_meur": 1.0, field: value}
        with pytest.raises(DomainError) as info:
            ClubRecord("X", "J1", 1, **amounts)
        assert str(info.value).startswith("X: ")
        assert str(info.value).endswith(message)

    @pytest.mark.parametrize("owned", ["no", "false", "", 0, 1, 1.0, [True]])
    def test_stadium_owned_must_be_a_bool_or_none(self, owned):
        with pytest.raises(DomainError) as info:
            ClubRecord("X", "J1", 1, 1.0, 1.0, stadium_owned=owned)
        assert str(info.value) == f"X: stadium_owned must be True, False or None, got {owned!r}"
        for ok in (True, False, None):
            assert ClubRecord("X", "J1", 1, 1.0, 1.0, stadium_owned=ok).stadium_owned is ok

    @pytest.mark.parametrize("count", [412622.5, 412622.0, True, "412622"])
    def test_follower_count_must_be_an_integer(self, count):
        with pytest.raises(DomainError, match="sns_followers must be an integer"):
            ClubRecord("X", "J1", count, 1.0, 1.0)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,J1,1,1.0,1.0,,3.0", "line 3: A: wage_cost_ratio must lie in [0, 2]"),
            (",J1,1,1.0,1.0", "line 3: club name must be non-empty"),
            (f"A,J1,{10**400},1.0,1.0", "line 3: A: sns_followers must not exceed"),
            ("A,J1,-1,1.0,1.0", "line 3: A: sns_followers must be >= 0, got -1"),
            ("A,J1,1,-2.5,1.0", "line 3: A: revenue_meur must be finite and >= 0"),
            ("A,J1,1,inf,1.0", "line 3: A: revenue_meur must be finite and >= 0"),
            ("A,J1,1,1.0,1.0,,nan", "line 3: A: wage_cost_ratio must lie in [0, 2]"),
            ("A,J1,1,1.0,1.0,-1", "line 3: A: broadcasting_meur must be finite and >= 0"),
        ],
    )
    def test_rejected_record_names_its_line(self, row, message):
        text = CSV_HEADER + "\nB,J1,1,1.0,1.0\n" + row + "\n"
        with pytest.raises(DomainError) as info:
            parse_club_csv(text)
        assert str(info.value).startswith(message)

    # Every separator that str.splitlines breaks at.
    LINE_BREAKS = [
        "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ]

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
    @pytest.mark.parametrize("field", ["name", "league"])
    def test_text_field_must_be_one_line(self, field, brk):
        text = f"A{brk}B"
        message = f"{field} must be a one-line string, got {text!r}"
        fields = {"name": "X", "league": "J1", field: text}
        with pytest.raises(DomainError) as info:
            ClubRecord(fields["name"], fields["league"], 1, 1.0, 1.0)
        assert str(info.value) == message
        row = ",".join(f'"{fields[f]}"' for f in ("name", "league")) + ",1,1.0,1.0"
        with pytest.raises(DomainError) as info:
            parse_club_csv(CSV_HEADER + "\n" + row + "\n")
        assert str(info.value) == "line 2: " + message

    @pytest.mark.parametrize(
        "row, field, cell",
        [
            ("A,J1,many,1.0,1.0", "sns_followers", "many"),
            ("A,J1,,1.0,1.0", "sns_followers", ""),
            ("A,J1,1,abc,1.0", "revenue_meur", "abc"),
            ("A,J1,1,1.0,1.0.0", "player_market_value_meur", "1.0.0"),
            ("A,J1,1,1.0,1.0,n/a", "broadcasting_meur", "n/a"),
            ("A,J1,1,1.0,1.0,,half", "wage_cost_ratio", "half"),
            ("A,J1,1,1.0,1.0,,,1e", "player_wages_meur", "1e"),
            ("A,J1,1,1.0,1.0,,,,maybe", "stadium_owned", "maybe"),
            # The first cell that does not parse is the one reported.
            ("A,J1,1,x,y,,,,maybe", "revenue_meur", "x"),
        ],
    )
    def test_unparseable_cell_message(self, row, field, cell):
        with pytest.raises(NonNumeric) as info:
            parse_club_csv(CSV_HEADER + "\nB,J1,1,1.0,1.0\n" + row + "\n")
        assert str(info.value) == f"line 3: field {field!r} has unparseable value {cell!r}"
        assert (info.value.field, info.value.line) == (field, 3)

    def test_predictor_value(self):
        rec = ClubRecord("X", "J1", 2_500_000, 10.0, 20.0, stadium_owned=True)
        assert predictor_reader("sns_followers_m")(rec) == 2.5
        assert predictor_reader("revenue_meur")(rec) == 10.0
        assert predictor_reader("player_market_value_meur")(rec) == 20.0
        assert predictor_reader("stadium_owned")(rec) == 1.0

    def test_missing_predictor(self):
        rec = ClubRecord("X", "J1", 1, 1.0, 1.0)
        with pytest.raises(MissingPredictor):
            predictor_reader("broadcasting_meur")(rec)
        with pytest.raises(MissingPredictor):
            predictor_reader("no_such_variable")(rec)

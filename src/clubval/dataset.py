"""Club data model, CSV ingestion, unit conversions, and bundled datasets.

Monetary amounts are held in millions of euros everywhere inside the
package. Yen appears only at the boundary: acquisition prices and the
exchange rate used to convert model outputs for premium analysis.
Follower counts are stored as raw integers and converted to millions
only when a model consumes them, so the scale conversion happens in
exactly one place.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import sys
from dataclasses import dataclass

from . import reference_data
from .errors import (
    DomainError,
    HeaderMismatch,
    MissingPredictor,
    NonNumeric,
    RowArity,
)

CSV_HEADER = (
    "name,league,sns_followers,revenue_meur,player_market_value_meur,"
    "broadcasting_meur,wage_cost_ratio,player_wages_meur,stadium_owned"
)
_CSV_FIELDS = CSV_HEADER.split(",")
_REQUIRED_FIELD_COUNT = 5

class TransactionPattern(enum.Enum):
    CAPITAL_INCREASE = "capital_increase"
    SHARE_TRANSFER = "share_transfer"


@dataclass(frozen=True)
class FxRate:
    """Exchange rate in yen per euro. The reference analyses use 150."""

    yen_per_euro: float = 150.0

    def __post_init__(self) -> None:
        if not (self.yen_per_euro > 0 and math.isfinite(self.yen_per_euro)):
            raise DomainError(
                f"yen_per_euro must be positive and finite, got {self.yen_per_euro}"
            )


@dataclass(frozen=True)
class ClubRecord:
    """One club's predictor observations.

    sns_followers is a raw count; the monetary fields are millions of
    euros. The last four fields are optional and None when the source
    did not report them (never 0, which is a legal value).
    """

    name: str
    league: str
    sns_followers: int
    revenue_meur: float
    player_market_value_meur: float
    broadcasting_meur: float | None = None
    wage_cost_ratio: float | None = None
    player_wages_meur: float | None = None
    stadium_owned: bool | None = None

    def __post_init__(self) -> None:
        # A line break would split the club's row in md and text tables.
        for field_name in ("name", "league"):
            text = getattr(self, field_name)
            if not isinstance(text, str) or "".join(text.splitlines()) != text:
                raise DomainError(f"{field_name} must be a one-line string, got {text!r}")
        if not self.name:
            raise DomainError("club name must be non-empty, got ''")
        count = self.sns_followers
        # bool is an int, but True is no count.
        if isinstance(count, bool) or not isinstance(count, int):
            raise DomainError(
                f"{self.name}: sns_followers must be an integer, got {count!r}"
            )
        # Magnitude first: past 4300 digits an int cannot be printed.
        if abs(count) > sys.float_info.max:
            raise DomainError(
                f"{self.name}: sns_followers must not exceed the largest float, "
                f"{sys.float_info.max!r}"
            )
        if count < 0:
            raise DomainError(f"{self.name}: sns_followers must be >= 0, got {count}")
        for field_name in ("revenue_meur", "player_market_value_meur",
                          "broadcasting_meur", "player_wages_meur"):
            value = getattr(self, field_name)
            if value is None:
                continue
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(
                    f"{self.name}: {field_name} must be finite and >= 0, got {value}"
                )
        if self.wage_cost_ratio is not None and not (
            0.0 <= self.wage_cost_ratio <= 2.0
        ):
            raise DomainError(
                f"{self.name}: wage_cost_ratio must lie in [0, 2], "
                f"got {self.wage_cost_ratio}"
            )


@dataclass(frozen=True)
class TransactionCase:
    """A historical acquisition of club control.

    price_for_51pct_myen is the amount paid for a 51 percent stake in
    millions of yen; None when the deal terms were never disclosed.
    """

    club: str
    pattern: TransactionPattern
    par_value_kyen: float | None
    stock_price_kyen: float | None
    price_for_51pct_myen: float | None
    method_label: str

    def __post_init__(self) -> None:
        if self.price_for_51pct_myen is not None and self.price_for_51pct_myen <= 0:
            raise DomainError(
                f"{self.club}: disclosed price must be positive, "
                f"got {self.price_for_51pct_myen}"
            )


@dataclass(frozen=True)
class EuropeanReference:
    """Published enterprise value and the two model estimates for one
    European club, all in millions of euros."""

    club: str
    ev_kpmg: float
    fv1: float
    fv2: float

    def __post_init__(self) -> None:
        if min(self.ev_kpmg, self.fv1, self.fv2) <= 0:
            raise DomainError(f"{self.club}: reference values must be positive")


def yen_to_eur(amount_myen: float, fx: FxRate) -> float:
    """Convert millions of yen to millions of euros."""
    if amount_myen < 0:
        raise DomainError(f"amount must be >= 0, got {amount_myen}")
    return amount_myen / fx.yen_per_euro


def eur_to_yen(amount_meur: float, fx: FxRate) -> float:
    """Convert millions of euros to millions of yen."""
    if amount_meur < 0:
        raise DomainError(f"amount must be >= 0, got {amount_meur}")
    return amount_meur * fx.yen_per_euro


def followers_to_millions(count: int) -> float:
    """Express a raw follower count in millions."""
    if count < 0:
        raise DomainError(f"follower count must be >= 0, got {count}")
    return count / 1_000_000


def predictor_value(record: ClubRecord, variable_id: str) -> float:
    """Value of one model predictor for a club.

    Raises MissingPredictor when the record does not carry the variable
    or the id is not in the predictor vocabulary.
    """
    if variable_id == "sns_followers_m":
        return followers_to_millions(record.sns_followers)
    if variable_id == "revenue_meur":
        return record.revenue_meur
    if variable_id == "player_market_value_meur":
        return record.player_market_value_meur
    if variable_id in ("broadcasting_meur", "wage_cost_ratio", "player_wages_meur"):
        value = getattr(record, variable_id)
        if value is None:
            raise MissingPredictor(variable_id, record.name)
        return value
    if variable_id == "stadium_owned":
        if record.stadium_owned is None:
            raise MissingPredictor(variable_id, record.name)
        return 1.0 if record.stadium_owned else 0.0
    raise MissingPredictor(variable_id, record.name)


_BOOL_WORDS = {
    "": None,
    "true": True, "1": True, "yes": True,
    "false": False, "0": False, "no": False,
}


def _optional_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


# One converter per CSV_HEADER field; ValueError or KeyError means unparseable.
_CONVERTERS = (
    str, str, int, float, float, _optional_float, _optional_float, _optional_float,
    lambda cell: _BOOL_WORDS[cell.strip().lower()],
)


def parse_club_csv(text: str) -> list[ClubRecord]:
    """Parse a club CSV document into records, preserving file order.

    The header must match CSV_HEADER exactly. Rows carry either the
    five required fields or up to all nine; omitted or empty trailing
    fields mean the optional predictors are absent. One leading UTF-8
    byte order mark, as spreadsheet exports write, is ignored.

    The parser only converts cells, raising NonNumeric for one it
    cannot read. Ranges are ClubRecord's to judge; its DomainError is
    re-raised with the line number in front.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMismatch("document is empty, expected the club CSV header") from None
    if header != _CSV_FIELDS:
        raise HeaderMismatch(
            f"header {','.join(header)!r} does not match {CSV_HEADER!r}"
        )

    records: list[ClubRecord] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < _REQUIRED_FIELD_COUNT or len(row) > len(_CSV_FIELDS):
            raise RowArity(line_no, len(row))
        cells = row + [""] * (len(_CSV_FIELDS) - len(row))
        values = []
        for convert, cell, field in zip(_CONVERTERS, cells, _CSV_FIELDS):
            try:
                values.append(convert(cell))
            except (ValueError, KeyError):
                raise NonNumeric(field, line_no, cell) from None
        try:
            records.append(ClubRecord(*values))
        except DomainError as exc:
            raise DomainError(f"line {line_no}: {exc}") from None
    return records


def _number_cell(value: float | None) -> str:
    if value is None:
        return ""
    return repr(value)


def club_csv(records: list[ClubRecord]) -> str:
    """Serialize records to the club CSV schema; parse_club_csv inverts it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in records:
        stadium = "" if r.stadium_owned is None else ("true" if r.stadium_owned else "false")
        writer.writerow(
            [
                r.name,
                r.league,
                str(r.sns_followers),
                _number_cell(r.revenue_meur),
                _number_cell(r.player_market_value_meur),
                _number_cell(r.broadcasting_meur),
                _number_cell(r.wage_cost_ratio),
                _number_cell(r.player_wages_meur),
                stadium,
            ]
        )
    return out.getvalue()


def bundled_jleague_dataset() -> list[ClubRecord]:
    """The bundled J.League clubs: name, tier, SNS followers, revenue,
    and player market value for all 60 clubs of the published table."""
    return [
        ClubRecord(
            name=name,
            league=league,
            sns_followers=sns,
            revenue_meur=rev,
            player_market_value_meur=pmv,
        )
        for league, name, sns, rev, pmv, _fv1, _fv2, _ratio in reference_data.JLEAGUE_TABLE
    ]


def bundled_jleague_reported_values() -> dict[str, tuple[float, float, float]]:
    """Reported firm values accompanying the bundled records: club name
    to (fv1_meur, fv2_meur, ratio_pct) as printed in the source table."""
    return {
        name: (fv1, fv2, ratio)
        for _league, name, _sns, _rev, _pmv, fv1, fv2, ratio in reference_data.JLEAGUE_TABLE
    }


def bundled_transactions() -> list[TransactionCase]:
    """The four published acquisition cases used for premium analysis."""
    return [
        TransactionCase(
            club=club,
            pattern=TransactionPattern(pattern),
            par_value_kyen=par,
            stock_price_kyen=stock,
            price_for_51pct_myen=price,
            method_label=method,
        )
        for club, pattern, par, stock, price, method in reference_data.TRANSACTION_TABLE
    ]


def bundled_european_reference() -> list[EuropeanReference]:
    """The 37 European clubs with published enterprise values and the
    two model estimates."""
    return [
        EuropeanReference(club=club, ev_kpmg=ev, fv1=fv1, fv2=fv2)
        for club, ev, fv1, fv2 in reference_data.EUROPEAN_TABLE
    ]


def published_fit_statistics() -> dict:
    """Published inference blocks for the two formulae: summary stats
    plus per-variable (coefficient, standard error, t, p) rows."""
    return {
        name: {
            "multiple_r": block["multiple_r"],
            "r_squared": block["r_squared"],
            "adjusted_r_squared": block["adjusted_r_squared"],
            "standard_error": block["standard_error"],
            "rows": tuple(block["rows"]),
        }
        for name, block in reference_data.PUBLISHED_FIT_STATISTICS.items()
    }

"""Club data model, CSV ingestion, predictor readers, and bundled datasets.

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
from collections.abc import Callable
from operator import attrgetter

from . import reference_data
from ._record import count, finite, finite_or_none, one_line, record, refuse
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


@record
class FxRate:
    """Exchange rate in yen per euro. The reference analyses use 150."""

    yen_per_euro: float = 150.0

    def __post_init__(self) -> None:
        finite(self.yen_per_euro, None, "yen_per_euro", 0, True)


@record
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
        name, owned = self.name, self.stadium_owned
        one_line(name, None, "name", "club name")
        one_line(self.league, None, "league")
        count(self.sns_followers, name, "sns_followers", 0)
        finite(self.revenue_meur, name, "revenue_meur", 0)
        finite(self.player_market_value_meur, name, "player_market_value_meur", 0)
        finite_or_none(self.broadcasting_meur, name, "broadcasting_meur", 0)
        finite_or_none(self.player_wages_meur, name, "player_wages_meur", 0)
        finite_or_none(self.wage_cost_ratio, name, "wage_cost_ratio", 0, False, 2)
        if not (owned is None or isinstance(owned, bool)):
            refuse(name, "stadium_owned", "be True, False or None", owned)


@record
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
        one_line(self.club, None, "club", "club name")
        for field_name in ("par_value_kyen", "stock_price_kyen", "price_for_51pct_myen"):
            finite_or_none(getattr(self, field_name), self.club, field_name, 0, True)


@record
class EuropeanReference:
    """Published enterprise value and the two model estimates for one
    European club, all in millions of euros."""

    club: str
    ev_kpmg: float
    fv1: float
    fv2: float

    def __post_init__(self) -> None:
        one_line(self.club, None, "club", "club name")
        for field_name in ("ev_kpmg", "fv1", "fv2"):
            finite(getattr(self, field_name), self.club, field_name, 0, True)


def predictor_reader(variable_id: str) -> Callable[[ClubRecord], float]:
    """The function that reads one model predictor from a club record.

    It raises MissingPredictor, naming the club, when the record does not
    carry the variable or the id is not in the predictor vocabulary.
    """
    if variable_id == "sns_followers_m":
        return lambda record: record.sns_followers / 1_000_000
    if variable_id in ("revenue_meur", "player_market_value_meur"):
        return attrgetter(variable_id)
    known = variable_id in _CSV_FIELDS[_REQUIRED_FIELD_COUNT:]  # the optional fields

    def read_optional(record: ClubRecord) -> float:
        value = getattr(record, variable_id) if known else None
        if value is None:
            raise MissingPredictor(variable_id, record.name)
        return (1.0 if value else 0.0) if variable_id == "stadium_owned" else value

    return read_optional


_BOOL_WORDS = {
    "": None,
    "true": True, "1": True, "yes": True,
    "false": False, "0": False, "no": False,
}
_CONVERTIBLE_ROW = ("", "", "0", "0", "0", "", "", "", "")


def _converted(cells: list[str]) -> tuple:
    """A CSV row's cells as ClubRecord arguments. ValueError or KeyError
    means some cell does not parse; an empty optional cell is None."""
    name, league, sns, revenue, pmv, broadcasting, ratio, wages, stadium = cells
    return (
        name, league, int(sns), float(revenue), float(pmv),
        float(broadcasting) if broadcasting else None,
        float(ratio) if ratio else None,
        float(wages) if wages else None,
        _BOOL_WORDS[stadium.strip().lower()],
    )


def _unparseable(cells: list[str], line_no: int) -> NonNumeric:
    """The NonNumeric for the first cell of a row that does not convert:
    each cell is tried alone, in a row whose other cells all convert."""
    for i, cell in enumerate(cells):
        try:
            _converted([*_CONVERTIBLE_ROW[:i], cell, *_CONVERTIBLE_ROW[i + 1:]])
        except (ValueError, KeyError):
            return NonNumeric(_CSV_FIELDS[i], line_no, cell)
    raise AssertionError("every cell converts on its own")


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
        try:
            records.append(ClubRecord(*_converted(cells)))
        except (ValueError, KeyError):
            raise _unparseable(cells, line_no) from None
        except DomainError as exc:
            raise DomainError(f"line {line_no}: {exc}") from None
    return records


def _cell(value: str | int | float | bool | None) -> str:
    """A record field as club CSV text, the form parse_club_csv reads back."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _csv_doc(rows: list[list[str]]) -> str:
    """Rows of cells as CSV text with "\n" line ends; report's tables use it too."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def club_csv(records: list[ClubRecord]) -> str:
    """Serialize records to the club CSV schema; parse_club_csv inverts it."""
    fields = attrgetter(*_CSV_FIELDS)
    return _csv_doc([_CSV_FIELDS, *([_cell(value) for value in fields(r)] for r in records)])


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
    plus per-variable (coefficient, standard error, t, p) rows. Each call
    returns new dicts; their values are numbers and tuples."""
    return {name: dict(block) for name, block in reference_data.PUBLISHED_FIT_STATISTICS.items()}

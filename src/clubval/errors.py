"""Error types shared across the package.

Everything raised on bad data or bad numerical state derives from
ClubValError, so callers (and the CLI) can distinguish data problems
from genuine bugs.
"""

from __future__ import annotations


class ClubValError(Exception):
    """Base class for all data and numerical errors raised by clubval."""


# --- regression ---

class DimensionMismatch(ClubValError):
    """Shapes of design matrix and response disagree."""


class InsufficientObservations(ClubValError):
    """Fewer observations than needed to leave at least one residual dof."""


class RankDeficient(ClubValError):
    """Design matrix is collinear, contains a zero column, or is otherwise singular."""


class DomainError(ClubValError):
    """Value outside the domain a computation or setting accepts."""


# --- dataset ingestion ---

class HeaderMismatch(ClubValError):
    """CSV header line does not match the required schema exactly."""


class RowArity(ClubValError):
    def __init__(self, line: int, got: int):
        super().__init__(f"line {line}: expected 5 to 9 fields, got {got}")
        self.line = line
        self.got = got


class NonNumeric(ClubValError):
    def __init__(self, field: str, line: int, value: str):
        super().__init__(f"line {line}: field {field!r} has unparseable value {value!r}")
        self.field = field
        self.line = line


# --- valuation ---

class MissingPredictor(ClubValError):
    def __init__(self, variable_id: str, club: str = ""):
        where = f" for {club!r}" if club else ""
        super().__init__(f"predictor {variable_id!r} is not available{where}")
        self.variable_id = variable_id


class DegenerateRatio(ClubValError):
    """FV1/FV2 ratio requested while FV2 is zero."""


class MissingPrice(ClubValError):
    """Transaction case has no 51%-stake price, so no premium can be computed."""


class EmptyInput(ClubValError):
    """An aggregate or range was requested over an empty collection."""


# --- selection ---

class TooManyCandidates(ClubValError):
    """Candidate count exceeds the exhaustive-search guard."""


# --- rendering ---

class IoError(ClubValError):
    """Writing a rendered document to its output path failed."""


class NonPositiveLogInput(ClubValError):
    """A value <= 0 cannot be placed on a log10 axis."""

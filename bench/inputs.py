"""Seeded inputs for the benchmark workloads, independent of clubval.

Every op draws from its own stream, keyed by the workload seed and the
op id, so the same seed always gives the same inputs and no two ops
share one. Club tables are written with the csv module, never with
clubval's own serializer, and designs are plain numpy arrays.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

CSV_FIELDS = [
    "name",
    "league",
    "sns_followers",
    "revenue_meur",
    "player_market_value_meur",
    "broadcasting_meur",
    "wage_cost_ratio",
    "player_wages_meur",
    "stadium_owned",
]

# Share of optional cells left empty, so the parser's absent-value path runs.
EMPTY_SHARE = 0.3


@dataclass(frozen=True)
class ClubRow:
    name: str
    league: str
    sns_followers: int
    revenue_meur: float
    player_market_value_meur: float


@dataclass(frozen=True)
class Design:
    """A through-origin design: named columns, a response, and the ids of
    the columns that truly enter the response."""

    ids: tuple[str, ...]
    x: "object"  # numpy array, n x k
    y: "object"  # numpy array, n
    true_ids: tuple[str, ...]


# Independent streams per purpose, so a warm-up input never equals a timed one.
STREAMS = {"op": 0, "warmup": 1, "setup": 2, "baseline": 3}


def op_rng(seed: int, op_id: int, stream: str = "op") -> random.Random:
    # String seeds are hashed with SHA-512, so this does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{STREAMS[stream]}/{seed}/{op_id}")


def _np_rng(seed: int, op_id: int, stream: str):
    # Imported here, so workloads without arrays never load numpy before
    # clubval does and set-up time keeps numpy's import.
    import numpy as np

    return np.random.default_rng([STREAMS[stream], seed, op_id])


def club_rows(seed: int, op_id: int, n: int, stream: str = "op") -> tuple[list[ClubRow], str]:
    """n club rows and the CSV document that carries them.

    The required fields have two decimals, as in the published tables;
    the four optional fields are filled or left empty at random. Every
    club has followers, so FV2 is never zero.
    """
    rng = op_rng(seed, op_id, stream)
    rows: list[ClubRow] = []
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for i in range(n):
        # Every 50th name carries a comma, so the writer has to quote it.
        name = f"Club {i:05d}" + (", Reserves" if i % 50 == 7 else "")
        row = ClubRow(
            name=name,
            league=rng.choice(("J1", "J2", "J3")),
            sns_followers=rng.randint(10_000, 3_000_000),
            revenue_meur=round(rng.uniform(2.0, 120.0), 2),
            player_market_value_meur=round(rng.uniform(0.5, 60.0), 2),
        )
        rows.append(row)
        writer.writerow(
            [
                row.name,
                row.league,
                str(row.sns_followers),
                repr(row.revenue_meur),
                repr(row.player_market_value_meur),
                _optional(rng, 0.5, 40.0, 2),
                _optional(rng, 0.2, 1.5, 3),
                _optional(rng, 1.0, 80.0, 2),
                rng.choice(("", "true", "false")),
            ]
        )
    return rows, out.getvalue()


def _optional(rng: random.Random, low: float, high: float, places: int) -> str:
    if rng.random() < EMPTY_SHARE:
        return ""
    return repr(round(rng.uniform(low, high), places))


def short_design(seed: int, op_id: int, stream: str = "op", k: int = 10, n: int = 60) -> Design:
    """n rows and k candidates; the last candidate is the exact sum of
    the first two, so every subset holding all three is rank deficient.

    Columns are positive and of different magnitudes, like club
    predictors. The response uses every independent column.
    """
    rng = _np_rng(seed, op_id, stream)
    free = k - 1
    scales = rng.uniform(1.0, 100.0, free)
    x = rng.uniform(0.1, 1.0, (n, k))
    x[:, :free] *= scales
    x[:, free] = x[:, 0] + x[:, 1]
    beta = rng.uniform(0.5, 3.0, free)
    signal = x[:, :free] @ beta
    y = signal + rng.normal(0.0, 0.2 * signal.std(), n)
    ids = tuple(f"c{j}" for j in range(free)) + ("c0_plus_c1",)
    return Design(ids=ids, x=x, y=y, true_ids=ids[:free])


def tall_design(seed: int, op_id: int, stream: str = "op", n: int = 60_000, k: int = 8, nulls: int = 3) -> Design:
    """n rows and k candidates of which the last `nulls` have no effect.

    The true effects are large against the noise, so stepwise keeps all
    of them; whether a null column enters depends on the seed.
    """
    rng = _np_rng(seed, op_id, stream)
    x = rng.uniform(0.0, 1.0, (n, k)) * rng.uniform(1.0, 50.0, k)
    beta = rng.uniform(0.5, 3.0, k)
    beta[k - nulls:] = 0.0
    y = x @ beta + rng.normal(0.0, 5.0, n)
    ids = tuple(f"v{j}" for j in range(k))
    return Design(ids=ids, x=x, y=y, true_ids=ids[: k - nulls])


def wide_design(seed: int, k: int = 12, n: int = 60) -> Design:
    """n rows and k independent candidates, for the baseline table."""
    rng = _np_rng(seed, 0, "baseline")
    x = rng.uniform(0.1, 1.0, (n, k)) * rng.uniform(1.0, 100.0, k)
    beta = rng.uniform(0.5, 3.0, k)
    y = x @ beta + rng.normal(0.0, 5.0, n)
    ids = tuple(f"w{j}" for j in range(k))
    return Design(ids=ids, x=x, y=y, true_ids=ids)

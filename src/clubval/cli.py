"""Command-line interface.

Subcommands: fit (regression report from a club CSV), select (variable
subset search), apply (valuation table), premiums (acquisition premium
summary), plot (scatter SVG).

Settings: format (the tables' output), fx_rate and stake (premiums only).
A command resolves only the settings it has a flag for, each by one rule:
the flag, else the VALUATE_FX_RATE environment variable (fx_rate only; an
empty one is unset), else a key = value file given with --config, else the
library's default. A value is judged where it is found, and a refusal
names that source: "--fx-rate must be positive and finite, got -1.0",
"need 0 < config stake <= 1, got 1.5", "config format must be one of
('text', 'csv', 'md'), got 'svg'".

Exit codes: 0 on success, 1 on data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from pathlib import Path

from ._record import finite, refuse
from .dataset import (
    ClubRecord,
    FxRate,
    bundled_european_reference,
    bundled_jleague_dataset,
    bundled_transactions,
    parse_club_csv,
    predictor_reader,
)
from .errors import ClubValError, DomainError, IoError
from .report import (
    SCALES,
    TABLE_FORMATS,
    RenderSpec,
    ScatterSeries,
    emit_scatter,
    render_premium_table,
    render_regression_table,
    render_selection_table,
    render_valuation_table,
    write_document,
)
from .valuation import (
    DEFAULT_STAKE,
    aggregate,
    premium_ranges,
    premiums_by_case,
    valuate_all,
)

# ResponseVector is only an annotation here: fit and select import the
# regression stack themselves. The constant stands in for typing.TYPE_CHECKING.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .regression import ResponseVector

ENV_FX = "VALUATE_FX_RATE"

CORE_PREDICTORS = ("sns_followers_m", "revenue_meur", "player_market_value_meur")

# Each setting: its name, the environment variable that may give it, and the
# library's default for it.
_SETTINGS = (
    ("fx_rate", ENV_FX, FxRate.yen_per_euro),
    ("stake", None, DEFAULT_STAKE),
    ("format", None, RenderSpec.format),
)
CONFIG_KEYS = tuple(name for name, _, _ in _SETTINGS)


def _read_text(path: str, what: str) -> str:
    """The file's UTF-8 text; a file that cannot be read or decoded is an
    IoError, "cannot read WHAT: reason"."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what}: {exc}") from exc


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    # One leading byte order mark is dropped, as parse_club_csv drops it.
    text = _read_text(path, f"config {path}").removeprefix("\ufeff")
    config: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_KEYS:
            raise DomainError(f"{path}:{line_no}: unknown key {key!r}, not one of {CONFIG_KEYS}")
        if key in config:
            raise DomainError(f"{path}:{line_no}: key {key!r} is given twice")
        config[key] = value
    return config


def _judged(name: str, value, source: str):
    """A setting's value, judged where it was found: a refusal names the source."""
    if name == "format":
        if value not in TABLE_FORMATS:
            refuse(None, source, f"be one of {TABLE_FORMATS}", value)
        return value
    try:
        number = float(value)
    except ValueError:
        refuse(None, source, "be a number", value)
    finite(number, None, source, 0, True, 1 if name == "stake" else None)
    return number


def _resolve_settings(args: argparse.Namespace) -> RenderSpec:
    """Resolve each setting whose flag the command has, from the flag, else the
    environment, else the config file, else the default. Its judged value
    replaces the flag's on args; the format also goes into the render spec."""
    config = _load_config(getattr(args, "config", None))
    for name, env, default in _SETTINGS:
        if not hasattr(args, name):
            continue
        for value, source in (
            (getattr(args, name), "--" + name.replace("_", "-")),
            (env and os.environ.get(env) or None, env),  # an empty variable is unset
            (config.get(name), f"config {name}"),
            (default, "default"),
        ):
            if value is not None:
                setattr(args, name, _judged(name, value, source))
                break
    return RenderSpec(getattr(args, "format", "svg"), args.scale)


def _load_records(args: argparse.Namespace) -> list[ClubRecord]:
    if args.input:
        records = parse_club_csv(_read_text(args.input, args.input))
        if not records:
            raise DomainError(f"{args.input} contains no club rows")
        return records
    return bundled_jleague_dataset()


def _predictor_columns(
    records: list[ClubRecord], variable_ids: tuple[str, ...]
) -> list[tuple[str, list[float]]]:
    return [(vid, list(map(predictor_reader(vid), records))) for vid in variable_ids]


def _response(records: list[ClubRecord], variable_id: str) -> ResponseVector:
    from .regression import ResponseVector

    return ResponseVector(variable_id, list(map(predictor_reader(variable_id), records)))


def _split_ids(text: str) -> tuple[str, ...]:
    ids = tuple(part.strip() for part in text.split(",") if part.strip())
    if not ids:
        raise DomainError(f"no variable ids in {text!r}")
    return ids


# Each handler takes the parsed arguments, their settings resolved, and the
# render spec, and returns the document that run_cli writes. fit and select
# import the regression stack themselves, so the other commands never load it.
def _cmd_fit(args: argparse.Namespace, spec: RenderSpec) -> str:
    from .regression import DesignMatrix, fit_through_origin

    records = _load_records(args)
    columns = _predictor_columns(records, _split_ids(args.predictors))
    response = _response(records, args.response)
    fit = fit_through_origin(DesignMatrix.from_columns(columns), response)
    return render_regression_table(fit, spec)


def _cmd_select(args: argparse.Namespace, spec: RenderSpec) -> str:
    from .selection import (
        DEFAULT_ALPHA_IN,
        DEFAULT_ALPHA_OUT,
        CandidateSet,
        exhaustive_subsets,
        stepwise,
    )

    records = _load_records(args)
    if args.candidates:
        candidate_ids = _split_ids(args.candidates)
    else:
        candidate_ids = tuple(
            vid for vid in CORE_PREDICTORS if vid != args.response
        )
    response = _response(records, args.response)
    cands = CandidateSet.from_columns(
        _predictor_columns(records, candidate_ids), response
    )
    alpha_in = DEFAULT_ALPHA_IN if args.alpha_in is None else args.alpha_in
    # A setting the chosen method would ignore is refused, not dropped.
    if args.method == "stepwise":
        if args.max_size is not None:
            raise DomainError("--max-size applies only to --method exhaustive, not stepwise")
        alpha_out = DEFAULT_ALPHA_OUT if args.alpha_out is None else args.alpha_out
        report = stepwise(cands, alpha_in=alpha_in, alpha_out=alpha_out)
    else:
        if args.alpha_out is not None:
            raise DomainError("--alpha-out applies only to --method stepwise, not exhaustive")
        max_size = len(candidate_ids) if args.max_size is None else args.max_size
        report = exhaustive_subsets(cands, max_size, alpha=alpha_in)
    return render_selection_table(report, spec)


def _cmd_apply(args: argparse.Namespace, spec: RenderSpec) -> str:
    records = _load_records(args)
    results = valuate_all(records)
    aggregates = aggregate(results, records)
    return render_valuation_table(results, records, aggregates, spec)


def _cmd_premiums(args: argparse.Namespace, spec: RenderSpec) -> str:
    records = _load_records(args)
    results = valuate_all(records)
    cases = bundled_transactions()
    premiums = premiums_by_case(cases, results, FxRate(args.fx_rate), stake=args.stake)
    ranges = premium_ranges(premiums)
    return render_premium_table(premiums, ranges, spec)


def _cmd_plot(args: argparse.Namespace, spec: RenderSpec) -> str:
    series: list[ScatterSeries] = []
    bundled = args.bundled or "combined"
    if bundled in ("jleague", "combined") or args.input:
        records = _load_records(args)
        results = valuate_all(records)
        label = "J.League" if not args.input else "Clubs"
        series.append(
            ScatterSeries(
                label=label,
                points=tuple((r.fv1, r.fv2, r.club) for r in results),
            )
        )
    if bundled in ("european", "combined") and not args.input:
        series.append(
            ScatterSeries(
                label="European reference",
                points=tuple(
                    (ref.fv1, ref.fv2, ref.club)
                    for ref in bundled_european_reference()
                ),
            )
        )
    return emit_scatter(series, spec, guide_line=not args.no_guide)


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]):
    # The returned group holds --input; a --bundled added to it excludes it.
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--input", help="club CSV file (default: the bundled J.League table)"
    )
    parser.add_argument("--out", help="output file (default: stdout)")
    if formats:
        parser.add_argument("--config", help="key=value settings file")
        parser.add_argument(
            "--format", choices=formats, help="output format (default: text)"
        )
        parser.set_defaults(scale=RenderSpec.scale)  # tables ignore the scale
    return source


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clubval",
        description="Football club firm-value estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="through-origin regression report")
    _add_common(p_fit, TABLE_FORMATS)
    p_fit.add_argument("--response", required=True, help="response variable id")
    p_fit.add_argument(
        "--predictors", required=True, help="comma-separated predictor ids"
    )
    p_fit.set_defaults(handler=_cmd_fit)

    p_sel = sub.add_parser("select", help="explanatory-variable subset search")
    _add_common(p_sel, TABLE_FORMATS)
    p_sel.add_argument("--response", required=True)
    p_sel.add_argument("--candidates", help="comma-separated candidate ids")
    p_sel.add_argument(
        "--method", choices=("exhaustive", "stepwise"), default="exhaustive"
    )
    p_sel.add_argument("--max-size", type=int, default=None)
    p_sel.add_argument("--alpha-in", type=float, default=None)
    p_sel.add_argument("--alpha-out", type=float, default=None)
    p_sel.set_defaults(handler=_cmd_select)

    p_apply = sub.add_parser("apply", help="valuation table for club records")
    _add_common(p_apply, TABLE_FORMATS).add_argument(
        "--bundled", choices=("jleague",), help="use a bundled dataset"
    )
    p_apply.set_defaults(handler=_cmd_apply)

    p_prem = sub.add_parser("premiums", help="acquisition premium summary")
    _add_common(p_prem, TABLE_FORMATS)
    p_prem.add_argument("--fx-rate", type=float, default=None, help="yen per euro")
    p_prem.add_argument("--stake", type=float, default=None, help="stake fraction")
    p_prem.set_defaults(handler=_cmd_premiums)

    p_plot = sub.add_parser("plot", help="scatter figure as SVG")
    _add_common(p_plot, ()).add_argument(
        "--bundled",
        choices=("jleague", "european", "combined"),
        help="bundled data to draw (default: combined)",
    )
    p_plot.add_argument("--scale", choices=SCALES, default="log10")
    p_plot.add_argument(
        "--no-guide", action="store_true", help="omit the y = x guide line"
    )
    p_plot.set_defaults(handler=_cmd_plot)

    return parser


# bench/tracer.py wraps these three names on this module, so they are served
# from their defining modules. This goes once the tracer's spans move to where
# each function is defined (ROADMAP item 1).
_TRACED = {
    "fit_through_origin": "regression",
    "exhaustive_subsets": "selection",
    "stepwise": "selection",
}


def __getattr__(name: str):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_TRACED[name]}", __package__), name)


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "apply" and not (args.input or args.bundled):
            parser.error("apply needs --input FILE or --bundled jleague")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        write_document(args.handler(args, _resolve_settings(args)), args.out)
    except ClubValError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

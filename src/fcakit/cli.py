"""Command-line front end: ingestion, analysis, description tables, trials.

Subcommands
-----------
analyze    full characteristic-set report (totals, size histograms, indices)
describe   grouped description-class table (CSV) and its re-encoded context
randomize  real-vs-randomized metric distributions over seeded trials
indices    just the linearity/distributivity indices and the concept count

All JSON reports carry ``schema_version`` and validate against the schema
shipped at ``fcakit/schemas/report.schema.json``.  Reports are byte-stable
for fixed inputs, flags, and seed.

Exit codes: 0 ok, 2 input error, 3 capacity exceeded, 4 internal error.
Input errors are bad files and bad option values, checked here before any
work starts; any other exception is an internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, charsets, lattice
from .context import (
    CapacityError,
    ContextFormatError,
    FormalContext,
    parse_burmeister,
    parse_dense_csv,
    serialize_burmeister,
)
from .descriptions import grouped_rows_to_csv, export_description_lattice_context, summarize_descriptions
from .randomize import (
    DEFAULT_METRICS,
    Strategy,
    TrialSummary,
    derive_trial_seed,
    run_trials,
    shuffle,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    """An option value the command cannot run with."""


@dataclass(frozen=True)
class AnalysisReport:
    """Everything `analyze` reports about one dataset."""

    dataset: dict
    totals: dict[str, int]
    histograms: dict[str, dict[int, int]]
    linearity: float
    distributivity: float
    engine_version: str
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "analysis",
            "engine": {"name": "fcakit", "version": self.engine_version},
            "dataset": self.dataset,
            "classes": {
                name: {
                    "total": self.totals[name],
                    "sizes": {str(k): v for k, v in sorted(self.histograms[name].items())},
                }
                for name in sorted(self.totals)
            },
            "concepts": self.totals["intents"],
            "linearity": self.linearity,
            "distributivity": self.distributivity,
            "seed": self.seed,
        }


def _dataset_block(ctx: FormalContext, name: str) -> dict:
    return {
        "name": name,
        "objects": ctx.n_objects,
        "attributes": ctx.n_attrs,
        "crosses": ctx.crosses,
        "density": ctx.density,
    }


_FAMILIES = ("intents", "pseudo_intents", "proper_premises", "keys", "passkeys")


def build_analysis_report(ctx: FormalContext, dataset_name: str) -> AnalysisReport:
    index = charsets.index_classes(ctx)
    return AnalysisReport(
        dataset=_dataset_block(ctx, dataset_name),
        totals={name: len(getattr(index, name)) for name in _FAMILIES},
        histograms={name: index.sizes(name) for name in _FAMILIES},
        linearity=lattice.linearity(index.lattice),
        distributivity=lattice.distributivity(index.lattice),
        engine_version=__version__,
    )


def build_indices_report(ctx: FormalContext, dataset_name: str) -> dict:
    index = charsets.index_classes(ctx)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "indices",
        "engine": {"name": "fcakit", "version": __version__},
        "dataset": _dataset_block(ctx, dataset_name),
        "concepts": len(index.intents),
        "linearity": lattice.linearity(index.lattice),
        "distributivity": lattice.distributivity(index.lattice),
    }


def build_randomization_report(
    ctx: FormalContext,
    dataset_name: str,
    strategy: Strategy,
    n_trials: int,
    seed: int,
    metrics: tuple[str, ...],
) -> dict:
    summaries = run_trials(ctx, strategy, n_trials, seed, metrics)
    digests = []
    for i in range(n_trials):
        trial_seed = derive_trial_seed(seed, i)
        trial_ctx = shuffle(ctx, strategy, trial_seed)
        digests.append(
            {
                "index": i,
                "seed": trial_seed,
                "crosses": trial_ctx.crosses,
                "column_sums": [col.bit_count() for col in trial_ctx.columns],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "randomization",
        "engine": {"name": "fcakit", "version": __version__},
        "dataset": _dataset_block(ctx, dataset_name),
        "strategy": strategy.value,
        "trials": n_trials,
        "seed": seed,
        "prng": {
            "bit_generator": "PCG64",
            "seed_derivation": "seedsequence-spawn-key-v1",
            "numpy_version": np.__version__,
        },
        "metrics": [_summary_dict(s) for s in summaries],
        "trial_digests": digests,
    }


def _summary_dict(summary: TrialSummary) -> dict:
    lo, q1, median, q3, hi = summary.quartiles
    return {
        "metric": summary.metric,
        "size": summary.size,
        "real": summary.real_value,
        "quartiles": {"min": lo, "q1": q1, "median": median, "q3": q3, "max": hi},
        "trial_values": list(summary.trial_values),
    }


def summaries_to_csv(summaries: list[dict]) -> str:
    """Plot-ready table: one row per metric per size with real value and
    quartiles."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("metric", "size", "real", "min", "q1", "median", "q3", "max"))
    for s in summaries:
        q = s["quartiles"]
        size = s["size"]
        size_label = "total" if size is None and s["metric"].endswith("-count") else (
            "" if size is None else size
        )
        writer.writerow(
            (s["metric"], size_label, s["real"], q["min"], q["q1"], q["median"], q["q3"], q["max"])
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Wiring


def _load_context(path: str, fmt: str | None, max_attrs: int | None) -> FormalContext:
    if max_attrs is not None and max_attrs < 0:
        raise InputError("--max-attrs must be non-negative")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContextFormatError(f"{path!r} is not UTF-8 text: {exc}") from None
    if fmt is None:
        suffix = Path(path).suffix.lower()
        if suffix == ".cxt":
            fmt = "cxt"
        elif suffix == ".csv":
            fmt = "csv"
        else:
            raise ContextFormatError(
                f"cannot infer format of {path!r}; pass --format"
            )
    if fmt == "cxt":
        if max_attrs is not None:
            raise ContextFormatError("--max-attrs applies to CSV input only")
        return parse_burmeister(text)
    return parse_dense_csv(text, max_attrs)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    ctx = _load_context(args.input, args.format, args.max_attrs)
    report = build_analysis_report(ctx, Path(args.input).stem)
    _emit(_json_text(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_indices(args: argparse.Namespace) -> int:
    ctx = _load_context(args.input, args.format, args.max_attrs)
    _emit(_json_text(build_indices_report(ctx, Path(args.input).stem)), args.out)
    return EXIT_OK


def _cmd_describe(args: argparse.Namespace) -> int:
    ctx = _load_context(args.input, args.format, args.max_attrs)
    rows = summarize_descriptions(ctx)
    table = grouped_rows_to_csv(rows)
    if args.out is None:
        sys.stdout.write(table)
    else:
        base = Path(args.out)
        base.with_suffix(".csv").write_text(table, encoding="utf-8")
        derived = export_description_lattice_context(rows)
        base.with_suffix(".cxt").write_text(
            serialize_burmeister(derived), encoding="utf-8"
        )
    return EXIT_OK


def _cmd_randomize(args: argparse.Namespace) -> int:
    if args.metrics is None:
        metrics = DEFAULT_METRICS
    else:
        metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
        if not metrics:
            raise InputError("--metrics names no metric")
    unknown = sorted(set(metrics) - set(DEFAULT_METRICS))
    if unknown:
        raise InputError(f"unknown metrics: {unknown}")
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    ctx = _load_context(args.input, args.format, args.max_attrs)
    report = build_randomization_report(
        ctx,
        Path(args.input).stem,
        Strategy(args.strategy),
        args.trials,
        args.seed,
        metrics,
    )
    _emit(_json_text(report), args.out)
    if args.csv_out:
        Path(args.csv_out).write_text(
            summaries_to_csv(report["metrics"]), encoding="utf-8"
        )
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="context file (.cxt or .csv)")
    parser.add_argument(
        "--format", choices=("cxt", "csv"), help="input format (default: by extension)"
    )
    parser.add_argument(
        "--max-attrs",
        type=int,
        metavar="N",
        help="keep only the first N attribute columns (CSV input)",
    )
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcakit",
        description="Characteristic attribute sets, lattice complexity "
        "indices, and null-model comparisons for binary contexts.",
    )
    parser.add_argument("--version", action="version", version=f"fcakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full characteristic-set report (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "describe",
        help="grouped description-class table (CSV; with --out also the "
        "re-encoded context as BASE.cxt)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("randomize", help="real-vs-randomized trial report (JSON)")
    _add_common(p)
    p.add_argument("--strategy", choices=("density", "column"), required=True)
    p.add_argument("--trials", type=int, default=100, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument(
        "--metrics",
        metavar="LIST",
        help=f"comma-separated, non-empty subset of: {', '.join(DEFAULT_METRICS)} "
        "(a name given twice counts once; default: all)",
    )
    p.add_argument(
        "--csv-out", metavar="PATH", help="also write the plot-ready CSV table"
    )
    p.set_defaults(func=_cmd_randomize)

    p = sub.add_parser("indices", help="linearity/distributivity/concept count (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_indices)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContextFormatError, InputError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"fcakit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"fcakit: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as exc:
        traceback.print_exc()
        print(f"fcakit: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

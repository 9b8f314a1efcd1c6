"""Seeded null-model randomization of contexts and repeated-trial summaries.

Two strategies produce randomized counterparts of a real context, both
preserving its shape:

* density: the crosses are redistributed as a uniformly random subset of the
  object x attribute cells, preserving only the total cross count;
* column: each attribute column is independently permuted, preserving every
  per-attribute cross count (the attribute-independence null model).

Randomness comes from numpy's PCG64.  Trial ``i`` of a run seeded with ``s``
uses the first 64-bit word of ``SeedSequence(s, spawn_key=(i,))``, so trials
are reproducible individually and independent of execution order.  The exact
bit streams are those of the installed numpy, which reports its version in
CLI metadata.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import charsets, lattice
from .context import FormalContext


class Strategy(enum.Enum):
    DENSITY = "density"
    COLUMN = "column"


def derive_trial_seed(seed: int, trial: int) -> int:
    """The documented per-trial seed mix: one u64 from a spawned sequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def density_shuffle(ctx: FormalContext, seed: int) -> FormalContext:
    """Redistribute the crosses over a uniform random subset of the cells.

    Shape and total cross count are preserved exactly; every context with
    that shape and count is equally likely.
    """
    n_g, n_m = ctx.n_objects, ctx.n_attrs
    cells = n_g * n_m
    k = ctx.crosses
    if cells == 0 or k == 0 or k == cells:
        return ctx
    chosen = _rng(seed).choice(cells, size=k, replace=False)
    rows = [0] * n_g
    for cell in chosen:
        g, m = divmod(int(cell), n_m)
        rows[g] |= 1 << m
    return FormalContext(ctx.object_names, ctx.attribute_names, tuple(rows))


def column_shuffle(ctx: FormalContext, seed: int) -> FormalContext:
    """Permute the crosses within every column, columns independent.

    Every per-attribute cross count is preserved exactly.  Columns that are
    empty or full are returned as-is without consuming randomness.
    """
    n_g, n_m = ctx.n_objects, ctx.n_attrs
    if n_g <= 1 or n_m == 0:
        return ctx
    rng = _rng(seed)
    rows = [0] * n_g
    for j, col in enumerate(ctx.columns):
        count = col.bit_count()
        if count == 0:
            continue
        if count == n_g:
            placed: Iterable[int] = range(n_g)
        else:
            placed = (int(g) for g in rng.permutation(n_g)[:count])
        bit = 1 << j
        for g in placed:
            rows[g] |= bit
    return FormalContext(ctx.object_names, ctx.attribute_names, tuple(rows))


def shuffle(ctx: FormalContext, strategy: Strategy | str, seed: int) -> FormalContext:
    strategy = Strategy(strategy)
    if strategy is Strategy.DENSITY:
        return density_shuffle(ctx, seed)
    return column_shuffle(ctx, seed)


def summarize(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with linear interpolation between order
    statistics."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty value list")
    q = np.quantile(np.asarray(values, dtype=float), [0.0, 0.25, 0.5, 0.75, 1.0])
    return tuple(float(x) for x in q)  # type: ignore[return-value]


@dataclass(frozen=True)
class TrialSummary:
    """Distribution of one metric over the randomized trials.

    ``size`` is the element size for per-size count metrics and ``None`` for
    class totals and scalar metrics.
    """

    metric: str
    size: int | None
    real_value: float
    trial_values: tuple[float, ...]
    quartiles: tuple[float, float, float, float, float]


# Count metric -> the ``ClassIndex`` family it counts.
_FAMILIES = {
    "intent-count": "intents",
    "pseudo-intent-count": "pseudo_intents",
    "proper-premise-count": "proper_premises",
    "key-count": "keys",
    "passkey-count": "passkeys",
}
COUNT_METRICS = tuple(_FAMILIES)
SCALAR_METRICS = ("linearity", "distributivity")
DEFAULT_METRICS = COUNT_METRICS + SCALAR_METRICS

MetricKey = tuple[str, int | None]


def evaluate_metrics(
    ctx: FormalContext, metrics: Sequence[str] = DEFAULT_METRICS
) -> dict[MetricKey, float]:
    """Evaluate the named metrics on one context.

    Count metrics contribute a ``(name, None)`` total plus one ``(name, k)``
    entry per occupied element size; scalar metrics a single ``(name, None)``.
    """
    unknown = set(metrics) - set(DEFAULT_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    index = charsets.index_classes(ctx)
    out: dict[MetricKey, float] = {}
    for metric in metrics:
        if metric in _FAMILIES:
            family = _FAMILIES[metric]
            out[(metric, None)] = float(len(getattr(index, family)))
            for size, count in index.sizes(family).items():
                out[(metric, size)] = float(count)
        elif metric == "linearity":
            out[(metric, None)] = lattice.linearity(index.lattice)
        else:
            out[(metric, None)] = lattice.distributivity(index.lattice)
    return out


def run_trials(
    ctx: FormalContext,
    strategy: Strategy | str,
    n_trials: int,
    seed: int,
    metrics: Sequence[str] | None = None,
    workers: int = 1,
) -> list[TrialSummary]:
    """Evaluate the metric suite on the real context and ``n_trials``
    randomized counterparts.

    Results are deterministic for fixed ``(ctx, strategy, n_trials, seed,
    metrics)`` regardless of ``workers``: each trial derives its own seed and
    aggregation is by trial index.  A metric named more than once is
    evaluated and reported once, at its first position.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    strategy = Strategy(strategy)
    names = tuple(dict.fromkeys(metrics)) if metrics is not None else DEFAULT_METRICS
    if not names:
        raise ValueError("metrics must name at least one metric")
    real = evaluate_metrics(ctx, names)

    def one_trial(index: int) -> dict[MetricKey, float]:
        trial_ctx = shuffle(ctx, strategy, derive_trial_seed(seed, index))
        return evaluate_metrics(trial_ctx, names)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trial_results = list(pool.map(one_trial, range(n_trials)))
    else:
        trial_results = [one_trial(i) for i in range(n_trials)]

    all_keys = set(real)
    for result in trial_results:
        all_keys.update(result)

    def sort_key(key: MetricKey) -> tuple[int, int, int]:
        metric, size = key
        return (names.index(metric), 0 if size is None else 1, size or 0)

    summaries = []
    for key in sorted(all_keys, key=sort_key):
        metric, size = key
        default = 0.0 if metric in COUNT_METRICS else None
        values = []
        for result in trial_results:
            value = result.get(key, default)
            if value is None:
                raise RuntimeError(f"scalar metric {metric} missing from a trial")
            values.append(value)
        summaries.append(
            TrialSummary(
                metric=metric,
                size=size,
                real_value=float(real.get(key, 0.0)),
                trial_values=tuple(values),
                quartiles=summarize(values),
            )
        )
    return summaries

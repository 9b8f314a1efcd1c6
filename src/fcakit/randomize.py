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

``run_trials`` spreads n + 1 units over k = min(CPUs of the process's
affinity set, n trials) processes, whatever the context: unit 0 is the real
context and unit i + 1 is trial i.  It forks k - 1 children before anything
is evaluated, each pinned to a CPU of its own, and child 0 evaluates the real
context while the caller seeds and shuffles every trial.  The caller then
sends each child the rows of its trials through a pipe and gets its results
back through another.  Results are gathered by unit, so they do not depend on
how many processes ran.  Where ``os.fork`` is missing, every unit runs in the
caller.
"""

from __future__ import annotations

import enum
import math
import os
import pickle
from dataclasses import dataclass
from typing import BinaryIO, Iterable, NoReturn, Sequence

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
    statistics.

    These are the values of ``np.quantile(values, [0, .25, .5, .75, 1])``,
    bit for bit: the same virtual index, neighbours and interpolation as
    numpy's "linear" method, taken from the sorted values.  ``np.quantile``
    itself would import ``numpy.ma`` (through ``np.unique``), which nothing
    else here needs.  Any NaN makes every value NaN, as in numpy.
    """
    if len(values) == 0:
        raise ValueError("cannot summarize an empty value list")
    xs = sorted(float(v) for v in values)
    if any(math.isnan(x) for x in xs):
        return (math.nan,) * 5
    n = len(xs)
    out = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        index = (n - 1) * q
        # From the last value on, numpy takes it as both neighbours, with
        # the lower one at index -1.
        if index >= n - 1:
            below = -1
            a = b = xs[-1]
        else:
            below = math.floor(index)
            a, b = xs[below], xs[below + 1]
        gamma = index - below
        diff = b - a
        out.append(a + diff * gamma if gamma < 0.5 else b - diff * (1 - gamma))
    return tuple(out)  # type: ignore[return-value]


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


# Count metric -> the ``ClassIndex`` family it counts: "intents" is counted
# by "intent-count", "pseudo_intents" by "pseudo-intent-count", and so on.
_FAMILIES = {
    family[:-1].replace("_", "-") + "-count": family
    for family in charsets.ClassIndex.FAMILIES
}
COUNT_METRICS = tuple(_FAMILIES)
SCALAR_METRICS = ("linearity", "distributivity")
DEFAULT_METRICS = COUNT_METRICS + SCALAR_METRICS

MetricKey = tuple[str, int | None]


def _check_metrics(metrics: Iterable[str]) -> None:
    unknown = set(metrics) - set(DEFAULT_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")


def evaluate_metrics(
    ctx: FormalContext, metrics: Sequence[str] = DEFAULT_METRICS
) -> dict[MetricKey, float]:
    """Evaluate the named metrics on one context.

    Count metrics contribute a ``(name, None)`` total plus one ``(name, k)``
    entry per occupied element size; scalar metrics a single ``(name, None)``.
    """
    _check_metrics(metrics)
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


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set, where it has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluate_trials(
    ctx: FormalContext,
    strategy: Strategy,
    n_trials: int,
    seed: int,
    names: Sequence[str],
    k: int,
) -> list[dict[MetricKey, float]]:
    """``evaluate_metrics`` of every unit, in unit order: unit 0 is ``ctx``
    and unit i + 1 is trial i.

    ``run_trials`` passes k = min(CPUs, trials), or 1 without ``os.fork``.
    Stride w of k (units w, w + k, ...) runs in forked child w, the last
    stride here.  A stride whose child cannot be forked also runs here.
    The children are forked before anything is evaluated, so child 0
    evaluates the real context while this process seeds and shuffles every
    trial, in trial order.  Each child then gets the rows of its trials
    through a second pipe, child 0 last, because it reads them only once the
    real context is done.  The trials are shuffled here, not in the
    children, so that every seed and shuffle runs in this one process, in
    trial order, whatever k is: a trace of this process counts all of them,
    as the benchmark's tests pin.  Every child is reaped before this returns
    or raises, and killed first when this process fails.

    Each stride is pinned to its own CPU of the affinity set, which this
    process gets back afterwards.  Where the kernel does not balance load
    between CPUs (a cpuset with ``sched_load_balance`` off), a forked child
    would otherwise stay on its parent's CPU and the two would share it.
    """
    results: list = [None] * (n_trials + 1)
    local = [k - 1]
    # (stride, pid, result pipe read end, rows pipe write end)
    workers: list[tuple[int, int, int, int]] = []
    payloads: list[bytes] = []
    statuses: list[int] = []
    cpus = sorted(os.sched_getaffinity(0)) if k > 1 and hasattr(os, "sched_setaffinity") else []
    try:
        for w in range(k - 1):
            _pin(cpus, w)
            inherited = [fd for _, _, *fds in workers for fd in fds]
            forked = _fork_worker(ctx, range(w, n_trials + 1, k), names, inherited)
            if forked is None:
                local.append(w)
            else:
                workers.append((w, *forked))
        _pin(cpus, k - 1)
        contexts = [ctx]
        contexts += (shuffle(ctx, strategy, derive_trial_seed(seed, i)) for i in range(n_trials))
        for w, _, _, rows_end in reversed(workers):
            _send_rows(rows_end, ctx, [contexts[u] for u in range(w, n_trials + 1, k) if u])
        for w in local:
            results[w::k] = [evaluate_metrics(unit, names) for unit in contexts[w::k]]
        for _, _, result_end, _ in workers:
            with open(result_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        if len(payloads) < len(workers):
            import signal

            for _, pid, _, _ in workers:
                os.kill(pid, signal.SIGKILL)
        for _, pid, result_end, rows_end in workers:
            os.close(result_end)
            os.close(rows_end)
            statuses.append(os.waitpid(pid, 0)[1])
        if cpus:
            os.sched_setaffinity(0, cpus)
    for (w, _, _, _), data, status in zip(workers, payloads, statuses):
        if status != 0:
            raise RuntimeError(f"trial worker {w} left no result (wait status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results[w::k] = value
    return results


def _pin(cpus: list[int], w: int) -> None:
    """Run this process, and the children it forks next, on one CPU."""
    if cpus:
        os.sched_setaffinity(0, {cpus[w % len(cpus)]})


def _row_width(ctx: FormalContext) -> int:
    """Bytes per row on a rows pipe: the row's own bytes, and at least one,
    so that every row has a slice of its own."""
    return max(1, (ctx.n_attrs + 7) // 8)


def _send_rows(fd: int, ctx: FormalContext, trials: Sequence[FormalContext]) -> None:
    """Write the rows of ``trials`` of ``ctx`` into a child's rows pipe,
    little-endian, ``_row_width`` bytes each.

    Compact rows keep the pipe's buffer from filling while child 0 is still
    on the real context.  A child that failed there closed its end unread;
    its result pipe says why.
    """
    width = _row_width(ctx)
    view = memoryview(b"".join(row.to_bytes(width, "little") for t in trials for row in t.rows))
    try:
        while view:
            view = view[os.write(fd, view) :]
    except BrokenPipeError:
        pass


def _read_rows(ctx: FormalContext, pipe: BinaryIO, count: int) -> list[FormalContext]:
    """The ``count`` trials of ``ctx`` whose rows ``_send_rows`` wrote."""
    width = _row_width(ctx)
    n_g = ctx.n_objects
    data = pipe.read(count * n_g * width)
    rows = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return [
        FormalContext(ctx.object_names, ctx.attribute_names, rows[t * n_g : (t + 1) * n_g])
        for t in range(count)
    ]


def _fork_worker(
    ctx: FormalContext, units: range, names: Sequence[str], inherited: list[int]
) -> tuple[int, int, int] | None:
    """Fork a child that evaluates ``units``; its (pid, result pipe read
    end, rows pipe write end), or None when no pipes or process can be had.

    ``inherited`` are the pipe ends of earlier children, which the new child
    closes, so that only this process holds each child's pipes.  The only
    other thread of a CLI process is numpy's OpenBLAS pool, which registers
    its own fork handler; the metrics call no BLAS routine.
    """
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    result_read, result_write, rows_read, rows_write = fds
    if pid == 0:
        _worker(ctx, units, names, result_write, rows_read, [result_read, rows_write, *inherited])
    os.close(result_write)
    os.close(rows_read)
    return pid, result_read, rows_write


def _worker(
    ctx: FormalContext,
    units: range,
    names: Sequence[str],
    result_end: int,
    rows_end: int,
    inherited: list[int],
) -> NoReturn:
    """Body of a forked child: evaluate the real context if unit 0 is among
    ``units``, then read and evaluate the trials of the others, and pickle
    (True, results) or (False, exception) into the result pipe.  It leaves
    only through ``os._exit``, so it never returns into the caller's code or
    flushes the parent's stdio; exit status 1 means nothing complete was
    written."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            results = [evaluate_metrics(ctx, names)] if units[0] == 0 else []
            with open(rows_end, "rb") as pipe:
                trials = _read_rows(ctx, pipe, len(units) - len(results))
            payload = (True, results + [evaluate_metrics(t, names) for t in trials])
        except BaseException as exc:
            payload = (False, exc)
        with open(result_end, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def run_trials(
    ctx: FormalContext,
    strategy: Strategy | str,
    n_trials: int,
    seed: int,
    metrics: Sequence[str] | None = None,
) -> list[TrialSummary]:
    """Evaluate the metric suite on the real context and ``n_trials``
    randomized counterparts.

    Results are deterministic for fixed ``(ctx, strategy, n_trials, seed,
    metrics)``: each trial derives its own seed and aggregation is by trial
    index.  A metric named more than once is evaluated and reported once, at
    its first position.

    The real context is unit 0 and trial i is unit i + 1.  With k =
    min(CPUs in the affinity set, ``n_trials``) > 1, forked child w
    evaluates units w, w + k, ... and this process the last stride; k is 1
    where ``os.fork`` is missing.  So the process layout depends only on the
    trial count and the CPUs, never on the context or the host's speed.
    Child 0 evaluates the real context while every trial is seeded and
    shuffled here, in trial order, so that a trace of this process counts
    them all; each child then gets the rows of its trials through a pipe.
    Metric names are checked before anything is
    forked or shuffled.  An exception raised in a child is raised here
    unchanged, after every child has been reaped; a child that leaves no
    result raises ``RuntimeError``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    strategy = Strategy(strategy)
    names = tuple(dict.fromkeys(metrics)) if metrics is not None else DEFAULT_METRICS
    if not names:
        raise ValueError("metrics must name at least one metric")
    _check_metrics(names)
    k = min(_cpu_count(), n_trials) if hasattr(os, "fork") else 1
    real, *trial_results = _evaluate_trials(ctx, strategy, n_trials, seed, names, k)

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

"""Per-layer tracing of one fcakit job, from outside the package.

``Tracer.install`` replaces the public functions of each fcakit layer module
with wrappers.  A function is replaced under every module attribute that
holds it, so names re-imported by name (``cli.run_trials``,
``charsets.closure``, ``descriptions.index_classes``) are traced too.

Two kinds of wrapper exist:

* a span records ``{name, start, end, parent, job}`` for each call;
* a tally, for hot functions such as ``closure``, only adds the call and its
  duration to a total kept per (enclosing span, name).

Spans stay in memory until the job ends.  A span's self time is its
duration minus the durations of its child spans and of the tallies made
directly under it.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Iterable

MODULES = (
    "fcakit",
    "fcakit.cli",
    "fcakit.context",
    "fcakit.charsets",
    "fcakit.lattice",
    "fcakit.descriptions",
    "fcakit.randomize",
)

# Layer metric name -> (module, attribute) of each function it wraps.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("fcakit.cli", "main"),),
    "cli.report": (
        ("fcakit.cli", "build_analysis_report"),
        ("fcakit.cli", "build_indices_report"),
        ("fcakit.cli", "build_randomization_report"),
    ),
    "context.parse": (
        ("fcakit.context", "parse_burmeister"),
        ("fcakit.context", "parse_dense_csv"),
    ),
    "charsets.intents": (("fcakit.charsets", "enumerate_intents"),),
    "charsets.basis": (("fcakit.charsets", "enumerate_pseudo_intents"),),
    "charsets.keys": (("fcakit.charsets", "enumerate_keys"),),
    "charsets.passkeys": (("fcakit.charsets", "enumerate_passkeys"),),
    "charsets.proper_premises": (("fcakit.charsets", "enumerate_proper_premises"),),
    "charsets.min_key_sizes": (("fcakit.charsets", "min_key_sizes"),),
    "charsets.index": (("fcakit.charsets", "index_classes"),),
    "lattice.build": (("fcakit.lattice", "build_lattice"),),
    "lattice.linearity": (("fcakit.lattice", "linearity"),),
    "lattice.distributivity": (("fcakit.lattice", "distributivity"),),
    "descriptions.summarize": (("fcakit.descriptions", "summarize_descriptions"),),
    "descriptions.export": (
        ("fcakit.descriptions", "export_description_lattice_context"),
        ("fcakit.descriptions", "grouped_rows_to_csv"),
    ),
    "randomize.trials": (("fcakit.randomize", "run_trials"),),
    "randomize.evaluate": (("fcakit.randomize", "evaluate_metrics"),),
    "randomize.shuffle": (("fcakit.randomize", "shuffle"),),
}

TALLIES: dict[str, tuple[tuple[str, str], ...]] = {
    "context.closure": (("fcakit.context", "closure"),),
    "randomize.seed": (("fcakit.randomize", "derive_trial_seed"),),
}


def _pairs(args: tuple, result: object) -> int:
    n = len(args[0])
    return n * (n - 1) // 2


def _size(args: tuple, result: object) -> int:
    return len(result)


# Counters taken from a traced call: (span name, counter, f(args, result)).
COUNTERS: tuple[tuple[str, str, Callable[[tuple, object], int]], ...] = (
    ("charsets.intents", "charsets.intents", _size),
    ("charsets.basis", "charsets.pseudo_intents", _size),
    ("charsets.keys", "charsets.keys", _size),
    ("charsets.proper_premises", "charsets.proper_premises", _size),
    ("descriptions.summarize", "descriptions.rows", _size),
    ("lattice.linearity", "lattice.pairs", _pairs),
    ("lattice.distributivity", "lattice.pairs", _pairs),
)


class Tracer:
    """Spans, tallies and counters of one job."""

    def __init__(self, job: int = 0) -> None:
        self.job = job
        self.spans: list[dict] = []
        self.tallies: dict[tuple[int | None, str], list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, counters: Iterable[tuple[str, Callable]] = ()) -> Callable:
        counters = tuple(counters)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "job": self.job}
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            for metric, measure in counters:
                self.counters[metric] = self.counters.get(metric, 0) + measure(args, result)
            return result

        return wrapper

    def tally(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (self._stack[-1] if self._stack else None, name)
                entry = self.tallies.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += time.perf_counter() - start

        return wrapper

    def install(self) -> None:
        """Wrap every function of ``SPANS`` and ``TALLIES`` in place."""
        modules = [importlib.import_module(m) for m in MODULES]
        for table, make in ((SPANS, self._span_for), (TALLIES, self.tally)):
            for name, targets in table.items():
                for module_name, attr in targets:
                    original = getattr(importlib.import_module(module_name), attr)
                    wrapper = make(name, original)
                    for module in modules:
                        for key in [k for k, v in vars(module).items() if v is original]:
                            setattr(module, key, wrapper)

    def _span_for(self, name: str, fn: Callable) -> Callable:
        return self.span(name, fn, [(c, f) for s, c, f in COUNTERS if s == name])

    def record(self) -> dict:
        """Everything traced, as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "tallies": [
                {"parent": parent, "name": name, "calls": calls, "seconds": seconds}
                for (parent, name), (calls, seconds) in self.tallies.items()
            ],
            "counters": self.counters,
        }


def self_times(spans: list[dict], tallies: list[dict]) -> list[float]:
    """Self time of each span: its duration minus its children's and the
    tallies recorded directly under it."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    for t in tallies:
        if t["parent"] is not None:
            out[t["parent"]] -= t["seconds"]
    return out

"""Shared fixtures: canonical small contexts, fuzz corpora, dataset loaders."""

from __future__ import annotations

import csv
import faulthandler
import io
import os
import random
from pathlib import Path
from typing import Iterable, Sequence

import pytest
from hypothesis import strategies as st

from fcakit import FormalContext, parse_dense_csv

DATA_DIR = Path(__file__).parent / "data"


def ctx_of(attrs: Sequence[str], rows: dict[str, Iterable[str]]) -> FormalContext:
    """Build a context from single-token attribute names and per-object
    attribute collections."""
    attr_pos = {a: i for i, a in enumerate(attrs)}
    masks = tuple(
        sum(1 << attr_pos[a] for a in row_attrs) for row_attrs in rows.values()
    )
    return FormalContext(tuple(rows), tuple(attrs), masks)


def names(ctx: FormalContext, masks: Iterable[int]) -> set[frozenset[str]]:
    return {frozenset(ctx.attr_names(m)) for m in masks}


def toy_context() -> FormalContext:
    """The four-geometric-figures context (fifth attribute column empty)."""
    return ctx_of("abcde", {"g1": "ad", "g2": "ac", "g3": "bc", "g4": "bcd"})


def nominal_context(n: int) -> FormalContext:
    """Diagonal context: object i has exactly attribute i."""
    return FormalContext(
        tuple(f"g{i}" for i in range(n)),
        tuple(f"m{i}" for i in range(n)),
        tuple(1 << i for i in range(n)),
    )


def staircase_context(n: int) -> FormalContext:
    """Lower-triangular context whose lattice is a chain of n concepts."""
    return FormalContext(
        tuple(f"g{i}" for i in range(n)),
        tuple(f"m{i}" for i in range(n)),
        tuple((1 << (i + 1)) - 1 for i in range(n)),
    )


def contranominal_context(n: int) -> FormalContext:
    """Complement-of-diagonal context: every attribute subset is closed."""
    full = (1 << n) - 1
    return FormalContext(
        tuple(f"g{i}" for i in range(n)),
        tuple(f"m{i}" for i in range(n)),
        tuple(full ^ (1 << i) for i in range(n)),
    )


def grouped_demo_context() -> FormalContext:
    """An 8-object, 9-attribute, 35-cross context (a grouped description
    table re-encoded as a context); used as a small randomization subject."""
    columns = (
        "is generator",
        "is closed descr",
        "is minimal gen",
        "is minimum gen",
        "is pseudo intent",
        "is proper premise",
        "is key",
        "is passkey",
        "is intent",
    )
    patterns = {
        "67": "111100111",
        "45": "110000001",
        "41": "101111110",
        "125": "101101110",
        "1": "101011100",
        "25": "101001100",
        "33": "100010000",
        "1048239": "100000000",
    }
    rows = tuple(
        sum(1 << j for j, ch in enumerate(bits) if ch == "1")
        for bits in patterns.values()
    )
    return FormalContext(tuple(patterns), columns, rows)


def fuzz_contexts(
    count: int,
    max_objects: int = 8,
    max_attrs: int = 10,
    seed: int = 0xFCA,
    min_objects: int = 0,
    min_attrs: int = 0,
) -> list[FormalContext]:
    """Deterministic corpus of random contexts, degenerate shapes included."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        n_m = rnd.randint(min_attrs, max_attrs)
        n_g = rnd.randint(min_objects, max_objects)
        density = rnd.uniform(0.1, 0.9)
        rows = tuple(
            sum(1 << j for j in range(n_m) if rnd.random() < density)
            for _ in range(n_g)
        )
        out.append(
            FormalContext(
                tuple(f"g{k}" for k in range(n_g)),
                tuple(f"m{k}" for k in range(n_m)),
                rows,
            )
        )
    return out


def realistic_context(seed: int = 403) -> FormalContext:
    """A seeded 403-object x 16-attribute context at realistic scale.

    403 objects is the Bob Ross episode count.  Each column's density is
    drawn from Beta(1, 4) (mean 0.2), then each of its cells is a cross with
    that probability.  Small enough for the brute-force oracles.
    """
    rnd = random.Random(seed)
    n_g, n_m = 403, 16
    densities = [rnd.betavariate(1, 4) for _ in range(n_m)]
    rows = tuple(
        sum(1 << j for j, d in enumerate(densities) if rnd.random() < d)
        for _ in range(n_g)
    )
    return FormalContext(
        tuple(f"g{k}" for k in range(n_g)),
        tuple(f"m{k}" for k in range(n_m)),
        rows,
    )


@st.composite
def contexts(draw, max_objects: int = 6, max_attrs: int = 8):
    n_m = draw(st.integers(0, max_attrs))
    n_g = draw(st.integers(0, max_objects))
    rows = tuple(
        draw(st.integers(0, (1 << n_m) - 1)) for _ in range(n_g)
    )
    return FormalContext(
        tuple(f"g{k}" for k in range(n_g)),
        tuple(f"m{k}" for k in range(n_m)),
        rows,
    )


@pytest.fixture
def toy() -> FormalContext:
    return toy_context()


# The slowest test takes about a second.
TEST_TIME_LIMIT_S = 60
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so this copies
    # the terminal's stderr rather than a capture file.
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _exit_on_hang(request):
    """End the whole run with a non-zero status if one test runs too long.

    A kernel that never reaches its fixpoint must fail the suite, not hang
    it.  Every thread's traceback goes to the terminal's stderr first.
    """
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


# ---------------------------------------------------------------------------
# Bob Ross episode-elements dataset (user-supplied; see tests/data/README.md)

BOBROSS_ENV = "BOBROSS_CSV"
_BOBROSS_CANDIDATES = (
    DATA_DIR / "elements-by-episode.csv",
    DATA_DIR / "bob-ross" / "elements-by-episode.csv",
)


def bobross_csv_path() -> Path | None:
    env = os.environ.get(BOBROSS_ENV)
    if env:
        path = Path(env)
        if path.is_file():
            return path
    for candidate in _BOBROSS_CANDIDATES:
        if candidate.is_file():
            return candidate
    return None


def prepare_bobross_text(raw_text: str) -> str:
    """Normalize the published CSV: drop the non-binary TITLE column if
    present, keep the episode id as the object column."""
    records = list(csv.reader(io.StringIO(raw_text)))
    if records and len(records[0]) > 1 and records[0][1].strip().upper() == "TITLE":
        records = [[cells[0]] + cells[2:] for cells in records]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(records)
    return out.getvalue()


def bobross_context(max_attrs: int = 20) -> FormalContext:
    path = bobross_csv_path()
    if path is None:
        pytest.skip(
            "Bob Ross episode-elements CSV not available; place "
            "elements-by-episode.csv under tests/data/ or set "
            f"{BOBROSS_ENV} (see tests/data/README.md)"
        )
    text = prepare_bobross_text(path.read_text(encoding="utf-8"))
    return parse_dense_csv(text, max_attrs=max_attrs)


# ---------------------------------------------------------------------------
# One pass/fail line per acceptance criterion


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    emit = report.when == "call" or (report.when == "setup" and report.skipped)
    if emit:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"\n[acceptance] {name}: {status}")

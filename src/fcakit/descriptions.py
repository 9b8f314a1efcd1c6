"""The descriptions context: classify every attribute subset, group, export.

Every subset of the attribute set ("description") is classified against the
characteristic families of the context, giving a derived context whose
objects are the 2^|M| descriptions and whose attributes are the class flags.
Identical flag combinations are grouped with multiplicities; the grouped
rows can be exported as a CSV table or re-encoded as a small formal context
whose lattice shows how the families overlap.

The overwhelming "generator only" bulk is never materialized: grouping works
from the (tiny) flagged families plus one subtraction.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .charsets import CharFlags, ClassIndex, index_classes
from .context import (
    AttrSet,
    CapacityError,
    FormalContext,
    POWERSET_SCAN_LIMIT,
    iter_lectic_masks,
)

# Column labels of the grouped table, aliases included.  The alias triples
# (closed descr = intent, minimal gen = key, minimum gen = passkey) are kept
# as separate columns because downstream lattices are built over all nine.
TABLE_COLUMNS = (
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


@dataclass(frozen=True)
class DescriptionRow:
    """One distinct flag combination and how many descriptions carry it."""

    flags: CharFlags
    count: int


def flags_pattern(flags: CharFlags) -> tuple[bool, ...]:
    """The nine-column presence pattern of a flag combination.

    The generator column is always set: every subset generates the intent
    it closes to.
    """
    return (
        True,
        flags.is_intent,
        flags.is_key,
        flags.is_passkey,
        flags.is_pseudo_intent,
        flags.is_proper_premise,
        flags.is_key,
        flags.is_passkey,
        flags.is_intent,
    )


def _pattern_rank(flags: CharFlags) -> int:
    rank = 0
    for present in flags_pattern(flags):
        rank = (rank << 1) | int(present)
    return rank


def _flag_lookup(index: ClassIndex) -> tuple[dict[int, CharFlags], CharFlags]:
    """Mask -> flags for every flagged subset, plus the generator-only default.

    Flag instances are interned per combination so that streaming 2^|M|
    records allocates nothing per record.
    """
    intents = set(index.intents)
    pseudo = set(index.pseudo_intents)
    keys = set(index.keys)
    passkeys = set(index.passkeys)
    proper = set(index.proper_premises)
    interned: dict[tuple[bool, ...], CharFlags] = {}
    lookup: dict[int, CharFlags] = {}
    for mask in intents | pseudo | keys:
        combo = (
            mask in intents,
            mask in pseudo,
            mask in keys,
            mask in passkeys,
            mask in proper,
        )
        flags = interned.get(combo)
        if flags is None:
            flags = CharFlags(
                is_intent=combo[0],
                is_pseudo_intent=combo[1],
                is_key=combo[2],
                is_passkey=combo[3],
                is_proper_premise=combo[4],
            )
            interned[combo] = flags
        lookup[mask] = flags
    return lookup, CharFlags()


def build_descriptions_context(
    ctx: FormalContext, index: ClassIndex | None = None
) -> Iterator[tuple[AttrSet, CharFlags]]:
    """Stream one classified record per attribute subset, in lectic order."""
    n = ctx.n_attrs
    if n > POWERSET_SCAN_LIMIT:
        raise CapacityError(
            f"descriptions context over {n} attributes exceeds the "
            f"{POWERSET_SCAN_LIMIT}-attribute limit"
        )
    lookup, default = _flag_lookup(index if index is not None else index_classes(ctx))
    get = lookup.get
    for mask in iter_lectic_masks(n):
        yield mask, get(mask, default)


def group_descriptions(
    records: Iterable[tuple[AttrSet, CharFlags]]
) -> list[DescriptionRow]:
    """Reduce a description stream to rows of distinct flag combinations.

    Rows are ordered by descending column pattern (generator column most
    significant), ties by descending count, which puts the fully-flagged
    combinations first and the generator-only bulk last.
    """
    counts: Counter[CharFlags] = Counter()
    for _, flags in records:
        counts[flags] += 1
    rows = [DescriptionRow(flags, count) for flags, count in counts.items()]
    rows.sort(key=lambda r: (_pattern_rank(r.flags), r.count), reverse=True)
    return rows


def summarize_descriptions(
    ctx: FormalContext, index: ClassIndex | None = None
) -> list[DescriptionRow]:
    """Grouped description rows without walking the power set.

    Equivalent to ``group_descriptions(build_descriptions_context(ctx))``:
    only flagged subsets are touched, the generator-only bulk is a count.
    """
    n = ctx.n_attrs
    if n > POWERSET_SCAN_LIMIT:
        raise CapacityError(
            f"descriptions context over {n} attributes exceeds the "
            f"{POWERSET_SCAN_LIMIT}-attribute limit"
        )
    lookup, default = _flag_lookup(index if index is not None else index_classes(ctx))
    counts: Counter[CharFlags] = Counter(lookup.values())
    bulk = (1 << n) - len(lookup)
    if bulk:
        counts[default] += bulk
    rows = [DescriptionRow(flags, count) for flags, count in counts.items()]
    rows.sort(key=lambda r: (_pattern_rank(r.flags), r.count), reverse=True)
    return rows


def export_description_lattice_context(rows: Iterable[DescriptionRow]) -> FormalContext:
    """Re-encode grouped rows as a formal context over the nine columns.

    Objects are named by their multiplicities (deduplicated with ``#k``
    suffixes when two combinations share a count).
    """
    names: list[str] = []
    masks: list[int] = []
    seen: Counter[str] = Counter()
    for row in rows:
        base = str(row.count)
        seen[base] += 1
        names.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
        mask = 0
        for j, present in enumerate(flags_pattern(row.flags)):
            if present:
                mask |= 1 << j
        masks.append(mask)
    return FormalContext(tuple(names), TABLE_COLUMNS, tuple(masks))


def grouped_rows_to_csv(rows: Iterable[DescriptionRow]) -> str:
    """Grouped rows as CSV: a count column then the nine class columns."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("count",) + TABLE_COLUMNS)
    for row in rows:
        writer.writerow(
            [row.count] + ["X" if present else "" for present in flags_pattern(row.flags)]
        )
    return out.getvalue()

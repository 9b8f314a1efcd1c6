"""The descriptions table: every attribute subset grouped by its class flags.

Every subset of the attribute set ("description") belongs to some of the
characteristic families of the context.  ``summarize_descriptions`` groups
the 2^|M| descriptions by their flag combination, with multiplicities; the
grouped rows can be exported as a CSV table or re-encoded as a small formal
context whose lattice shows how the families overlap.

The power set is never walked: the flagged subsets are the members of the
(small) intent, pseudo-intent and key families, and the "generator only"
bulk is the rest, one subtraction.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .charsets import CharFlags, index_classes
from .context import CapacityError, FormalContext, POWERSET_SCAN_LIMIT

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


def summarize_descriptions(ctx: FormalContext) -> list[DescriptionRow]:
    """One row per distinct flag combination of the subsets of ``ctx``.

    Rows are ordered by descending column pattern (generator column most
    significant), which puts the fully flagged combinations first and the
    generator-only bulk last.  Contexts too wide for a power-set table are
    refused before any family is computed.
    """
    n = ctx.n_attrs
    if n > POWERSET_SCAN_LIMIT:
        raise CapacityError(
            f"descriptions context over {n} attributes exceeds the "
            f"{POWERSET_SCAN_LIMIT}-attribute limit"
        )
    index = index_classes(ctx)
    intents = set(index.intents)
    pseudo = set(index.pseudo_intents)
    keys = set(index.keys)
    passkeys = set(index.passkeys)
    proper = set(index.proper_premises)
    flagged = intents | pseudo | keys
    combos = Counter(
        (m in intents, m in pseudo, m in keys, m in passkeys, m in proper)
        for m in flagged
    )
    rows = [DescriptionRow(CharFlags(*combo), count) for combo, count in combos.items()]
    bulk = (1 << n) - len(flagged)
    if bulk:
        rows.append(DescriptionRow(CharFlags(), bulk))
    rows.sort(key=lambda r: flags_pattern(r.flags), reverse=True)
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

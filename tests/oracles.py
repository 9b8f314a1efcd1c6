"""Literal brute-force oracles for every characteristic family.

Test machinery, not library code: each family is decided by quantifying its
defining condition over the power set, independently of the fast
enumerations in ``fcakit.charsets``.  ``classify`` and ``is_proper_premise``
decide the flags of one subset from the definitions, through ``closure``
and ``extent``.  ``build_descriptions_context`` and ``group_descriptions``
walk the whole power set, the twin of ``summarize_descriptions``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from fcakit.charsets import CharFlags, ClassIndex, index_classes, min_key_sizes
from fcakit.context import (
    AttrSet,
    CapacityError,
    FormalContext,
    POWERSET_SCAN_LIMIT,
    bit_reverse,
    closure,
    extent,
    iter_bits,
    lectic_sorted,
)
from fcakit.descriptions import DescriptionRow, flags_pattern

BRUTE_FORCE_CLASSES = (
    "generator",
    "intent",
    "pseudo_intent",
    "key",
    "passkey",
    "proper_premise",
)


def iter_lectic_masks(width: int) -> Iterator[int]:
    """Yield every subset of a ``width``-attribute set in lectic order."""
    if width > POWERSET_SCAN_LIMIT:
        raise CapacityError(
            f"power-set scan over {width} attributes exceeds the "
            f"{POWERSET_SCAN_LIMIT}-attribute limit"
        )
    yield from lectic_sorted(range(1 << width), width)


def _powerset_tables(ctx: FormalContext) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Extent and closure of every subset, by one dynamic-programming pass."""
    n = ctx.n_attrs
    masks = list(iter_lectic_masks(n))
    cols = ctx.columns
    ext: dict[int, int] = {0: ctx.object_universe}
    for mask in range(1, 1 << n):
        low = mask & -mask
        ext[mask] = ext[mask ^ low] & cols[low.bit_length() - 1]
    cl: dict[int, int] = {}
    for mask in masks:
        e = ext[mask]
        c = 0
        for j in range(n):
            if cols[j] & e == e:
                c |= 1 << j
        cl[mask] = c
    return masks, ext, cl


def brute_force_all(ctx: FormalContext) -> dict[str, list[AttrSet]]:
    """Every characteristic family by literal definitional scan.

    Independent of the fast enumerations: each family is decided by
    quantifying the defining condition over the power set.
    """
    masks, ext, cl = _powerset_tables(ctx)
    intents = [m for m in masks if cl[m] == m]

    pseudo: list[tuple[int, int]] = []
    for mask in sorted(masks, key=lambda m: (m.bit_count(), bit_reverse(m, ctx.n_attrs))):
        c = cl[mask]
        if c == mask:
            continue
        if all(
            q_cl | mask == mask
            for q, q_cl in pseudo
            if q & mask == q and q != mask
        ):
            pseudo.append((mask, c))
    pseudo_masks = lectic_sorted([p for p, _ in pseudo], ctx.n_attrs)

    keys = [
        m
        for m in masks
        if all(ext[m ^ (1 << j)] != ext[m] for j in iter_bits(m))
    ]

    smallest: dict[int, int] = {}
    for m in masks:
        c = cl[m]
        if c not in smallest or m.bit_count() < smallest[c]:
            smallest[c] = m.bit_count()
    passkeys = [m for m in keys if m.bit_count() == smallest[cl[m]]]

    proper = []
    for m in masks:
        u = m
        for j in iter_bits(m):
            u |= cl[m ^ (1 << j)]
        if u != cl[m]:
            proper.append(m)

    return {
        "generator": masks,
        "intent": intents,
        "pseudo_intent": pseudo_masks,
        "key": keys,
        "passkey": passkeys,
        "proper_premise": proper,
    }


def brute_force_class(ctx: FormalContext, class_name: str) -> list[AttrSet]:
    """One characteristic family by literal scan; see ``brute_force_all``."""
    if class_name not in BRUTE_FORCE_CLASSES:
        raise ValueError(
            f"unknown class {class_name!r}, expected one of {BRUTE_FORCE_CLASSES}"
        )
    return brute_force_all(ctx)[class_name]


def is_proper_premise(ctx: FormalContext, attrs: AttrSet) -> bool:
    """True iff ``attrs`` closes to something no proper subset accounts for.

    The test is whether the union of ``attrs`` with the closures of its
    one-element-removed subsets falls short of the closure of ``attrs``.
    """
    u = attrs
    for j in iter_bits(attrs):
        u |= closure(ctx, attrs ^ (1 << j))
    return u != closure(ctx, attrs)


def classify(
    ctx: FormalContext,
    attrs: AttrSet,
    pseudo_intents: Iterable[AttrSet],
    min_key_size_index: dict[AttrSet, int] | None = None,
) -> CharFlags:
    """Evaluate all characteristic flags of one attribute subset.

    ``pseudo_intents`` must be the complete pseudo-intent family of the
    context (the pseudo-intent property is not locally decidable).  The
    passkey flag needs the minimum key size of the subset's closure class
    (a smallest generator is always a key); pass ``min_key_size_index``
    (``min_key_sizes``) to avoid recomputing it per call.
    """
    pseudo = (
        pseudo_intents
        if isinstance(pseudo_intents, (set, frozenset))
        else set(pseudo_intents)
    )
    c = closure(ctx, attrs)
    e = extent(ctx, attrs)
    is_key = all(extent(ctx, attrs ^ (1 << j)) != e for j in iter_bits(attrs))
    is_passkey = False
    if is_key:
        if min_key_size_index is None:
            min_key_size_index = min_key_sizes(ctx)
        is_passkey = attrs.bit_count() == min_key_size_index[c]
    return CharFlags(
        is_intent=c == attrs,
        is_pseudo_intent=attrs in pseudo,
        is_key=is_key,
        is_passkey=is_passkey,
        is_proper_premise=is_proper_premise(ctx, attrs),
    )


def build_descriptions_context(
    ctx: FormalContext, index: ClassIndex | None = None
) -> Iterator[tuple[AttrSet, CharFlags]]:
    """One classified record per attribute subset, in lectic order.

    Each subset's flags are its memberships in the families of ``index``.
    """
    masks = list(iter_lectic_masks(ctx.n_attrs))
    if index is None:
        index = index_classes(ctx)
    families = (
        set(index.intents),
        set(index.pseudo_intents),
        set(index.keys),
        set(index.passkeys),
        set(index.proper_premises),
    )
    for mask in masks:
        yield mask, CharFlags(*(mask in family for family in families))


def group_descriptions(
    records: Iterable[tuple[AttrSet, CharFlags]]
) -> list[DescriptionRow]:
    """Rows of distinct flag combinations, by descending column pattern."""
    counts = Counter(flags for _, flags in records)
    rows = [DescriptionRow(flags, count) for flags, count in counts.items()]
    rows.sort(key=lambda r: flags_pattern(r.flags), reverse=True)
    return rows

"""Literal brute-force oracles for every characteristic family.

Test machinery, not library code: each family is decided by quantifying its
defining condition over the power set, independently of the fast
enumerations in ``fcakit.charsets``.
"""

from __future__ import annotations

from fcakit.context import (
    AttrSet,
    CapacityError,
    FormalContext,
    POWERSET_SCAN_LIMIT,
    bit_reverse,
    iter_bits,
    iter_lectic_masks,
    lectic_sorted,
)

BRUTE_FORCE_CLASSES = (
    "generator",
    "intent",
    "pseudo_intent",
    "key",
    "passkey",
    "proper_premise",
)


def _powerset_tables(ctx: FormalContext) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Extent and closure of every subset, by one dynamic-programming pass."""
    n = ctx.n_attrs
    if n > POWERSET_SCAN_LIMIT:
        raise CapacityError(
            f"brute-force scan over {n} attributes exceeds the "
            f"{POWERSET_SCAN_LIMIT}-attribute limit"
        )
    cols = ctx.columns
    ext: dict[int, int] = {0: ctx.object_universe}
    for mask in range(1, 1 << n):
        low = mask & -mask
        ext[mask] = ext[mask ^ low] & cols[low.bit_length() - 1]
    masks = list(iter_lectic_masks(n))
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

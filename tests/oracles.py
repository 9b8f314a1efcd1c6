"""Literal brute-force oracles for every characteristic family.

Test machinery, not library code: each family is decided by quantifying its
defining condition over the power set, independently of the fast
enumerations in ``fcakit.charsets``.  ``classify`` and ``is_proper_premise``
decide the flags of one subset from the definitions, through ``closure``
and ``extent``.  ``build_descriptions_context`` and ``group_descriptions``
walk the whole power set, the twin of ``summarize_descriptions``.
``lectic_sorted`` sorts Python ints by their ``bit_reverse`` rank, the twin
of ``fcakit.context.lectic_order``.  ``columns`` transposes a context bit
by bit, the twin of ``FormalContext.columns``, and ``intent_of`` tests one
cross at a time, the twin of ``fcakit.context.intent_of``, which every
``closure`` the oracles take goes through.

``scalar_keys`` and ``pair_loop`` are the Python twins of the library's
array paths, at any width: the levelwise key search with the family's
closures, passkeys, proper premises and quasi-closed keys, the twin of
``enumerate_keys``; and one loop over the pairs of a family for both
lattice counts, the twin of ``lattice.pair_counts``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
)
from fcakit.context import intent_of as context_intent_of
from fcakit.descriptions import DescriptionRow, flags_pattern

BRUTE_FORCE_CLASSES = (
    "generator",
    "intent",
    "pseudo_intent",
    "key",
    "passkey",
    "proper_premise",
)


def columns(ctx: FormalContext) -> tuple[int, ...]:
    """Per-attribute object masks, set one cross at a time."""
    cols = [0] * ctx.n_attrs
    for g, row in enumerate(ctx.rows):
        bit = 1 << g
        for j in iter_bits(row):
            cols[j] |= bit
    return tuple(cols)


def intent_of(ctx: FormalContext, objs: int) -> AttrSet:
    """Attribute j is in the intent iff every object of ``objs`` has it."""
    return sum(
        1 << j
        for j in range(ctx.n_attrs)
        if all(ctx.rows[g] >> j & 1 for g in iter_bits(objs))
    )


def lectic_sorted(masks: Iterable[int], width: int) -> list[int]:
    """``masks`` sorted by their ``bit_reverse`` rank, the twin of
    ``fcakit.context.lectic_order``."""
    return sorted(masks, key=lambda m: bit_reverse(m, width))


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
    cols = columns(ctx)
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


def scalar_keys(ctx: FormalContext) -> ScalarKeys:
    """The levelwise key search on Python ints, any width.

    Level ``k + 1`` extends each level-``k`` key by every attribute above
    its top bit, and keeps the candidates whose extent differs from that of
    each one-removed subset, all of which must be keys of level ``k``.
    """
    n = ctx.n_attrs
    cols = ctx.columns
    extents: dict[int, int] = {0: ctx.object_universe}
    prev = extents.copy()
    while prev:
        cur: dict[int, int] = {}
        for kmask, kext in prev.items():
            for m in range(kmask.bit_length(), n):
                cand = kmask | (1 << m)
                cext = kext & cols[m]
                if cext == kext:
                    continue
                good = True
                for j in iter_bits(kmask):
                    sub_ext = prev.get(cand ^ (1 << j))
                    if sub_ext is None or sub_ext == cext:
                        good = False
                        break
                if good:
                    cur[cand] = cext
        extents.update(cur)
        prev = cur
    return ScalarKeys(ctx, lectic_sorted(extents, n), extents)


class ScalarKeys(list):
    """The key family as Python ints in lectic order, each key's extent in a
    dict, with the interface of ``fcakit.charsets._Keys``."""

    def __init__(
        self, ctx: FormalContext, keys: list[AttrSet], extents: dict[AttrSet, int]
    ) -> None:
        super().__init__(keys)
        self._ctx = ctx
        self._extents = extents

    @cached_property
    def closures(self) -> dict[AttrSet, AttrSet]:
        return {k: context_intent_of(self._ctx, self._extents[k]) for k in self}

    def passkeys(self) -> list[AttrSet]:
        best: dict[AttrSet, int] = {}
        for k, c in self.closures.items():
            best[c] = min(best.get(c, k.bit_count()), k.bit_count())
        return [k for k, c in self.closures.items() if k.bit_count() == best[c]]

    @cached_property
    def _unions(self) -> dict[AttrSet, AttrSet]:
        """Each key with the closures of its one-removed subsets ORed in."""
        key_closures = self.closures
        out = {}
        for k in key_closures:
            u = k
            for j in iter_bits(k):
                u |= key_closures[k ^ (1 << j)]
            out[k] = u
        return out

    def proper_premises(self) -> list[AttrSet]:
        unions = self._unions
        return [k for k, c in self.closures.items() if unions[k] != c]

    def quasi_closed(self, relabel) -> tuple[list[AttrSet], list[AttrSet]]:
        """The quasi-closed keys and their closures, each renumbered by
        ``relabel.mask``, in the lectic order of the new numbering."""
        unions = self._unions
        known = [(relabel.mask(k), relabel.mask(self.closures[k])) for k in self if unions[k] == k]
        known.sort(key=lambda kc: bit_reverse(kc[0], self._ctx.n_attrs))
        return [k for k, _ in known], [c for _, c in known]


def pair_loop(masks: Sequence[AttrSet]) -> tuple[int, int]:
    """``(comparable, union_closed)`` over the unordered pairs of distinct
    masks, one pair at a time."""
    member = set(masks)
    comparable = union_closed = 0
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            inter = a & b
            if inter == a or inter == b:
                comparable += 1
            if a | b in member:
                union_closed += 1
    return comparable, union_closed

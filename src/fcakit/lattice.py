"""Concept lattices and the two lattice-shape complexity indices.

The lattice is represented by its intents alone; the order is attribute-set
containment, so order queries are plain subset tests on masks.  Two indices
summarize the shape:

* linearity: the probability that two distinct random concepts are
  comparable (1.0 on chains),
* distributivity: the fraction of distinct intent pairs whose union is again
  an intent (1.0 on chains and Boolean lattices).

Both are normalized by the number of unordered pairs of distinct concepts so
that they read as probabilities; the raw pair counts are exposed separately
for anyone wanting a different normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .context import AttrSet, lectic_sorted

# Below this many intents the pure-Python pair loops win over numpy setup.
_VECTOR_THRESHOLD = 400

# The numpy pair passes take rows i0..i1-1 against columns i0+1..n-1 as one
# 2-D block of about this many pairs: small enough to stay in cache, large
# enough that the per-block numpy calls cost little next to the pair work.
_BLOCK_PAIRS = 1 << 15

# Membership pre-filter of the numpy union count: a 2^18-slot bool table
# (256 KB) indexed by a Fibonacci hash of the mask.  Only a few percent of
# pair unions are intents, so most are rejected by one table read.  The
# unions that pass are settled exactly through a slot table holding the
# intent stored in each slot; intents whose slot was taken by another intent
# go to a small sorted `lost` array.
_FILTER_BITS = 18
_FIB_MULT = np.uint64(0x9E3779B97F4A7C15)
_FILTER_SHIFT = np.uint64(64 - _FILTER_BITS)


@dataclass(frozen=True)
class ConceptLattice:
    """The ordered set of all intents of a context, lectic-sorted.

    The extent side of each concept is recoverable from the owning context
    via ``context.extent(ctx, intent_mask)``.
    """

    intents: tuple[AttrSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intents", tuple(self.intents))
        if len(set(self.intents)) != len(self.intents):
            raise ValueError("duplicate intents")

    def __len__(self) -> int:
        return len(self.intents)

    def __iter__(self) -> Iterator[AttrSet]:
        return iter(self.intents)

    @cached_property
    def _members(self) -> frozenset[AttrSet]:
        return frozenset(self.intents)

    @cached_property
    def _words(self) -> np.ndarray | None:
        """The intents as a `uint64` array for the numpy pair passes, or
        None when the pure-Python loops apply (too few intents, or masks
        wider than 64 bits).

        The array is ordered by attribute count, so a proper subset never
        comes after its supersets; the pair counts do not depend on order.
        """
        if len(self.intents) < _VECTOR_THRESHOLD:
            return None
        if max(m.bit_length() for m in self.intents) > 64:
            return None
        return np.array(sorted(self.intents, key=int.bit_count), dtype=np.uint64)

    def __contains__(self, mask: object) -> bool:
        return mask in self._members

    @staticmethod
    def is_subconcept(intent_a: AttrSet, intent_b: AttrSet) -> bool:
        """Concept order: larger intent means smaller concept."""
        return intent_a & intent_b == intent_b

    @staticmethod
    def comparable(intent_a: AttrSet, intent_b: AttrSet) -> bool:
        inter = intent_a & intent_b
        return inter == intent_a or inter == intent_b


def build_lattice(intents: Sequence[AttrSet]) -> ConceptLattice:
    """Order a list of intents into a lattice (duplicates are an error,
    raised by `ConceptLattice`)."""
    width = max((m.bit_length() for m in intents), default=0)
    return ConceptLattice(tuple(lectic_sorted(intents, width)))


def pair_total(lat: ConceptLattice) -> int:
    n = len(lat)
    return n * (n - 1) // 2


def _row_blocks(n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Split the rows 0..n-2 of the pair triangle into blocks.

    Yields ``(i0, i1, keep)``: rows ``i0..i1-1`` meet columns ``i0+1..n-1``
    as one ``(i1-i0, n-i0-1)`` block, whose cell ``(r, j)`` is the pair
    ``(i0+r, i0+1+j)``.  Cells with ``j < r`` lie on or left of the diagonal;
    ``keep`` is the ``(i1-i0, i1-i0-1)`` mask of the first columns that drops
    them.
    """
    i0 = 0
    while i0 < n - 1:
        cols = n - 1 - i0
        i1 = i0 + min(cols, max(1, _BLOCK_PAIRS // cols))
        b = i1 - i0
        yield i0, i1, np.arange(b - 1) >= np.arange(b)[:, None]
        i0 = i1


def count_comparable_pairs(lat: ConceptLattice) -> int:
    """Unordered pairs of distinct intents where one contains the other."""
    masks = lat.intents
    n = len(masks)
    if n <= 1:
        return 0
    words = lat._words
    if words is not None:
        total = 0
        for i0, i1, keep in _row_blocks(n):
            rows = words[i0:i1, None]
            # Ordered by size, a row can only be a subset of a later column.
            hit = (rows & words[None, i0 + 1 :]) == rows
            hit[:, : i1 - i0 - 1] &= keep
            total += int(np.count_nonzero(hit))
        return total
    total = 0
    for i in range(n - 1):
        a = masks[i]
        for b in masks[i + 1 :]:
            inter = a & b
            if inter == a or inter == b:
                total += 1
    return total


def _slots(words: np.ndarray) -> np.ndarray:
    """Filter slot of each mask, as indices (array-by-scalar uint64 products
    wrap silently, as the hash needs; slots fit any index type)."""
    slot = words * _FIB_MULT
    slot >>= _FILTER_SHIFT
    return slot.view(np.int64)


def count_union_closed_pairs(lat: ConceptLattice) -> int:
    """Unordered pairs of distinct intents whose union is again an intent."""
    masks = lat.intents
    n = len(masks)
    if n <= 1:
        return 0
    words = lat._words
    if words is not None:
        slots = _slots(words)
        maybe_member = np.zeros(1 << _FILTER_BITS, dtype=bool)
        maybe_member[slots] = True
        # index_at[s] is 1 + the index of the intent stored in slot s, 0 if
        # none; key_at[0] = 0 is never the union of two distinct intents.
        index_at = np.zeros(1 << _FILTER_BITS, dtype=np.uint32)
        index_at[slots] = np.arange(1, n + 1, dtype=np.uint32)
        key_at = np.concatenate((np.zeros(1, dtype=np.uint64), words))
        # The intents displaced from their slot by another one, sorted.
        lost = np.sort(words[key_at[index_at[slots]] != words])
        total = 0
        for i0, i1, keep in _row_blocks(n):
            union = words[i0:i1, None] | words[None, i0 + 1 :]
            hit = maybe_member[_slots(union)]
            hit[:, : i1 - i0 - 1] &= keep
            # False positives only: the slot table settles each survivor
            # (hashing the few survivors again beats compressing all slots).
            union = union[hit]
            stored = key_at[index_at[_slots(union)]] == union
            total += int(np.count_nonzero(stored))
            if lost.size:
                union = union[~stored]
                pos = np.searchsorted(lost, union)
                total += int(np.count_nonzero(lost.take(pos, mode="clip") == union))
        return total
    member = set(masks)
    total = 0
    for i in range(n - 1):
        a = masks[i]
        for b in masks[i + 1 :]:
            if a | b in member:
                total += 1
    return total


def linearity(lat: ConceptLattice) -> float:
    """Probability that two distinct random concepts are comparable."""
    pairs = pair_total(lat)
    if pairs == 0:
        return 1.0
    return count_comparable_pairs(lat) / pairs


def distributivity(lat: ConceptLattice) -> float:
    """Fraction of distinct intent pairs whose union is an intent."""
    pairs = pair_total(lat)
    if pairs == 0:
        return 1.0
    return count_union_closed_pairs(lat) / pairs

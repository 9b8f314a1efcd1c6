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

# Membership pre-filter of the numpy union count: a 2^18-slot bool table
# (256 KB) indexed by a Fibonacci hash of the mask.  Only a few percent of
# pair unions are intents, so most are rejected by one table read instead of
# a binary search over all intents.
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


def count_comparable_pairs(lat: ConceptLattice) -> int:
    """Unordered pairs of distinct intents where one contains the other."""
    masks = lat.intents
    n = len(masks)
    if n <= 1:
        return 0
    if n >= _VECTOR_THRESHOLD and max(m.bit_length() for m in masks) <= 64:
        arr = np.array(masks, dtype=np.uint64)
        total = 0
        for i in range(n - 1):
            rest = arr[i + 1 :]
            inter = rest & arr[i]
            total += int(np.count_nonzero((inter == arr[i]) | (inter == rest)))
        return total
    total = 0
    for i in range(n - 1):
        a = masks[i]
        for b in masks[i + 1 :]:
            inter = a & b
            if inter == a or inter == b:
                total += 1
    return total


def count_union_closed_pairs(lat: ConceptLattice) -> int:
    """Unordered pairs of distinct intents whose union is again an intent."""
    masks = lat.intents
    n = len(masks)
    if n <= 1:
        return 0
    if n >= _VECTOR_THRESHOLD and max(m.bit_length() for m in masks) <= 64:
        arr = np.array(masks, dtype=np.uint64)
        # Sorted intents plus a 0 sentinel at index n, where searchsorted puts
        # unions above every intent; such a union is nonzero, so never equal.
        table = np.append(np.sort(arr), np.uint64(0))
        # Array-by-scalar uint64 products wrap silently, as the hash needs.
        maybe_member = np.zeros(1 << _FILTER_BITS, dtype=bool)
        maybe_member[(arr * _FIB_MULT) >> _FILTER_SHIFT] = True
        total = 0
        for i in range(n - 1):
            union = arr[i + 1 :] | arr[i]
            # False positives only: the exact lookup below settles each one.
            union = union[maybe_member[(union * _FIB_MULT) >> _FILTER_SHIFT]]
            pos = np.searchsorted(table[:n], union)
            total += int(np.count_nonzero(table[pos] == union))
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

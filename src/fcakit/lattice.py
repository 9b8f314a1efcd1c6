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

Masks of up to 64 bits are counted on one ``uint64`` array ordered by
attribute count.  The comparable count always tests every pair, in 2-D
blocks.  The union count has two exact paths, picked from the attribute
counts alone:

* the cube count (`_cube_union_closed_pairs`) lists the 2^|C| subsets of
  each intent C other than the top and counts the pairs uniting to C by a
  subset-sum (zeta) transform and a Moebius inversion over that cube
  (Bjorklund, Husfeldt, Kaski & Koivisto, "Fourier meets Moebius: fast
  subset convolution", STOC 2007).  It runs when every such C has at most
  15 attributes and its cells, each charged as 16 pairs, still come to
  fewer than the pairs, as on lattices of many small intents;
* the blocked pair pass (`_pair_union_closed_pairs`) tests every pair's
  union against the family.  Its cost depends on n alone, so it stays for
  chain-like and dense lattices, whose large intents have cubes far bigger
  than the pair triangle, and as the twin the tests compare the cubes with.

Wider masks take pure-Python pair loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .context import AttrSet, lectic_order, lectic_sorted

# The numpy pair passes take rows i0..i1-1 against columns i0+1..n-1 as one
# 2-D block of about this many pairs: small enough to stay in cache, large
# enough that the per-block numpy calls cost little next to the pair work.
_BLOCK_PAIRS = 1 << 15

# Membership pre-filter of the union pair pass: a 2^18-slot bool table
# (256 KB) indexed by a Fibonacci hash of the mask.  Only a few percent of
# pair unions are intents, so most are rejected by one table read.  The
# unions that pass are settled exactly through a slot table holding the
# intent stored in each slot; intents whose slot was taken by another intent
# go to a small sorted `lost` array.
_FILTER_BITS = 18
_FIB_MULT = np.uint64(0x9E3779B97F4A7C15)
_FILTER_SHIFT = np.uint64(64 - _FILTER_BITS)

# The cube count of union-closed pairs builds the 2^k subsets of each
# k-attribute intent other than the top.  It runs only when every such cube
# fits one block, and when its cells, each charged as _CELL_COST pairs,
# still come to fewer than the pairs: on 403x40 contexts of 5-7 k intents a
# cube cell costs about 12 pairs of the blocked pass (40 against 3.4 ns).
_CUBE_MAX_BITS = _BLOCK_PAIRS.bit_length() - 1
_CELL_COST = 16
_POPCOUNT8 = np.array([b.bit_count() for b in range(256)], dtype=np.int64)


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
        """The intents as a `uint64` array for the numpy counts, or None
        when the pure-Python loops apply (masks wider than 64 bits).

        The array is ordered by attribute count, so a proper subset never
        comes after its supersets; the pair counts do not depend on order.
        """
        if max((m.bit_length() for m in self.intents), default=0) > 64:
            return None
        words = np.array(self.intents, dtype=np.uint64)
        return words[np.argsort(_popcounts(words), kind="stable")]

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
    raised by `ConceptLattice`).  Masks of up to 64 bits are sorted as one
    word array by ``lectic_order``; wider ones by ``lectic_sorted``."""
    width = max((m.bit_length() for m in intents), default=0)
    if width > 64:
        return ConceptLattice(tuple(lectic_sorted(intents, width)))
    words = np.array(intents, dtype=np.uint64)
    return ConceptLattice(tuple(words[lectic_order(words)].tolist()))


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


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Attribute count of each ``uint64`` mask."""
    return _POPCOUNT8[words.view(np.uint8)].reshape(len(words), 8).sum(axis=1)


def _top_split(words: np.ndarray, sizes: np.ndarray) -> tuple[np.uint64, int, int]:
    """``(top, b, h)`` for masks ordered by their attribute counts ``sizes``.

    ``top`` is the union of all masks.  When it is one of them it is the
    single largest, so ``words[:b]`` are the masks other than ``top``
    (``b = n - 1``, else ``b = n``).  ``words[h:b]`` is the set H of the
    masks of at least half as many attributes as ``top``: two masks other
    than ``top`` that unite to ``top`` include one of H.
    """
    top = np.bitwise_or.reduce(words)
    b = len(words) - int(words[-1] == top)
    h = b
    if b < len(words):
        h = int(np.searchsorted(sizes[:b], (int(sizes[-1]) + 1) // 2))
    return top, b, h


def _cubes_pay(words: np.ndarray, sizes: np.ndarray) -> bool:
    """Whether the cube count should replace the pair pass.

    Every mask other than the top must fit one block as a cube
    (``_CUBE_MAX_BITS``), and ``_CELL_COST`` times the cube cells plus the
    cells of the H pass must not exceed the n(n-1)/2 pairs.  Only the
    attribute counts are read, so a chain of wide intents is turned down
    before any cube is built.
    """
    n = len(words)
    _, b, h = _top_split(words, sizes)
    if sizes[b - 1] > _CUBE_MAX_BITS:
        return False
    cells = int(np.sum(np.left_shift(1, sizes[:b])))
    return _CELL_COST * (cells + (b - h) * n) <= n * (n - 1) // 2


def _subset_cubes(rows: np.ndarray, k: int) -> np.ndarray:
    """The ``(len(rows), 2^k)`` subsets of masks of ``k`` attributes each:
    cell ``s`` of a row holds the attributes of that row whose rank, from
    the lowest, is a set bit of ``s``."""
    cube = np.zeros((len(rows), 1 << k), dtype=np.uint64)
    rest = rows.copy()
    for j in range(k):
        low = rest & ~(rest - np.uint64(1))
        rest ^= low
        np.bitwise_or(cube[:, : 1 << j], low[:, None], out=cube[:, 1 << j : 2 << j])
    return cube


def _moebius_signs(k: int) -> np.ndarray:
    """(-1)^(k - |s|) for each cell s of a k-attribute cube."""
    signs = np.ones(1, dtype=np.int64)
    for _ in range(k):
        signs = np.concatenate((-signs, signs))
    return signs


def _cube_union_closed_pairs(words: np.ndarray, sizes: np.ndarray) -> int:
    """The union count from the subset cube of each member.

    Exact for any family of distinct masks ordered by their attribute
    counts ``sizes``; a k-attribute member other than the top costs 2^k
    cells, built in blocks of at most ``_BLOCK_PAIRS`` cells (one cube per
    block above 15 attributes).

    Every pair uniting to a member C other than the top lies inside C.  Over
    the cube of C, f(T) is the number of members inside T: membership found
    by binary search, then summed over subsets by one in-place zeta pass per
    attribute.  f(T)^2 counts the ordered pairs whose union lies inside T,
    so the Moebius inversion at C, ``g(C) = sum over T of (-1)^|C - T|
    f(T)^2``, counts the ordered pairs whose union is exactly C, one of them
    (C, C); C adds (g(C) - 1) / 2.  Below 16 attributes f(T) is at most
    2^15, so a block's sum of at most 2^15 squares stays under 2^45, far
    inside ``int64``.

    The top, when a member, unites with each of the other n - 1.  Two other
    members that unite to it include one of the set H (`_top_split`), so one
    pass of H over the other members counts them: X hits, of which the Y
    within H count each pair twice, giving X - Y/2.
    """
    n = len(words)
    top, b, h = _top_split(words, sizes)
    members = np.sort(words)
    ordered = 0
    for k in range(int(sizes[b - 1]) + 1):
        lo, hi = np.searchsorted(sizes[:b], (k, k + 1))
        step = max(1, _BLOCK_PAIRS >> k)
        signs = _moebius_signs(k)
        for r0 in range(lo, hi, step):
            cube = _subset_cubes(words[r0 : min(hi, r0 + step)], k)
            pos = np.searchsorted(members, cube)
            f = (members.take(pos, mode="clip") == cube).astype(np.int64)
            for j in range(k):
                cells = f.reshape(len(f), -1, 2, 1 << j)
                cells[:, :, 1] += cells[:, :, 0]
            f *= f
            ordered += int(np.sum(f @ signs))
    total = (ordered - b) // 2
    if b < n:
        total += n - 1
        heavy, others = words[h:b], words[:b]
        both = 0
        step = max(1, _BLOCK_PAIRS // b)
        for r0 in range(0, b - h, step):
            hit = (heavy[r0 : r0 + step, None] | others[None, :]) == top
            total += int(np.count_nonzero(hit))
            both += int(np.count_nonzero(hit[:, h:]))
        total -= both // 2
    return total


def _pair_union_closed_pairs(words: np.ndarray) -> int:
    """The union count over every pair, in blocks (any family of distinct
    masks): n(n-1)/2 unions, screened by a hashed bit table and settled by
    the slot table, whatever the attribute counts."""
    n = len(words)
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


def count_union_closed_pairs(lat: ConceptLattice) -> int:
    """Unordered pairs of distinct intents whose union is again an intent.

    Masks of up to 64 bits take the cube count when ``_cubes_pay`` says so,
    else the blocked pair pass; wider ones the pure-Python pair loop.
    """
    masks = lat.intents
    n = len(masks)
    if n <= 1:
        return 0
    words = lat._words
    if words is not None:
        sizes = _popcounts(words)
        if _cubes_pay(words, sizes):
            return _cube_union_closed_pairs(words, sizes)
        return _pair_union_closed_pairs(words)
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

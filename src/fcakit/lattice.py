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
attribute count, taken from the lectic word array the lattice was built
with.  Both counts sum two terms over the intents C: f(C), the number of
intents inside C, and g(C), the number of ordered pairs of intents whose
union is exactly C.  The intents that ``enumerate_intents`` finds in the
subset cube of a row of at most 14 attributes come with both terms,
counted in that cube (``charsets._cube_intents``), and ``build_lattice``
hands them on.  The lattice counts the others itself: the intents that lie
only inside wider rows, and the top unless a full row of at most 14
attributes covers it.  On a context whose rows all have at most 14
attributes, that leaves the top alone, so neither count builds a cube or
scans the pairs.  A lattice built from a plain list carries no terms and
counts every intent itself.  One rule (`_cubes_pay`), read from the
attribute counts alone, picks the same one of two exact paths for both
counts:

* the cube pass (`_cube_pair_counts`) lists the 2^|C| subsets of each
  intent C other than the top that carries no terms, and marks the
  intents among them (`_cube_members`).  The cubes of a block are one
  cell-major array, 2^|C| cells by intents, so each pass over them runs
  along whole rows.  Only a cell that misses the member table and hashes
  to a crowded slot, one whose member displaced another, is looked up
  among the displaced members.  A subset-sum (zeta) transform of the marks gives f(C), the
  number of intents inside C, so C is comparable with f(C) - 1 others; a
  Moebius inversion of the squared sums over the same cube counts the
  pairs uniting to C (Bjorklund, Husfeldt, Kaski & Koivisto, "Fourier
  meets Moebius: fast subset convolution", STOC 2007).  The lattice keeps
  both counts (`pair_counts`): the first index asked for pays the whole
  pass, zeta transforms included, and the second reads what it kept.  The
  pass runs when every such C has at most 17 attributes, a memory bound of
  2^17 cells per cube, and the cells, each charged as 16 pairs, still come
  to fewer than the pairs, as on lattices of many small intents or of
  intents that carry their terms;
* the blocked pair passes (`_pair_comparable_pairs`,
  `_pair_union_closed_pairs`) test every pair in 2-D blocks, each count
  on its own, so a caller of one index does not pay for the other.  Their
  cost depends on n alone, so they stay for chain-like and dense lattices,
  whose large intents have cubes far bigger than the pair triangle, and as
  the twins the tests compare the cube pass with.

Wider masks take one pure-Python loop over the pairs for both counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .context import AttrSet, LecticWords, lectic_order, lectic_sorted, popcounts

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

# The cube counts build the 2^k subsets of each k-attribute intent other
# than the top.  They run only when no such cube exceeds 2^_CUBE_MAX_BITS
# cells (its int64 counts take 1 MB), and when its cells, each charged as
# _CELL_COST pairs, still come to fewer than the pairs: on 403x40 contexts
# of 5-7 k intents a cube cell costs about 8 pairs of the union pair pass
# and 20 of the comparable one.  Cubes are built and searched _BLOCK_PAIRS
# cells at a time, several small cubes to a chunk or one chunk of a large
# cube, against a member table of at most 2^_TABLE_BITS slots (512 KB).
_CUBE_MAX_BITS = 17
_TABLE_BITS = 16
_CHUNK_BITS = _BLOCK_PAIRS.bit_length() - 1
_CELL_COST = 16


@dataclass(frozen=True)
class ConceptLattice:
    """The ordered set of all intents of a context, lectic-sorted.

    The extent side of each concept is recoverable from the owning context
    via ``context.extent(ctx, intent_mask)``.  ``lectic_words``, when
    given, holds the same intents as one ``uint64`` array in the same,
    lectic, order, and the numpy counts start from it.  ``terms``, when
    given, is a ``(2, n)`` integer array in that order too: f(C) and g(C)
    of each intent C that carries them (`_cube_pair_counts`), 0 and 0 for
    the others.  The two raw pair counts are computed on first use; where
    one pass yields both (the cube pass, or the loop over masks wider than
    64 bits) the lattice keeps them, so linearity and distributivity share
    it.
    """

    intents: tuple[AttrSet, ...]
    lectic_words: np.ndarray | None = field(default=None, compare=False, repr=False)
    terms: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "intents", tuple(self.intents))
        words = self.lectic_words
        if words is None:
            duplicate = len(set(self.intents)) != len(self.intents)
        else:
            # Lectic order puts equal masks next to each other.
            duplicate = bool(np.any(words[1:] == words[:-1]))
        if duplicate:
            raise ValueError("duplicate intents")

    def __len__(self) -> int:
        return len(self.intents)

    def __iter__(self) -> Iterator[AttrSet]:
        return iter(self.intents)

    @cached_property
    def _members(self) -> frozenset[AttrSet]:
        return frozenset(self.intents)

    @cached_property
    def _by_size(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
        """``(words, sizes, terms)`` for the numpy counts, or None when the
        pure-Python loops apply (masks wider than 64 bits).

        ``words`` holds the intents as a ``uint64`` array ordered by
        attribute count, so a proper subset never comes after its
        supersets; the pair counts do not depend on order.  ``sizes`` holds
        those counts, and ``terms`` the columns of `terms` in the same order.
        """
        words = self.lectic_words
        if words is None:
            if max((m.bit_length() for m in self.intents), default=0) > 64:
                return None
            words = np.array(self.intents, dtype=np.uint64)
        sizes = popcounts(words)
        # Sizes fit one byte, where the stable sort is a radix sort.
        order = np.argsort(sizes.astype(np.uint8), kind="stable")
        terms = None if self.terms is None else self.terms[:, order]
        return words[order], sizes[order], terms

    @property
    def _words(self) -> np.ndarray | None:
        """The words of `_by_size`, or None where it is None."""
        by_size = self._by_size
        return None if by_size is None else by_size[0]

    @property
    def _sizes(self) -> np.ndarray:
        """The attribute count of each mask of `_words`."""
        return self._by_size[1]

    @cached_property
    def _split(self) -> tuple[np.uint64, int, int]:
        """`_top_split` of `_words`."""
        return _top_split(self._words, self._sizes)

    @cached_property
    def _cube_rows(self) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
        """``(rows, sizes, carried)`` for the cube counts.

        ``carried`` sums the terms the lattice was given: ``(members, f,
        g)``, the number of members that carry theirs (the top among them
        when it does) and the sums of their f(C) and g(C).  ``rows`` are
        the members other than the top that carry none, of ``sizes``
        attributes each, ordered by size: the lattice builds their cubes.
        """
        words, sizes, terms = self._by_size
        _, b, _ = self._split
        if terms is None:
            return words[:b], sizes[:b], (0, 0, 0)
        own = terms[0] == 0
        members = len(words) - int(np.count_nonzero(own))
        f, g = terms.sum(axis=1, dtype=np.int64).tolist()
        # The top, when it carries no terms, takes the H pass instead.
        own[b:] = False
        return words[own], sizes[own], (members, f, g)

    @cached_property
    def _pair_counts(self) -> tuple[int, int] | None:
        """Both raw counts where one pass yields them, else None
        (`pair_counts`)."""
        return pair_counts(self)

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
    raised by `ConceptLattice`).

    A ``LecticWords`` list, as ``enumerate_intents`` returns, is already in
    order and hands its word array on as it is.  Other lists of masks of up
    to 64 bits are sorted as one word array by ``lectic_order``, which the
    lattice keeps; wider ones by ``lectic_sorted``.
    """
    if isinstance(intents, LecticWords):
        return ConceptLattice(tuple(intents), intents.words, intents.terms)
    width = max((m.bit_length() for m in intents), default=0)
    if width > 64:
        return ConceptLattice(tuple(lectic_sorted(intents, width)))
    words = np.array(intents, dtype=np.uint64)
    words = words[lectic_order(words)]
    return ConceptLattice(tuple(words.tolist()), words)


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


def pair_counts(lat: ConceptLattice) -> tuple[int, int] | None:
    """``(comparable, union_closed)`` pairs of ``lat`` from one pass, or
    None where each count takes its own blocked pair pass.

    Masks of up to 64 bits take the cube pass when ``_cubes_pay`` says so;
    wider ones one pure-Python loop over the pairs.
    """
    masks = lat.intents
    if len(masks) <= 1:
        return 0, 0
    words = lat._words
    if words is None:
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
    if _cubes_pay(lat):
        return _cube_pair_counts(lat)
    return None


def count_comparable_pairs(lat: ConceptLattice) -> int:
    """Unordered pairs of distinct intents where one contains the other."""
    counts = lat._pair_counts
    return _pair_comparable_pairs(lat._words) if counts is None else counts[0]


def _pair_comparable_pairs(words: np.ndarray) -> int:
    """The comparable count over every pair, in blocks (any family of
    distinct masks ordered by attribute count)."""
    total = 0
    for i0, i1, keep in _row_blocks(len(words)):
        rows = words[i0:i1, None]
        # Ordered by size, a row can only be a subset of a later column.
        hit = (rows & words[None, i0 + 1 :]) == rows
        hit[:, : i1 - i0 - 1] &= keep
        total += int(np.count_nonzero(hit))
    return total


def _slots(words: np.ndarray, bits: int = _FILTER_BITS) -> np.ndarray:
    """Slot of each mask in a table of 2^bits, as indices (array-by-scalar
    uint64 products wrap silently, as the hash needs; slots fit any index
    type)."""
    slot = words * _FIB_MULT
    slot >>= np.uint64(64 - bits)
    return slot.view(np.int64)


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


def _cubes_pay(lat: ConceptLattice) -> bool:
    """Whether the cube counts should replace the pair passes.

    No mask whose cube the lattice builds (`ConceptLattice._cube_rows`)
    may have more than ``_CUBE_MAX_BITS`` attributes, and ``_CELL_COST``
    times their cube cells plus the cells of the H pass, when the top
    takes one, must not exceed the n(n-1)/2 pairs.  Only the attribute
    counts are read, so a chain of wide intents is turned down before any
    cube is built.
    """
    n = len(lat)
    _, b, h = lat._split
    _, sizes, (members, _, _) = lat._cube_rows
    if len(sizes) and sizes[-1] > _CUBE_MAX_BITS:
        return False
    cells = int(np.sum(np.left_shift(1, sizes)))
    if members + len(sizes) == n:
        h = b  # no top, or one that carries its terms: no H pass
    return _CELL_COST * (cells + (b - h) * n) <= n * (n - 1) // 2


def _subset_cubes(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(cube, rest)`` for masks of at least ``k`` attributes each.

    ``cube`` holds the subsets of the lowest ``k`` attributes of each row,
    ``(2^k, len(rows))``: cell ``s`` of row ``r`` holds those whose rank,
    from the lowest, is a set bit of ``s``.  ``rest`` holds the others.
    """
    cube = np.zeros((1 << k, len(rows)), dtype=np.uint64)
    rest = rows.copy()
    for j in range(k):
        low = rest & ~(rest - np.uint64(1))
        rest ^= low
        np.bitwise_or(cube[: 1 << j], low, out=cube[1 << j : 2 << j])
    return cube, rest


def _cube_members(
    words: np.ndarray, sizes: np.ndarray, members: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The subset cubes of some masks, the ``members`` marked, in blocks.

    ``words`` are distinct masks ordered by their attribute counts
    ``sizes``; ``members`` is a family of distinct masks.  Yields ``(k,
    marks)`` for each block of k-attribute masks: ``marks[s, r]`` is
    whether cell ``s`` of the cube of row ``r`` (as laid out by
    `_subset_cubes`) is a member.  A block holds at most
    ``_BLOCK_PAIRS`` cells, or one larger cube.  Cells are built and
    searched ``_BLOCK_PAIRS`` at a time: the 2^15 cells from ``c << 15`` of
    a larger cube are its lowest 15 attributes' cube united with subset c
    of the others, so only its marks are held at full size.

    A cell is found in a hashed table of about 8 slots per member (at most
    2^_TABLE_BITS).  Every slot holds a member, so a cell equal to its
    slot's entry is one.  The members displaced from their slot by another
    are searched in the sorted ``lost`` array, but only for the cells that
    hash to a ``crowded`` slot, one that displaced a member: a cell equal
    to a lost member hashes to that member's slot.
    """
    bits = min(_TABLE_BITS, (8 * len(members)).bit_length())
    slots = _slots(members, bits)
    table = np.full(1 << bits, members[0])
    table[slots] = members
    displaced = table[slots] != members
    lost = np.sort(members[displaced])
    crowded = np.zeros(1 << bits, dtype=bool)
    crowded[slots[displaced]] = True
    for k in range(int(sizes[-1]) + 1):
        lo, hi = np.searchsorted(sizes, (k, k + 1))
        low_bits = min(k, _CHUNK_BITS)
        step = max(1, _BLOCK_PAIRS >> k)
        for r0 in range(lo, hi, step):
            rows = words[r0 : min(hi, r0 + step)]
            low, rest = _subset_cubes(rows, low_bits)
            high, _ = _subset_cubes(rest, k - low_bits)
            marks = np.empty((1 << k, len(rows)), dtype=bool)
            for c in range(1 << (k - low_bits)):
                cells = low | high[c] if c else low
                found = marks[c << low_bits : (c + 1) << low_bits]
                cell_slots = _slots(cells, bits)
                np.equal(table[cell_slots], cells, out=found)
                if lost.size:
                    missed = crowded[cell_slots] & ~found
                    cells = cells[missed]
                    pos = np.searchsorted(lost, cells)
                    found[missed] = lost.take(pos, mode="clip") == cells
            yield k, marks


def _moebius_signs(k: int) -> np.ndarray:
    """(-1)^(k - |s|) for each cell s of a k-attribute cube.  Its last 2^j
    entries are the signs of a j-attribute cube, for every j <= k."""
    signs = np.empty(1 << k, dtype=np.int64)
    signs[-1] = 1
    for j in range(k):
        signs[-(2 << j) : -(1 << j)] = -signs[-(1 << j) :]
    return signs


def _cube_pair_counts(lat: ConceptLattice) -> tuple[int, int]:
    """``(comparable, union_closed)`` from the subset cube of each member.

    Exact for any family of distinct masks of up to 64 bits; a
    k-attribute member other than the top costs 2^k cells, marked by
    `_cube_members`, unless it carries its terms (`ConceptLattice.terms`).

    Over the cube of a member C other than the top, f(T) is the number of
    members inside T: the marks, summed over subsets by one in-place zeta
    pass per attribute.  C contains f(C) - 1 other members.  Every pair
    uniting to C lies inside C, and f(T)^2 counts the ordered pairs whose
    union lies inside T, so the Moebius inversion at C,
    ``g(C) = sum over T of (-1)^|C - T| f(T)^2``, counts the ordered pairs
    whose union is exactly C, one of them (C, C); C adds (g(C) - 1) / 2.
    A block sums f(T)^2 over its rows, then dots the sums with the signs,
    all in ``int64``: f(T) <= 2^k, so a block of 2^15 cells of cubes of at
    most 15 attributes sums to at most 2^15 * 2^30 = 2^45 in absolute value,
    and one 17-attribute cube to 2^17 * 2^34 = 2^51, partial sums included.
    A member that carries f(C) and g(C) adds them alike.

    The top, when a member that carries no terms, contains each of the
    other n - 1 and unites with each of them.  Two other members that
    unite to it include one of the set H (`_top_split`), so one pass of H
    over the other members counts them: X hits, of which the Y within H
    count each pair twice, giving X - Y/2.
    """
    words = lat._words
    n = len(words)
    top, b, h = lat._split
    rows, sizes, (counted, comparable, ordered) = lat._cube_rows
    if len(rows):
        signs = _moebius_signs(int(sizes[-1]))
        for k, marks in _cube_members(rows, sizes, words[:b]):
            f = marks.astype(np.int64)
            for j in range(k):
                cells = f.reshape(-1, 2, 1 << j, f.shape[1])
                cells[:, 1] += cells[:, 0]
            comparable += int(np.sum(f[-1]))
            f *= f
            ordered += int(signs[-(1 << k) :] @ f.sum(axis=1))
        counted += len(rows)
    comparable -= counted
    union_closed = (ordered - counted) // 2
    if counted < n:  # the top, a member that carries no terms
        comparable += n - 1
        union_closed += n - 1
        heavy, others = words[h:b], words[:b]
        both = 0
        step = max(1, _BLOCK_PAIRS // b)
        for r0 in range(0, b - h, step):
            hit = (heavy[r0 : r0 + step, None] | others[None, :]) == top
            union_closed += int(np.count_nonzero(hit))
            both += int(np.count_nonzero(hit[:, h:]))
        union_closed -= both // 2
    return comparable, union_closed


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
    """Unordered pairs of distinct intents whose union is again an intent."""
    counts = lat._pair_counts
    return _pair_union_closed_pairs(lat._words) if counts is None else counts[1]


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

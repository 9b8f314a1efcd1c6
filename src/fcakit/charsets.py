"""Enumeration and classification of characteristic attribute-set families.

For a binary context this module enumerates, over all subsets of the
attribute set:

* intents (closed sets, the fixed points of the double-prime closure),
* pseudo-intents and the canonical minimum-cardinality implication basis
  whose premises they are,
* minimal generators ("keys": no single-element removal preserves closure),
* minimum generators ("passkeys": cardinality-minimal keys of their closure
  class),
* proper premises (premises of the direct implication basis).

``index_classes`` gives a ``ClassIndex``: every family and the concept
lattice of one context, each computed on first use and then kept.  It is
how the reports and every randomized trial reach the families.  All
enumeration output is returned in lectic order.

Contexts of up to 64 attributes run on numpy ``uint64`` words: the intent
enumeration (subset cubes of the object rows, ``_cube_intents``), the basis
scan's preclosure (``_WordRules``) and the whole key family (``_word_keys``,
``_WordKeys``).  Wider contexts run the same
algorithms on Python ints (``_ScalarRules``, ``_scalar_keys``,
``_ScalarKeys``), which stay as the differential twins of the word paths.
The brute-force oracles and the one-subset ``classify`` live in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import lattice
from .context import (
    AttrSet,
    FormalContext,
    LecticWords,
    ObjSet,
    closure,
    intent_of,
    iter_bits,
    lectic_order,
    lectic_sorted,
    popcounts,
)

# The word key search builds candidates, and closes keys, in blocks of about
# this many extent words (256 KB per array), as the lattice pair passes do;
# the intent cubes and their row traces go in blocks of this many cells.
_BLOCK_WORDS = 1 << 15

# A row of k attributes up to this bound finds its intents in a subset cube
# of 2^k uint16 cells (32 KB at the bound): k index bits and a flag bit.
# Wider rows take the incremental loop.
_ROW_CUBE_BITS = 14


@dataclass(frozen=True)
class CharFlags:
    """Membership of one attribute subset in each characteristic family."""

    is_intent: bool = False
    is_pseudo_intent: bool = False
    is_key: bool = False
    is_passkey: bool = False
    is_proper_premise: bool = False

    def __post_init__(self) -> None:
        if self.is_passkey and not self.is_key:
            raise ValueError("a passkey is always a key")
        if self.is_proper_premise and not self.is_key:
            raise ValueError("a proper premise is always a key")
        if self.is_intent and self.is_pseudo_intent:
            raise ValueError("a set cannot be both an intent and a pseudo-intent")


@dataclass(frozen=True)
class Implication:
    """``premise -> conclusion`` with the conclusion stored disjoint."""

    premise: AttrSet
    conclusion: AttrSet

    def __post_init__(self) -> None:
        if self.premise & self.conclusion:
            raise ValueError("premise and conclusion must be disjoint")


def enumerate_intents(ctx: FormalContext) -> list[AttrSet]:
    """All closed attribute sets, in lectic order.

    Every intent is the intersection of some subfamily of object rows, the
    empty subfamily giving the full attribute set M.  So every intent X
    other than M lies inside some row r, and the intents inside r are the
    intersections of the traces r & g of all rows g, r itself among them.

    Contexts of up to 64 attributes work on ``uint64`` words and return a
    ``LecticWords`` list, which carries its word array to the lattice.  A
    distinct row of at most ``_ROW_CUBE_BITS`` attributes finds the intents
    inside it in its subset cube (`_cube_intents`): cell T of the cube ends
    up holding the intersection of the traces that contain T, and T is an
    intent exactly when that is T.  A cell that also lies inside the trace
    of an earlier such row is skipped, so each intent inside some small row
    is found once, in the first of them.  The wider rows run the
    incremental loop (`_incremental_intents`) from {M}, which yields M and
    every intersection of wide rows; an intent inside no small row is the
    intersection of the wide rows containing it, so it is among them.  One
    lectic sort of the two parts then drops the intents found by both.
    Wider contexts run the incremental loop on a Python set; all paths
    give the same list.

    The cubes also count the two terms of the lattice indices for each
    intent C they find (`_intent_terms`): f(C), the intents inside C, and
    g(C), the ordered pairs of intents uniting to exactly C.  The list
    carries them as ``terms``, a ``(2, len)`` ``int32`` array aligned with
    ``words``, 0 and 0 for the intents only the incremental loop found;
    the sort keeps the cubes' copy of an intent found by both.  Every
    intent enumeration pays for them, whether or not an index is asked for.
    """
    n = ctx.n_attrs
    if n > 64:
        family = {ctx.attribute_universe}
        for row in ctx.rows:
            family.update([f & row for f in family])
        return lectic_sorted(family, n)
    rows = np.array(list(dict.fromkeys(ctx.rows)), dtype=np.uint64)
    sizes = popcounts(rows)
    order = np.argsort(sizes, kind="stable")
    rows, sizes = rows[order], sizes[order]
    small = int(np.searchsorted(sizes, _ROW_CUBE_BITS, side="right"))
    words = _incremental_intents(rows[small:], ctx.attribute_universe)
    terms = np.zeros((2, len(words)), dtype=np.int32)
    if small:
        # The cubes' part goes first, so the stable sort puts their copy of
        # an intent found by both before the loop's, and the merge keeps it.
        found, found_terms = _cube_intents(rows, sizes[:small], n)
        words = np.concatenate((found, words))
        terms = np.concatenate((found_terms, terms), axis=1)
    order = lectic_order(words)
    words, terms = words[order], terms[:, order]
    distinct = np.ones(len(words), dtype=bool)
    np.not_equal(words[1:], words[:-1], out=distinct[1:])
    return LecticWords(words[distinct], terms[:, distinct])


def _incremental_intents(rows: np.ndarray, universe: AttrSet) -> np.ndarray:
    """``universe`` and every intersection of ``rows``, sorted by value.

    The family stays closed under intersection after every row: meeting it
    with a row adds the intersections that take that row in, and only
    those.  Each row meets all members at once, the new meets are found by
    binary search, and a stable sort merges the two sorted runs.
    """
    # The universe is the largest word and always a member, so every search
    # position below is a valid index.
    fam = np.array([universe], dtype=np.uint64)
    for row in rows:
        cand = np.sort(fam & row)
        distinct = np.ones(len(cand), dtype=bool)
        np.not_equal(cand[1:], cand[:-1], out=distinct[1:])
        cand = cand[distinct]
        new = cand[fam[np.searchsorted(fam, cand)] != cand]
        if len(new):
            fam = np.sort(np.concatenate((fam, new)), kind="stable")
    return fam


def _cube_intents(
    rows: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The intents inside the small rows, each once, as ``uint64`` masks.

    ``rows`` are the distinct object rows of an ``n``-attribute context
    ordered by attribute count; the first ``len(sizes)`` of them, of
    ``sizes`` attributes each, are the small ones.

    A small row r of k attributes numbers its subsets by rank: bit t of a
    cell index stands for the t-th lowest attribute of r.  The trace of
    every row g on r is found as such an index from the attribute bit
    planes (one 0/1 ``uint16`` per row, for each attribute).  The cube of r
    starts at all ones, and the cell of each trace is set to the trace; the
    k-th bit of a cell is a flag, cleared in the cells of the traces of the
    small rows before r.  One AND pass per attribute then leaves in cell T
    the meet of all cells above it: the intersection of the traces that
    contain T, and a clear flag when T lies inside an earlier small row.
    Cell T holds exactly T with its flag set when T is an intent found here
    first.  Rows of one size go in blocks of about ``_BLOCK_WORDS`` cells,
    of cubes and of traces alike; a block's cubes are one cell-major
    ``(2^k, rows)`` array, so cell T of row r sits at ``T * rows + r``.

    Every subset of T is a cell of the same cube, so the cube holds all it
    takes to count f(T) and g(T) (`_intent_terms`); they are read at the
    intents found here first.  Returns the masks and a ``(2, len)`` array
    of their terms.
    """
    d, small = len(rows), len(sizes)
    planes = (rows[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    planes = planes.astype(np.uint16)
    # attrs[r, t] is the t-th lowest attribute of small row r (0 past its size).
    row_of, attr = np.nonzero(planes[:small])
    attrs = np.zeros((small, _ROW_CUBE_BITS), dtype=np.intp)
    rank = np.arange(len(attr)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    attrs[row_of, rank] = attr
    planes = np.ascontiguousarray(planes.T)
    found_rows, found_cells, found_terms = [], [], []
    for k in range(int(sizes[-1]) + 1):
        lo, hi = np.searchsorted(sizes, (k, k + 1))
        flag = np.uint16(1 << k)
        closed = np.arange(1 << k, dtype=np.uint16) | flag
        step = max(1, min(_BLOCK_WORDS >> k, _BLOCK_WORDS // d))
        for r0 in range(lo, hi, step):
            r1 = min(hi, r0 + step)
            trace = np.zeros((r1 - r0, d), dtype=np.uint16)
            for t in range(k):
                trace |= planes[attrs[r0:r1, t]] << np.uint16(t)
            cube = np.full((1 << k, r1 - r0), (2 << k) - 1, dtype=np.uint16)
            cells = cube.reshape(-1)
            at = np.multiply(trace, r1 - r0, dtype=np.intp) + np.arange(r1 - r0)[:, None]
            cells[at] = trace | flag
            earlier = np.arange(d) < np.arange(r0, r1)[:, None]
            cells[at[earlier]] = trace[earlier]
            _superset_meets(cube, k)
            hit_cell, hit_row = np.nonzero(cube == closed[:, None])
            found_rows.append(hit_row + r0)
            found_cells.append(hit_cell)
            terms = _intent_terms(cube, closed, k)
            found_terms.append(terms[:, hit_cell, hit_row])
    row_of = np.concatenate(found_rows)
    cell = np.concatenate(found_cells)
    bits = np.left_shift(np.uint64(1), attrs.astype(np.uint64))
    masks = np.zeros(len(cell), dtype=np.uint64)
    for t in range(int(sizes[-1])):
        has = (cell >> t) & 1 == 1
        masks[has] |= bits[row_of[has], t]
    return masks, np.concatenate(found_terms, axis=1)


def _intent_terms(cube: np.ndarray, closed: np.ndarray, k: int) -> np.ndarray:
    """``(f, g)`` at every cell T of a block of closed ``k``-attribute cubes.

    f(T) counts the intents inside T: the cells holding themselves, flag
    aside, summed over subsets by one zeta pass per attribute.  g(T)
    counts the ordered pairs of intents whose union is exactly T: the
    Moebius inversion of f^2, one in-place pass per attribute.  After the
    passes over a set J of attributes, cell T holds the ordered pairs whose
    union lies inside T and holds all of T's attributes in J, a count
    between 0 and f(T)^2.  With f(T) <= 2^k <= 2^14, ``int32`` cells never
    overflow.
    """
    terms = np.empty((2, *cube.shape), dtype=np.int32)
    f, g = terms
    np.equal(cube | closed[0], closed[:, None], out=f, casting="unsafe")
    for j in range(k):
        halves = f.reshape(-1, 2, cube.shape[1] << j)
        halves[:, 1] += halves[:, 0]
    np.multiply(f, f, out=g)
    for j in range(k):
        halves = g.reshape(-1, 2, cube.shape[1] << j)
        halves[:, 1] -= halves[:, 0]
    return terms


def _superset_meets(cube: np.ndarray, k: int) -> None:
    """In place, AND into each cell of ``cube`` (``2^k`` cells by any
    number of rows, ``uint16``) the cells of all its supersets in the same
    row: one pass per attribute ANDs each run of cells with it into the
    run without it, ``2^j`` times the rows contiguous cells for the j-th
    attribute."""
    for j in range(k):
        halves = cube.reshape(-1, 2, cube.shape[1] << j)
        halves[:, 0] &= halves[:, 1]


class _ScalarRules:
    """Found basis rules as ``(premise, closure)`` int pairs, any width.

    ``preclose`` fires one rule at a time and stops at the first one that
    adds a ``forbidden`` bit, returning the set as it stands then.
    """

    def __init__(self) -> None:
        self._rules: list[tuple[int, int]] = []

    def add(self, premise: int, premise_closure: int) -> None:
        self._rules.append((premise, premise_closure))

    def preclose(self, x: int, forbidden: int) -> int:
        changed = True
        while changed:
            changed = False
            for p, c in self._rules:
                if p & x == p and c | x != x:
                    x |= c
                    if x & forbidden:
                        return x
                    changed = True
        return x


class _WordRules:
    """Found basis rules as two growable ``uint64`` arrays, up to 64 attributes.

    One preclosure round tests every rule at once and ORs together the
    closures of all that fire; ``preclose`` stops after the first round that
    adds a ``forbidden`` bit, returning the set as it stands then.  ``add``
    keeps ``_premises`` and ``_closures`` as views of the rules found so
    far, and ``preclose`` compares Python ints, making one ``np.uint64``
    per round.
    """

    def __init__(self) -> None:
        self._premise_store = np.empty(64, dtype=np.uint64)
        self._closure_store = np.empty(64, dtype=np.uint64)
        self._premises = self._premise_store[:0]
        self._closures = self._closure_store[:0]

    def add(self, premise: int, premise_closure: int) -> None:
        count = len(self._premises)
        if count == len(self._premise_store):
            self._premise_store = np.resize(self._premise_store, 2 * count)
            self._closure_store = np.resize(self._closure_store, 2 * count)
        self._premise_store[count] = premise
        self._closure_store[count] = premise_closure
        self._premises = self._premise_store[: count + 1]
        self._closures = self._closure_store[: count + 1]

    def preclose(self, x: int, forbidden: int) -> int:
        p, c = self._premises, self._closures
        if not len(p):
            return x
        while True:
            w = np.uint64(x)
            y = int(np.bitwise_or.reduce(c, where=(p | w) == w, initial=w))
            if y == x or y & forbidden:
                return y
            x = y


def _canonical_basis_scan(
    ctx: FormalContext, intents: list[AttrSet] | None = None
) -> list[tuple[AttrSet, AttrSet]]:
    """Lectic walk of the quasi-closed sets, collecting basis premises.

    The intents together with the premises of the minimum-cardinality
    implication basis form a closure system of their own.  Walking it in
    lectic order with the usual next-closed-set step needs only the premises
    found so far, because every premise properly contained in the current
    candidate is lectically smaller.  Returns ``(premise, premise_closure)``
    pairs in lectic order.

    Every set the walk visits is an intent or a pseudo-intent, and it visits
    them all, in lectic order.  So with ``intents``, the lectic list
    ``enumerate_intents(ctx)`` returned, a visited set equal to the next
    intent of that list is its own closure, and any other is a
    pseudo-intent: ``closure`` runs for the pseudo-intents alone.  Without
    it, every visited set is closed.

    Each candidate is preclosed: extended to the smallest superset ``y``
    such that every found premise properly inside ``y`` has its closure in
    ``y``.  A premise that fires at ``x`` fires at every superset of ``x``,
    so that fixpoint does not depend on the order in which premises fire.
    This lets contexts of up to 64 attributes fire all premises of a round
    at once, on ``uint64`` words (``_WordRules``).  Wider contexts fire them
    one at a time on Python ints (``_ScalarRules``); both give the same list.

    The candidate after ``a`` at attribute ``i`` is rejected when its
    preclosure gains an attribute before ``i`` that ``a`` lacks (the
    ``forbidden`` mask).  Preclosure only adds attributes, so the stores
    stop as soon as one of its steps gains such an attribute, without
    running to the fixpoint, and return that partial preclosure.

    Failed tests are inherited, as in FCbO (Outrata & Vychodil, 2012) and
    LinCbO (Janoštík, Konečný & Krajča, 2021).  For each attribute ``i`` the
    scan keeps the last candidate ``x_i`` rejected at ``i`` and the partial
    preclosure ``y_i`` that met its ``forbidden`` mask.  A later candidate
    ``x ⊇ x_i`` at ``i`` whose current ``forbidden`` mask meets ``y_i`` is
    rejected without a preclosure.  This is sound: rules are only ever
    added, and preclosure is monotone in both the set and the rules, so
    ``y_i`` lies inside the preclosure of ``x_i`` under the rules found so
    far, and hence inside that of ``x``, which therefore meets ``forbidden``
    too.  A candidate holding more of the attributes before ``i`` has fewer
    of them forbidden, so the test must use the current mask, not the one
    ``x_i`` failed on.

    The stores fire a premise contained in ``x`` even when it equals ``x``,
    which is safe here: every set they test agrees with ``a`` on the
    attributes before ``i`` and holds ``i``, which ``a`` lacks, so it is
    lectically greater than ``a`` and than every premise found so far.
    """
    n = ctx.n_attrs
    full = ctx.attribute_universe
    found: list[tuple[int, int]] = []
    rules = _WordRules() if n <= 64 else _ScalarRules()
    # (x_i, y_i) per attribute; (0, 0) meets no mask, so it rejects nothing.
    failed = [(0, 0)] * n

    known = intents or ()
    # known[at] is the first intent the walk has not reached yet.
    at = 0
    a = 0
    while True:
        if at < len(known) and known[at] == a:
            at += 1
        else:
            ca = closure(ctx, a)
            if ca != a:
                found.append((a, ca))
                rules.add(a, ca)
        # The candidates take the attributes a lacks, last first; the ones
        # before the current attribute form its forbidden mask.
        forbidden = full & ~a
        while forbidden:
            i = forbidden.bit_length() - 1
            bit = 1 << i
            forbidden ^= bit
            x = (a & (bit - 1)) | bit
            x_i, y_i = failed[i]
            if x_i & x == x_i and y_i & forbidden:
                continue
            y = rules.preclose(x, forbidden)
            if not y & forbidden:
                a = y
                break
            failed[i] = (x, y)
        else:
            break
    return found


def enumerate_pseudo_intents(
    ctx: FormalContext, intents: list[AttrSet] | None = None
) -> list[AttrSet]:
    """The premises of the canonical implication basis, in lectic order.

    ``intents``, when given, must be the list ``enumerate_intents(ctx)``
    returned; the scan then closes only the pseudo-intents it visits.
    """
    return [p for p, _ in _canonical_basis_scan(ctx, intents)]


def dg_basis(ctx: FormalContext) -> list[Implication]:
    """The minimum-cardinality implication basis of the context."""
    return [Implication(p, c & ~p) for p, c in _canonical_basis_scan(ctx)]


def implication_closure(b: AttrSet, basis: Iterable[Implication]) -> AttrSet:
    """Least superset of ``b`` that is a model of every implication."""
    rules = [(imp.premise, imp.conclusion) for imp in basis]
    x = b
    changed = True
    while changed:
        changed = False
        for p, c in rules:
            if p & x == p and c | x != x:
                x |= c
                changed = True
    return x


def enumerate_keys(ctx: FormalContext) -> _Keys:
    """All minimal generators, in lectic order.

    Levelwise search, as in Titanic (Stumme et al., 2002): a set can only be
    a key if every one-element-removed subset is a key (freeness is
    anti-monotone), so level ``k + 1`` candidates are built from level-``k``
    keys and rejected as soon as a single-element removal preserves the
    extent.  Contexts of up to 64 attributes search on ``uint64`` words
    (``_word_keys``), wider ones on Python ints (``_scalar_keys``); both
    give the same keys, closures, passkeys and proper premises.

    The list returned also carries the extent of every key it found, so the
    key-family functions below close each key from its extent.
    """
    return _word_keys(ctx) if ctx.n_attrs <= 64 else _scalar_keys(ctx)


def _scalar_keys(ctx: FormalContext) -> _ScalarKeys:
    """The levelwise key search on Python ints, any width."""
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
    return _ScalarKeys(ctx, lectic_sorted(extents, n), extents)


def _object_words(masks: Iterable[ObjSet], n_words: int) -> np.ndarray:
    """Object sets as the columns of an ``(n_words, len(masks))`` ``uint64``
    block: object ``g`` is bit ``g % 64`` of row ``g // 64``.  Word-major
    rows make the per-set reductions run along the fast axis."""
    data = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    rows = np.frombuffer(data, dtype="<u8").reshape(-1, n_words)
    return np.ascontiguousarray(rows.T, dtype=np.uint64)


def _word_keys(ctx: FormalContext) -> _WordKeys:
    """The levelwise key search on ``uint64`` words, up to 64 attributes.

    Each level is a sorted ``uint64`` array of key masks and a block of
    their extents, one column of words per key.  The candidates of a level
    are every key ``k`` with every attribute ``m`` above its top bit.  For
    each ``m`` their parents are the keys below ``1 << m``, a prefix of the
    level, so walking ``m`` upwards lists the candidates in ascending order
    and the next level needs no sort.  They are built in blocks of about
    ``_BLOCK_WORDS`` extent words.  A candidate with its parent's extent is
    rejected first; then its one-removed subsets are looked up in the level
    by binary search, one bit of the parent at a time (lowest first), and a
    missing subset or one with the candidate's extent rejects it.
    """
    n = ctx.n_attrs
    n_words = max(1, -(-ctx.n_objects // 64))
    cols = _object_words(ctx.columns, n_words)
    bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    step = max(1, _BLOCK_WORDS // n_words)
    masks = np.zeros(1, dtype=np.uint64)
    exts = _object_words([ctx.object_universe], n_words)
    levels = [(masks, exts)]
    size = 0
    while True:
        parents = np.searchsorted(masks, bits)
        total = int(parents.sum())
        if not total:
            break
        attr = np.repeat(np.arange(n), parents)
        parent = np.arange(total) - np.repeat(np.cumsum(parents) - parents, parents)
        found = []
        for s in range(0, total, step):
            par = parent[s : s + step]
            att = attr[s : s + step]
            pext = exts.take(par, axis=1)
            cext = pext & cols.take(att, axis=1)
            keep = (cext != pext).any(axis=0)
            par, att, cext = par[keep], att[keep], cext[:, keep]
            rest = masks[par]
            cand = rest | bits[att]
            for _ in range(size):
                low = rest & (~rest + np.uint64(1))
                sub = cand ^ low
                # A subset above every key of the level is missing, as is
                # one whose clipped position holds another mask.
                pos = np.minimum(np.searchsorted(masks, sub), len(masks) - 1)
                keep = masks[pos] == sub
                keep &= (exts.take(pos, axis=1) != cext).any(axis=0)
                cand, cext, rest = cand[keep], cext[:, keep], rest[keep] ^ low[keep]
            found.append((cand, cext))
        masks = np.concatenate([c for c, _ in found])
        exts = np.concatenate([e for _, e in found], axis=1)
        levels.append((masks, exts))
        size += 1
    return _WordKeys(cols, levels)


class _Keys(list):
    """A context's full key family, in lectic order, with the family's
    closures, passkeys and proper premises.

    ``enumerate_keys`` returns one, and the key-family functions below take
    it as ``keys``.  Each key is closed once for all of them, from the
    extent the search already holds, and only when one of them needs it.
    ``closures`` maps each key to its closure and iterates in the keys'
    lectic order, which the results keep.  ``_ScalarKeys`` works on Python
    ints, any width; ``_WordKeys`` on ``uint64`` words, up to 64 attributes.
    """

    closures: dict[AttrSet, AttrSet]

    def passkeys(self) -> list[AttrSet]:
        raise NotImplementedError

    def proper_premises(self) -> list[AttrSet]:
        raise NotImplementedError


class _ScalarKeys(_Keys):
    """The key family as Python ints, each key's extent in a dict."""

    def __init__(
        self, ctx: FormalContext, keys: list[AttrSet], extents: dict[AttrSet, ObjSet]
    ) -> None:
        super().__init__(keys)
        self._ctx = ctx
        self._extents = extents

    @cached_property
    def closures(self) -> dict[AttrSet, AttrSet]:
        return {k: intent_of(self._ctx, self._extents[k]) for k in self}

    def passkeys(self) -> list[AttrSet]:
        key_closures = self.closures
        best = _min_key_sizes(key_closures)
        return [k for k, c in key_closures.items() if k.bit_count() == best[c]]

    def proper_premises(self) -> list[AttrSet]:
        # Every one-element-removed subset of a key is a key, so the
        # closures the test needs are those of the family.
        key_closures = self.closures
        out = []
        for k, c in key_closures.items():
            u = k
            for j in iter_bits(k):
                u |= key_closures[k ^ (1 << j)]
            if u != c:
                out.append(k)
        return out


class _WordKeys(_Keys):
    """The key family as ``uint64`` arrays, level after level.

    ``_masks`` and ``_sizes`` hold each key and its size (its level), and
    column ``i`` of ``_extents`` its extent words, levels in order and each
    level sorted; ``_order`` is the permutation to lectic order.
    """

    def __init__(
        self, columns: np.ndarray, levels: list[tuple[np.ndarray, np.ndarray]]
    ) -> None:
        self._masks = np.concatenate([m for m, _ in levels])
        self._extents = np.concatenate([e for _, e in levels], axis=1)
        self._sizes = np.repeat(np.arange(len(levels)), [len(m) for m, _ in levels])
        self._order = lectic_order(self._masks)
        self._columns = columns
        super().__init__(self._masks[self._order].tolist())

    def _lectic(self, flags: np.ndarray) -> list[AttrSet]:
        """The keys whose ``flags`` entry is set, in lectic order."""
        return self._masks[self._order[flags[self._order]]].tolist()

    @cached_property
    def _closure_words(self) -> np.ndarray:
        """Each key's closure: attribute ``j`` is in it when the extent lies
        inside column ``j`` on every word."""
        exts = self._extents
        out = np.zeros(exts.shape[1], dtype=np.uint64)
        step = max(1, _BLOCK_WORDS // exts.shape[0])
        for s in range(0, exts.shape[1], step):
            ext = exts[:, s : s + step]
            acc = out[s : s + step]
            for j in range(self._columns.shape[1]):
                inside = ((ext & self._columns[:, j, None]) == ext).all(axis=0)
                np.bitwise_or(acc, np.uint64(1 << j), out=acc, where=inside)
        return out

    @cached_property
    def closures(self) -> dict[AttrSet, AttrSet]:
        return dict(zip(self, self._closure_words[self._order].tolist()))

    def passkeys(self) -> list[AttrSet]:
        classes, which = np.unique(self._closure_words, return_inverse=True)
        best = np.full(len(classes), self._sizes[-1])
        np.minimum.at(best, which, self._sizes)
        return self._lectic(self._sizes == best[which])

    def proper_premises(self) -> list[AttrSet]:
        # Every one-element-removed subset of a key is a key.  Keys of more
        # than t bits are a suffix of the level order; round t ORs in the
        # closure of each one's subset without its t-th lowest bit.
        masks, closures = self._masks, self._closure_words
        by_value = np.argsort(masks)
        sorted_masks, sorted_closures = masks[by_value], closures[by_value]
        union = masks.copy()
        rest = masks.copy()
        for t in range(int(self._sizes[-1])):
            s = int(np.searchsorted(self._sizes, t + 1))
            r = rest[s:]
            low = r & (~r + np.uint64(1))
            pos = np.searchsorted(sorted_masks, masks[s:] ^ low)
            union[s:] |= sorted_closures[pos]
            r ^= low
        return self._lectic(union != closures)


def _min_key_sizes(key_closures: dict[AttrSet, AttrSet]) -> dict[AttrSet, int]:
    best: dict[int, int] = {}
    for k, c in key_closures.items():
        size = k.bit_count()
        if c not in best or size < best[c]:
            best[c] = size
    return best


def enumerate_passkeys(ctx: FormalContext, keys: _Keys | None = None) -> list[AttrSet]:
    """Keys of minimum cardinality within their closure class, lectic order.

    ``keys``, when given, must be the list ``enumerate_keys(ctx)`` returned.
    """
    if keys is None:
        keys = enumerate_keys(ctx)
    return keys.passkeys()


def enumerate_proper_premises(
    ctx: FormalContext, keys: _Keys | None = None
) -> list[AttrSet]:
    """All proper premises, in lectic order (every proper premise is a key).

    ``keys``, when given, must be the list ``enumerate_keys(ctx)`` returned.
    """
    if keys is None:
        keys = enumerate_keys(ctx)
    return keys.proper_premises()


def min_key_sizes(ctx: FormalContext) -> dict[AttrSet, int]:
    """Minimum key cardinality per intent, keyed by the intent mask."""
    return _min_key_sizes(enumerate_keys(ctx).closures)


class ClassIndex:
    """Every characteristic family and the concept lattice of one context.

    Each is computed on first use and then kept, so a report or a trial
    pays only for what it reads, and only once.  Passkeys and proper
    premises share the one key family and its closures, and the basis scan
    takes the intents, so that it closes only the pseudo-intents.  The layer
    functions are looked up by module name at call time, so a wrapper
    installed over one of them sees every call.
    """

    def __init__(self, ctx: FormalContext) -> None:
        self.ctx = ctx

    @cached_property
    def intents(self) -> list[AttrSet]:
        return enumerate_intents(self.ctx)

    @cached_property
    def pseudo_intents(self) -> list[AttrSet]:
        return enumerate_pseudo_intents(self.ctx, self.intents)

    @cached_property
    def keys(self) -> _Keys:
        return enumerate_keys(self.ctx)

    @cached_property
    def passkeys(self) -> list[AttrSet]:
        return enumerate_passkeys(self.ctx, self.keys)

    @cached_property
    def proper_premises(self) -> list[AttrSet]:
        return enumerate_proper_premises(self.ctx, self.keys)

    @cached_property
    def lattice(self) -> lattice.ConceptLattice:
        return lattice.build_lattice(self.intents)

    def sizes(self, family: str) -> dict[int, int]:
        """Member count per element size of the family named ``family``.

        A family that holds its members' words (the intents) or their sizes
        (the key family on words) counts them in one ``bincount``."""
        members = getattr(self, family)
        if isinstance(members, LecticWords):
            counts = np.bincount(popcounts(members.words))
        elif isinstance(members, _WordKeys):
            counts = np.bincount(members._sizes)
        else:
            return Counter(mask.bit_count() for mask in members)
        return {size: count for size, count in enumerate(counts.tolist()) if count}


def index_classes(ctx: FormalContext) -> ClassIndex:
    """The lazily computed characteristic families of ``ctx``."""
    return ClassIndex(ctx)


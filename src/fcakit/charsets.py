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

The basis scan (``_canonical_basis_scan``) walks the intents and the
pseudo-intents in lectic order.  It takes the intents and the key family:
the keys that are intents or pseudo-intents, and their closures, come from
the key family, so the scan steps to each of them without a preclosure
and closes only the pseudo-intents that are not keys.  A candidate that is
any other key comes with the union of the closures of its one-removed
subsets, which lies inside the candidate's quasi-closure: the scan rejects
the candidate outright when that union holds a forbidden attribute, and
otherwise starts its preclosure from the union.

The intent enumeration (subset cubes of the object rows, ``_cube_intents``)
and the whole key family (``enumerate_keys``, ``_Keys``) run on numpy arrays
of attribute masks at every width: ``uint64`` words up to 64 attributes,
``object`` arrays of Python ints above (``context.mask_dtype``).  Object
sets, such as the extents of the keys, are always ``uint64`` words, and so
are the basis scan's rules (``_WordRules``), one word per 64 attributes.
The brute-force oracles, the one-subset ``classify`` and the Python twins
of the array paths live in the tests.
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
    lectic_order,
    mask_dtype,
    popcounts,
)

# The key search builds candidates, and closes keys, in blocks of about
# this many extent words (256 KB per array), as the lattice pair pass does;
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

    The masks are one array of ``mask_dtype(n)``, and the result is a
    ``LecticWords`` list, which carries that array to the lattice.  A
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

    The cubes also count the two terms of the lattice indices for each
    intent C they find (`_intent_terms`): f(C), the intents inside C, and
    g(C), the ordered pairs of intents uniting to exactly C.  The list
    carries them as ``terms``, a ``(2, len)`` ``int32`` array aligned with
    ``words``, 0 and 0 for the intents only the incremental loop found;
    the sort keeps the cubes' copy of an intent found by both.  Every
    intent enumeration pays for them, whether or not an index is asked for.
    """
    n = ctx.n_attrs
    rows = np.array(list(dict.fromkeys(ctx.rows)), dtype=mask_dtype(n))
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
    fam = np.array([universe], dtype=rows.dtype)
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
    """The intents inside the small rows, each once, as masks of the rows'
    dtype.

    ``rows`` are the distinct object rows of an ``n``-attribute context
    ordered by attribute count; the first ``len(sizes)`` of them, of
    ``sizes`` attributes each, are the small ones.

    A small row r of k attributes numbers its subsets by rank: bit t of a
    cell index stands for the t-th lowest attribute of r.  The trace of
    every row g on r is found as such an index from the attribute bit
    planes (one 0/1 ``uint16`` per row, for each attribute).  The cube of r
    starts at all ones, and the cell of each trace is set to the trace; the
    k-th bit of a cell is a flag, cleared in the cells of the traces of the
    small rows before r.  An AND fold over supersets (``lattice.fold_cube``)
    then leaves in cell T the meet of all cells above it: the intersection
    of the traces that contain T, and a clear flag when T lies inside an
    earlier small row.  Cell T holds exactly T with its flag set when T is
    an intent found here first.  Rows of one size go in blocks of about
    ``_BLOCK_WORDS`` cells, of cubes and of traces alike; a block's cubes
    are one cell-major ``(2^k, rows)`` array, so cell T of row r sits at
    ``T * rows + r``.

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
            lattice.fold_cube(cube, np.bitwise_and, supersets=True)
            hit_cell, hit_row = np.nonzero(cube == closed[:, None])
            found_rows.append(hit_row + r0)
            found_cells.append(hit_cell)
            terms = _intent_terms(cube, closed)
            found_terms.append(terms[:, hit_cell, hit_row])
    row_of = np.concatenate(found_rows)
    cell = np.concatenate(found_cells)
    bits = np.left_shift(rows.dtype.type(1), attrs.astype(rows.dtype))
    masks = np.zeros(len(cell), dtype=rows.dtype)
    for t in range(int(sizes[-1])):
        has = (cell >> t) & 1 == 1
        masks[has] |= bits[row_of[has], t]
    return masks, np.concatenate(found_terms, axis=1)


def _intent_terms(cube: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """``(f, g)`` at every cell T of a block of closed k-attribute cubes.

    f(T) counts the intents inside T: the cells holding themselves, flag
    aside, summed over subsets (``lattice.fold_cube``).  g(T) counts the
    ordered pairs of intents whose union is exactly T: the Moebius
    inversion of f^2, folded in place.  Partway through that fold, cell T
    holds a count between 0 and f(T)^2, the ordered pairs whose union lies
    inside T and holds the attributes of T folded so far.  With
    f(T) <= 2^k <= 2^14, ``int32`` cells never overflow.
    """
    terms = np.empty((2, *cube.shape), dtype=np.int32)
    f, g = terms
    np.equal(cube | closed[0], closed[:, None], out=f, casting="unsafe")
    lattice.fold_cube(f, np.add)
    np.multiply(f, f, out=g)
    lattice.fold_cube(g, np.subtract)
    return terms


_WORD = (1 << 64) - 1  # the bits of one ``uint64`` word of a mask


class _WordRules:
    """Found basis rules as growable ``uint64`` arrays, one premise array
    and one closure array per 64 attributes of an ``n``-attribute context.

    A rule fires when its premise lies inside the set on every word.  A
    preclosure round tests every rule at once and ORs together, word by
    word, the closures of all that fire; ``preclose`` returns after the
    first round that adds a ``forbidden`` bit.  ``_premises`` and
    ``_closures`` view the lowest word of the rules found so far, ``_high``
    the stores of each word above, with its shift.  Up to 64 attributes
    ``_high`` is empty and a round makes one ``np.uint64`` and three numpy
    calls: ``preclose`` tests the width once per call, not per round.
    """

    def __init__(self, n: int) -> None:
        self._premise_store = np.empty(64, dtype=np.uint64)
        self._closure_store = np.empty(64, dtype=np.uint64)
        self._premises = self._closures = self._premise_store[:0]
        self._high = [(s, *np.empty((2, 64), np.uint64)) for s in range(64, n, 64)]

    def add(self, premise: int, premise_closure: int) -> None:
        count = len(self._premises)
        if count == len(self._premise_store):
            size = 2 * count
            self._premise_store = np.resize(self._premise_store, size)
            self._closure_store = np.resize(self._closure_store, size)
            self._high = [(s, np.resize(p, size), np.resize(c, size)) for s, p, c in self._high]
        self._premise_store[count] = premise & _WORD
        self._closure_store[count] = premise_closure & _WORD
        for shift, p, c in self._high:
            p[count] = premise >> shift & _WORD
            c[count] = premise_closure >> shift & _WORD
        self._premises = self._premise_store[: count + 1]
        self._closures = self._closure_store[: count + 1]

    def preclose(self, x: int, forbidden: int) -> int:
        p, c = self._premises, self._closures
        if not len(p):
            return x
        if self._high:
            return self._preclose_words(x, forbidden, p, c)
        while True:
            w = np.uint64(x)
            y = int(np.bitwise_or.reduce(c, where=(p | w) == w, initial=w))
            if y == x or y & forbidden:
                return y
            x = y

    def _preclose_words(self, x: int, forbidden: int, p: np.ndarray, c: np.ndarray) -> int:
        high = [(shift, hp[: len(p)], hc[: len(p)]) for shift, hp, hc in self._high]
        while True:
            w = np.uint64(x & _WORD)
            fire = (p | w) == w
            for shift, hp, _ in high:
                hw = np.uint64(x >> shift & _WORD)
                fire &= (hp | hw) == hw
            y = int(np.bitwise_or.reduce(c, where=fire, initial=w))
            for shift, _, hc in high:
                hw = np.uint64(x >> shift & _WORD)
                y |= int(np.bitwise_or.reduce(hc, where=fire, initial=hw)) << shift
            if y == x or y & forbidden:
                return y
            x = y


def _canonical_basis_scan(
    ctx: FormalContext, intents: list[AttrSet], keys: _Keys
) -> list[tuple[AttrSet, AttrSet]]:
    """Lectic walk of the quasi-closed sets, collecting basis premises.

    The intents together with the premises of the minimum-cardinality
    implication basis form a closure system of their own.  Walking it in
    lectic order with the usual next-closed-set step needs only the premises
    found so far, because every premise properly contained in the current
    candidate is lectically smaller.  Returns ``(premise, premise_closure)``
    pairs in lectic order.

    Every set the walk visits is an intent or a pseudo-intent, and it visits
    them all, in lectic order.  ``intents`` must be the lectic list
    ``enumerate_intents(ctx)`` returned and ``keys`` the key family
    ``enumerate_keys(ctx)`` returned.  The walk knows in advance two kinds of
    the sets it visits: the intents, which are their own closures, and the
    quasi-closed keys (``keys.quasi_closed()``), which come with their
    closures.  A visited set of neither kind is a pseudo-intent that is not
    a key, and ``closure`` runs for those alone.

    The quasi-closed keys are the keys K such that the closure of K − {j}
    lies inside K for every j in K; they are exactly the keys that are
    intents (the free intents) or pseudo-intents.  A closed key is quasi-
    closed, as the closure of K − {j} lies inside that of K.  For a key K
    that is not closed: if every closure of K − {j} lies inside K, then so
    does the closure of every proper subset Q of K, as Q lies in some
    K − {j}, and K is a pseudo-intent.  Conversely a pseudo-intent K is
    quasi-closed: the closure of each subset lies inside K or equals that
    of K.  As K is a key, the closure of K − {j} is not that of K, so it
    lies inside K.

    The next quasi-closed key Z after the current set ``a`` needs no
    preclosure.  Let i be the first attribute in which Z and ``a`` differ;
    Z holds it, as Z follows ``a``.  The candidate x at i, the attributes
    of ``a`` before i and i itself, lies inside Z.  The intents and
    pseudo-intents are closed under intersection, so the smallest of them
    holding x, its quasi-closure q, lies inside Z.  Every subset of a key
    is a key, so q is a quasi-closed key.  It agrees with ``a`` before i
    and holds i, so it follows ``a``, and as a subset of Z it does not
    follow Z; so q is Z.  The candidates at the attributes after i come
    first and are tested as usual, as one of them may give a pseudo-intent
    that is not a key, between ``a`` and Z.  When none does, the candidate
    at i steps to Z.

    Each candidate is preclosed: extended to the smallest superset ``y``
    such that every found premise properly inside ``y`` has its closure in
    ``y``.  A premise that fires at ``x`` fires at every superset of ``x``,
    so that fixpoint does not depend on the order in which premises fire.
    This lets ``_WordRules`` fire all premises of a round at once.

    The candidate after ``a`` at attribute ``i`` is rejected when its
    preclosure gains an attribute before ``i`` that ``a`` lacks (the
    ``forbidden`` mask).  Preclosure only adds attributes, so the store
    stops as soon as one of its steps gains such an attribute, without
    running to the fixpoint, and returns that partial preclosure.

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

    A candidate that is a key but not quasi-closed is decided from its
    union ``u``, the key K with the closures of every K − {j} ORed in,
    looked up by key in ``keys.open_unions()``.  Let q(x) be the
    quasi-closure of ``x``, the smallest intent or pseudo-intent holding
    it.  The walk rejects ``x`` at ``i`` exactly when q(x) meets
    ``forbidden``, and its preclosure ``L(x)`` under the rules found so far
    lies inside q(x) and gives the same decision, equalling q(x) when it
    accepts.

    - For each j in K the closure of K − {j} is not that of K, as K is a
      key.  q(K) is quasi-closed and holds K − {j}, so that closure lies
      inside q(K); hence K ⊆ ``u`` ⊆ q(K).
    - So when ``u`` meets ``forbidden``, q(x) does, and ``x`` is rejected
      without a preclosure.  Otherwise its preclosure starts from ``u``:
      that lies between ``L(x)`` and q(x), which is closed under the rules,
      so it rejects exactly when q(x) meets ``forbidden``, and equals q(x)
      when it accepts.
    - ``(x, u)`` is kept as the record ``(x_i, y_i)`` of a rejection from
      ``u``.  A later ``x′ ⊇ x`` has q(x′) ⊇ q(x) ⊇ ``u``, so the inherited
      test stays sound.
    - A quasi-closed key is a candidate only at the key step: as a
      candidate it is its own quasi-closure, so it would be accepted as the
      next quasi-closed set, which makes it the next quasi-closed key Z,
      and the candidate at Z's step attribute steps to Z.  So the lookup
      leaves those keys out, and a candidate that is not a key keeps the
      plain path (its "union" is itself, which never meets ``forbidden``).

    The store fires a premise contained in ``x`` even when it equals ``x``,
    which is safe here: every set it tests agrees with ``a`` on the
    attributes before ``i`` and holds ``i``, which ``a`` lacks, so it is
    lectically greater than ``a`` and than every premise found so far.
    """
    n = ctx.n_attrs
    full = ctx.attribute_universe
    found: list[tuple[int, int]] = []
    rules = _WordRules(n)
    # (x_i, y_i) per attribute; (0, 0) meets no mask, so it rejects nothing.
    failed = [(0, 0)] * n
    known, known_closures = keys.quasi_closed()
    unions = keys.open_unions()

    # intents[at] and known[kat] are the first intent and the first
    # quasi-closed key the walk has not reached yet.
    at = kat = 0
    a = 0
    while True:
        if kat < len(known) and known[kat] == a:
            ca = known_closures[kat]
            kat += 1
        elif at < len(intents) and intents[at] == a:
            ca = a
        else:
            ca = closure(ctx, a)
        if ca == a:
            at += 1
        else:
            found.append((a, ca))
            rules.add(a, ca)
        # The bit of the candidate that steps to the next quasi-closed key.
        step = 0
        if kat < len(known):
            z = known[kat]
            step = (z ^ a) & -(z ^ a)
        # The candidates take the attributes a lacks, last first; the ones
        # before the current attribute form its forbidden mask.
        forbidden = full & ~a
        while forbidden:
            i = forbidden.bit_length() - 1
            bit = 1 << i
            forbidden ^= bit
            if bit == step:
                a = z
                break
            x = (a & (bit - 1)) | bit
            x_i, y_i = failed[i]
            if x_i & x == x_i and y_i & forbidden:
                continue
            u = unions.get(x, x)
            if u & forbidden:
                failed[i] = (x, u)
                continue
            y = rules.preclose(u, forbidden)
            if not y & forbidden:
                a = y
                break
            failed[i] = (x, y)
        else:
            break
    return found


def enumerate_pseudo_intents(
    ctx: FormalContext,
    intents: list[AttrSet] | None = None,
    keys: _Keys | None = None,
) -> list[AttrSet]:
    """The premises of the canonical implication basis, in lectic order.

    ``intents`` and ``keys``, when given, must be the lists
    ``enumerate_intents(ctx)`` and ``enumerate_keys(ctx)`` returned; the
    scan takes both to close only the pseudo-intents that are not keys.
    """
    if intents is None:
        intents = enumerate_intents(ctx)
    if keys is None:
        keys = enumerate_keys(ctx)
    return [p for p, _ in _canonical_basis_scan(ctx, intents, keys)]


def dg_basis(ctx: FormalContext, keys: _Keys | None = None) -> list[Implication]:
    """The minimum-cardinality implication basis of the context.

    ``keys``, when given, must be the list ``enumerate_keys(ctx)`` returned.
    """
    if keys is None:
        keys = enumerate_keys(ctx)
    scan = _canonical_basis_scan(ctx, enumerate_intents(ctx), keys)
    return [Implication(p, c & ~p) for p, c in scan]


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
    extent.

    Each level is a sorted array of key masks, of ``mask_dtype``, and a
    block of their extents, one column of ``uint64`` words per key.  The
    candidates of a level are every key ``p`` with every attribute ``m``
    above its top bit.  For each ``m`` their parents are the keys below
    ``1 << m``, a prefix of the level, so walking ``m`` upwards lists the
    candidates in ascending order and the next level needs no sort.  They
    are built in blocks of about ``_BLOCK_WORDS`` extent words.  A
    candidate with its parent's extent is rejected first.

    Each key also keeps the positions, one level down, of its subsets
    without one attribute (``subs``, one row per attribute, lowest first),
    so a candidate's own such subsets are found by index, not by value: the
    candidate ``p | 1 << m`` without the t-th lowest attribute of ``p`` is
    the candidate of the level before made of ``p``'s subset without it
    and ``m``.  ``rank`` maps each candidate of the level before to its
    position in the level, or -1 when it was rejected; a missing subset or
    one with the candidate's extent rejects the candidate.

    The list returned also carries the extent of every key it found, so the
    key-family functions below close each key from its extent.
    """
    n = ctx.n_attrs
    n_words = max(1, -(-ctx.n_objects // 64))
    cols = _object_words(ctx.columns, n_words)
    bits = np.array([1 << j for j in range(n)], dtype=mask_dtype(n))
    step = max(1, _BLOCK_WORDS // n_words)
    masks = np.zeros(1, dtype=bits.dtype)
    exts = _object_words([ctx.object_universe], n_words)
    subs = np.zeros((0, 1), dtype=np.intp)
    levels = [(masks, exts, subs)]
    # The empty key has no subsets to look up.
    rank = prev_first = np.zeros(0, dtype=np.intp)
    while True:
        parents = np.searchsorted(masks, bits)
        total = int(parents.sum())
        if not total:
            break
        attr = np.repeat(np.arange(n), parents)
        first = np.cumsum(parents) - parents
        parent = np.arange(total) - np.repeat(first, parents)
        found = []
        for s in range(0, total, step):
            flat = np.arange(s, min(total, s + step))
            par, att = parent[flat], attr[flat]
            pext = exts.take(par, axis=1)
            cext = pext & cols.take(att, axis=1)
            keep = (cext != pext).any(axis=0)
            flat, par, att, cext = flat[keep], par[keep], att[keep], cext[:, keep]
            found_subs = []
            for t in range(len(subs)):
                pos = rank[prev_first[att] + subs[t, par]]
                keep = (pos >= 0) & (exts.take(pos, axis=1) != cext).any(axis=0)
                flat, par, att, cext = flat[keep], par[keep], att[keep], cext[:, keep]
                found_subs = [row[keep] for row in found_subs] + [pos[keep]]
            found.append((masks[par] | bits[att], cext, np.array(found_subs + [par]), flat))
        masks = np.concatenate([c for c, _, _, _ in found])
        exts = np.concatenate([e for _, e, _, _ in found], axis=1)
        subs = np.concatenate([p for _, _, p, _ in found], axis=1)
        levels.append((masks, exts, subs))
        rank = np.full(total, -1)
        rank[np.concatenate([f for _, _, _, f in found])] = np.arange(len(masks))
        prev_first = first
    return _Keys(cols, levels)


def _object_words(masks: Iterable[ObjSet], n_words: int) -> np.ndarray:
    """Object sets as the columns of an ``(n_words, len(masks))`` ``uint64``
    block: object ``g`` is bit ``g % 64`` of row ``g // 64``.  Word-major
    rows make the per-set reductions run along the fast axis."""
    data = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    rows = np.frombuffer(data, dtype="<u8").reshape(-1, n_words)
    return np.ascontiguousarray(rows.T, dtype=np.uint64)


class _Keys(list):
    """A context's full key family, in lectic order, with the family's
    closures, passkeys, proper premises and quasi-closed keys.

    ``enumerate_keys`` returns one, and the key-family functions below and
    the basis scan take it as ``keys``.  Each key is closed once for all of
    them, from the extent the search already holds, and only when one of
    them needs it.  ``closures`` maps each key to its closure and iterates
    in the keys' lectic order, which the results keep.

    The family is held as arrays, level after level: ``_masks`` and
    ``_sizes`` hold each key, of ``mask_dtype``, and its size (its level),
    and column ``i`` of ``_extents`` its extent words, levels in order and
    each level sorted; ``_order`` is the permutation to lectic order.

    Every one-element-removed subset of a key is a key, so the union of a
    key K with the closures of every K − {j} (``_unions``, kept once
    computed) takes only closures of the family.  K is a proper premise
    when that union is not the closure of K, and quasi-closed when it is K;
    the basis scan reads the union of every other key (``open_unions``).
    """

    def __init__(
        self,
        columns: np.ndarray,
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        self._masks = np.concatenate([m for m, _, _ in levels])
        self._extents = np.concatenate([e for _, e, _ in levels], axis=1)
        counts = [len(m) for m, _, _ in levels]
        self._sizes = np.repeat(np.arange(len(levels)), counts)
        self._subs = [p for _, _, p in levels]
        self._order = lectic_order(self._masks)
        self._columns = columns
        super().__init__(self._masks[self._order].tolist())

    def _lectic(self, flags: np.ndarray) -> np.ndarray:
        """The positions of the keys whose ``flags`` entry is set, in
        lectic order."""
        return self._order[flags[self._order]]

    @cached_property
    def _closure_words(self) -> np.ndarray:
        """Each key's closure: attribute ``j`` is in it when the extent lies
        inside column ``j`` on every word.  Each 64 attributes gather in one
        ``uint64`` word, shifted into the closures once."""
        exts = self._extents
        n = self._columns.shape[1]
        out = np.zeros(exts.shape[1], dtype=self._masks.dtype)
        step = max(1, _BLOCK_WORDS // exts.shape[0])
        for s in range(0, exts.shape[1], step):
            ext = exts[:, s : s + step]
            for w in range(0, n, 64):
                word = np.zeros(ext.shape[1], dtype=np.uint64)
                for j in range(w, min(n, w + 64)):
                    inside = ((ext & self._columns[:, j, None]) == ext).all(axis=0)
                    np.bitwise_or(word, np.uint64(1 << (j - w)), out=word, where=inside)
                out[s : s + step] |= word.astype(out.dtype) << w
        return out

    @cached_property
    def closures(self) -> dict[AttrSet, AttrSet]:
        return dict(zip(self, self._closure_words[self._order].tolist()))

    def passkeys(self) -> list[AttrSet]:
        classes, which = np.unique(self._closure_words, return_inverse=True)
        best = np.full(len(classes), self._sizes[-1])
        np.minimum.at(best, which, self._sizes)
        return self._masks[self._lectic(self._sizes == best[which])].tolist()

    @cached_property
    def _unions(self) -> np.ndarray:
        # Level k starts at start[k]; each key ORs in the closures of its
        # one-removed subsets, at the positions ``subs`` keeps one level down.
        union = self._masks.copy()
        closures = self._closure_words
        start = np.searchsorted(self._sizes, np.arange(len(self._subs) + 1))
        for k, subs in enumerate(self._subs[1:], 1):
            level = union[start[k] : start[k + 1]]
            for row in subs:
                level |= closures[start[k - 1] + row]
        return union

    def proper_premises(self) -> list[AttrSet]:
        return self._masks[self._lectic(self._unions != self._closure_words)].tolist()

    @cached_property
    def _is_quasi_closed(self) -> np.ndarray:
        return self._unions == self._masks

    def quasi_closed(self) -> tuple[list[AttrSet], list[AttrSet]]:
        """The quasi-closed keys, which are the keys that are intents or
        pseudo-intents, and their closures, as two lists in lectic order."""
        known = self._lectic(self._is_quasi_closed)
        return self._masks[known].tolist(), self._closure_words[known].tolist()

    def open_unions(self) -> dict[AttrSet, AttrSet]:
        """The union of every key that is not quasi-closed, by key."""
        rest = ~self._is_quasi_closed
        return dict(zip(self._masks[rest].tolist(), self._unions[rest].tolist()))


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
    best: dict[AttrSet, int] = {}
    for k, c in enumerate_keys(ctx).closures.items():
        size = k.bit_count()
        if c not in best or size < best[c]:
            best[c] = size
    return best


class ClassIndex:
    """Every characteristic family and the concept lattice of one context.

    Each is computed on first use and then kept, so a report or a trial
    pays only for what it reads, and only once.  Passkeys, proper premises
    and the basis scan share the one key family and its closures, and the
    scan also takes the intents, so that it closes only the pseudo-intents
    that are not keys.  The layer functions are looked up by module name at
    call time, so a wrapper installed over one of them sees every call.
    """

    # The five families, in the order the reports list them.
    FAMILIES = ("intents", "pseudo_intents", "proper_premises", "keys", "passkeys")

    def __init__(self, ctx: FormalContext) -> None:
        self.ctx = ctx

    @cached_property
    def intents(self) -> list[AttrSet]:
        return enumerate_intents(self.ctx)

    @cached_property
    def pseudo_intents(self) -> list[AttrSet]:
        return enumerate_pseudo_intents(self.ctx, self.intents, self.keys)

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

        A family that holds its members' masks (the intents) or their sizes
        (the key family) counts them in one ``bincount``."""
        members = getattr(self, family)
        if isinstance(members, LecticWords):
            counts = np.bincount(popcounts(members.words))
        elif isinstance(members, _Keys):
            counts = np.bincount(members._sizes)
        else:
            return Counter(mask.bit_count() for mask in members)
        return {size: count for size, count in enumerate(counts.tolist()) if count}


def index_classes(ctx: FormalContext) -> ClassIndex:
    """The lazily computed characteristic families of ``ctx``."""
    return ClassIndex(ctx)


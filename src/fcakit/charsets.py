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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import lattice
from .context import (
    AttrSet,
    FormalContext,
    ObjSet,
    closure,
    extent,
    intent_of,
    iter_bits,
    lectic_sorted,
)


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

    Every intent is the intersection of some subfamily of object rows (the
    empty subfamily giving the full attribute set), so one incremental pass
    over the distinct rows collects exactly the closure fixed points.  The
    family stays closed under intersection after every row: meeting it with
    a row adds the intersections that take that row in, and only those.  So
    the result is exactly the set of row intersections plus the universe.

    Contexts of up to 64 attributes keep the family as a sorted ``uint64``
    array: each row meets all members at once, the new meets are found by
    binary search, and a stable sort merges the two sorted runs in linear
    time.  Wider contexts use a Python set; both give the same list.
    """
    n = ctx.n_attrs
    if n > 64:
        family = {ctx.attribute_universe}
        for row in ctx.rows:
            family.update([f & row for f in family])
        return lectic_sorted(family, n)
    # The universe is the largest word and always a member, so every search
    # position below is a valid index.
    fam = np.array([ctx.attribute_universe], dtype=np.uint64)
    for row in dict.fromkeys(ctx.rows):
        cand = np.sort(fam & np.uint64(row))
        distinct = np.ones(len(cand), dtype=bool)
        np.not_equal(cand[1:], cand[:-1], out=distinct[1:])
        cand = cand[distinct]
        new = cand[fam[np.searchsorted(fam, cand)] != cand]
        if len(new):
            fam = np.sort(np.concatenate((fam, new)), kind="stable")
    return lectic_sorted(fam.tolist(), n)


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
    adds a ``forbidden`` bit, returning the set as it stands then.
    """

    def __init__(self) -> None:
        self._premises = np.empty(64, dtype=np.uint64)
        self._closures = np.empty(64, dtype=np.uint64)
        self._count = 0

    def add(self, premise: int, premise_closure: int) -> None:
        if self._count == len(self._premises):
            self._premises = np.resize(self._premises, 2 * self._count)
            self._closures = np.resize(self._closures, 2 * self._count)
        self._premises[self._count] = premise
        self._closures[self._count] = premise_closure
        self._count += 1

    def preclose(self, x: int, forbidden: int) -> int:
        if not self._count:
            return x
        p = self._premises[: self._count]
        c = self._closures[: self._count]
        w = np.uint64(x)
        while True:
            y = np.bitwise_or.reduce(c, where=(p & ~w) == 0, initial=w)
            if y == w or int(y) & forbidden:
                return int(y)
            w = y


def _canonical_basis_scan(ctx: FormalContext) -> list[tuple[AttrSet, AttrSet]]:
    """Lectic walk of the quasi-closed sets, collecting basis premises.

    The intents together with the premises of the minimum-cardinality
    implication basis form a closure system of their own.  Walking it in
    lectic order with the usual next-closed-set step needs only the premises
    found so far, because every premise properly contained in the current
    candidate is lectically smaller.  Returns ``(premise, premise_closure)``
    pairs in lectic order.

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

    a = 0
    while True:
        ca = closure(ctx, a)
        if ca != a:
            found.append((a, ca))
            rules.add(a, ca)
        if a == full:
            break
        work = a
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if work & bit:
                work ^= bit
                continue
            x = work | bit
            forbidden = ~work & (bit - 1)
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


def enumerate_pseudo_intents(ctx: FormalContext) -> list[AttrSet]:
    """The premises of the canonical implication basis, in lectic order."""
    return [p for p, _ in _canonical_basis_scan(ctx)]


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


def is_proper_premise(ctx: FormalContext, attrs: AttrSet) -> bool:
    """True iff ``attrs`` closes to something no proper subset accounts for.

    The test is whether the union of ``attrs`` with the closures of its
    one-element-removed subsets falls short of the closure of ``attrs``.
    """
    u = attrs
    for j in iter_bits(attrs):
        u |= closure(ctx, attrs ^ (1 << j))
    return u != closure(ctx, attrs)


def enumerate_keys(ctx: FormalContext) -> _Keys:
    """All minimal generators, in lectic order.

    Levelwise search: a set can only be a key if every one-element-removed
    subset is a key (freeness is anti-monotone), so level ``k + 1``
    candidates are built from level-``k`` keys and rejected as soon as a
    single-element removal preserves the extent.

    The list returned also carries the extent of every key it found, so the
    key-family functions below close each key from its extent.
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
    return _Keys(ctx, lectic_sorted(extents, n), extents)


class _Keys(list):
    """A context's full key family, carrying the extent of every key.

    ``enumerate_keys`` returns one, and the key-family functions below take
    it as ``keys``.  ``closures`` closes each key once for all of them, from
    the extent the search already holds, and only when one of them needs it.
    """

    def __init__(
        self, ctx: FormalContext, keys: list[AttrSet], extents: dict[AttrSet, ObjSet]
    ) -> None:
        super().__init__(keys)
        self._ctx = ctx
        self._extents = extents

    @cached_property
    def closures(self) -> dict[AttrSet, AttrSet]:
        return {k: intent_of(self._ctx, self._extents[k]) for k in self}


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
    key_closures = keys.closures
    best = _min_key_sizes(key_closures)
    out = [k for k, c in key_closures.items() if k.bit_count() == best[c]]
    return lectic_sorted(out, ctx.n_attrs)


def enumerate_proper_premises(
    ctx: FormalContext, keys: _Keys | None = None
) -> list[AttrSet]:
    """All proper premises, in lectic order (every proper premise is a key).

    ``keys``, when given, must be the list ``enumerate_keys(ctx)`` returned.
    Every one-element-removed subset of a key is a key (freeness is
    anti-monotone), so the closures the test needs are those of the family.
    """
    if keys is None:
        keys = enumerate_keys(ctx)
    key_closures = keys.closures
    out = []
    for k, c in key_closures.items():
        u = k
        for j in iter_bits(k):
            u |= key_closures[k ^ (1 << j)]
        if u != c:
            out.append(k)
    return out


def min_key_sizes(ctx: FormalContext, keys: _Keys | None = None) -> dict[AttrSet, int]:
    """Minimum key cardinality per intent, keyed by the intent mask.

    ``keys``, when given, must be the list ``enumerate_keys(ctx)`` returned.
    """
    if keys is None:
        keys = enumerate_keys(ctx)
    return _min_key_sizes(keys.closures)


class ClassIndex:
    """Every characteristic family and the concept lattice of one context.

    Each is computed on first use and then kept, so a report or a trial
    pays only for what it reads, and only once.  Passkeys and proper
    premises share the one key family and its closures.  The layer
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
        return enumerate_pseudo_intents(self.ctx)

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
        """Member count per element size of the family named ``family``."""
        out: dict[int, int] = {}
        for mask in getattr(self, family):
            out[mask.bit_count()] = out.get(mask.bit_count(), 0) + 1
        return out


def index_classes(ctx: FormalContext) -> ClassIndex:
    """The lazily computed characteristic families of ``ctx``."""
    return ClassIndex(ctx)


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

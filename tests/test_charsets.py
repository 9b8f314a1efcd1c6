"""Characteristic-family enumeration against frozen values and literal oracles."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from fcakit import (
    CapacityError,
    CharFlags,
    FormalContext,
    Implication,
    build_lattice,
    closure,
    dg_basis,
    distributivity,
    enumerate_intents,
    enumerate_keys,
    enumerate_passkeys,
    enumerate_proper_premises,
    enumerate_pseudo_intents,
    implication_closure,
    index_classes,
    linearity,
)
from fcakit import charsets, lattice
from fcakit.charsets import (
    _canonical_basis_scan,
    _WordRules,
    min_key_sizes,
)
from fcakit.context import LecticWords, bit_reverse, iter_bits, lectic_sorted, mask_dtype
from fcakit.randomize import DEFAULT_METRICS, evaluate_metrics

from conftest import (
    contexts,
    contranominal_context,
    fuzz_contexts,
    names,
    nominal_context,
    realistic_context,
    staircase_context,
)
from oracles import (
    brute_force_all,
    brute_force_class,
    classify,
    is_proper_premise,
    pair_loop,
    scalar_keys,
)


def all_masks(ctx: FormalContext) -> range:
    return range(1 << ctx.n_attrs)


class TestIntents:
    def test_toy_contains_known_intents(self, toy):
        intents = enumerate_intents(toy)
        assert toy.attrs_mask("bc") in intents
        assert toy.attribute_universe in intents
        assert len(intents) == len(brute_force_class(toy, "intent"))

    def test_nominal_three(self):
        ctx = nominal_context(3)
        got = names(ctx, enumerate_intents(ctx))
        assert got == {
            frozenset(),
            frozenset({"m0"}),
            frozenset({"m1"}),
            frozenset({"m2"}),
            frozenset({"m0", "m1", "m2"}),
        }

    def test_output_is_lectic(self, toy):
        intents = enumerate_intents(toy)
        ranks = [bit_reverse(m, toy.n_attrs) for m in intents]
        assert ranks == sorted(ranks)

    def test_empty_shapes(self):
        no_attrs = FormalContext(("g",), (), (0,))
        assert enumerate_intents(no_attrs) == [0]
        no_objects = FormalContext((), ("a", "b"), ())
        assert enumerate_intents(no_objects) == [0b11]


class TestPseudoIntents:
    def test_toy_exact(self, toy):
        expected = {
            frozenset("b"),
            frozenset("e"),
            frozenset({"c", "d"}),
            frozenset({"a", "b", "c"}),
        }
        assert names(toy, enumerate_pseudo_intents(toy)) == expected

    def test_every_subset_closed_means_none(self):
        ctx = contranominal_context(3)
        assert enumerate_pseudo_intents(ctx) == []

    def test_nominal_three_gives_pairs(self):
        ctx = nominal_context(3)
        got = names(ctx, enumerate_pseudo_intents(ctx))
        assert got == names(ctx, brute_force_class(ctx, "pseudo_intent"))
        assert got == {
            frozenset({"m0", "m1"}),
            frozenset({"m0", "m2"}),
            frozenset({"m1", "m2"}),
        }

    def test_strict_and_nonstrict_containment_coincide(self, toy):
        # A premise's closure is itself closed, so it can never equal a
        # non-closed candidate: requiring it to sit strictly inside the
        # candidate changes nothing.  Checked explicitly on the toy context.
        pseudo = enumerate_pseudo_intents(toy)
        for p in pseudo:
            for q in pseudo:
                if q != p and q & p == q:
                    qc = closure(toy, q)
                    assert qc & p == qc and qc != p


class TestDgBasis:
    def test_toy_basis(self, toy):
        basis = dg_basis(toy)
        assert len(basis) == 4
        premises = names(toy, [imp.premise for imp in basis])
        assert premises == names(toy, enumerate_pseudo_intents(toy))
        by_premise = {imp.premise: imp.conclusion for imp in basis}
        b = toy.attrs_mask("b")
        assert by_premise[b] == closure(toy, b) & ~b

    def test_contranominal_empty_basis(self):
        assert dg_basis(contranominal_context(3)) == []

    def test_nominal_three_implications(self):
        ctx = nominal_context(3)
        basis = dg_basis(ctx)
        assert len(basis) == 3
        for imp in basis:
            assert imp.premise.bit_count() == 2
            assert imp.premise | imp.conclusion == ctx.attribute_universe

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Implication(0b11, 0b01)

    def test_soundness_and_completeness_on_toy(self, toy):
        basis = dg_basis(toy)
        for b in all_masks(toy):
            assert implication_closure(b, basis) == closure(toy, b)

    def test_minimality_on_toy(self, toy):
        basis = dg_basis(toy)
        for i in range(len(basis)):
            reduced = basis[:i] + basis[i + 1 :]
            assert any(
                implication_closure(b, reduced) != closure(toy, b)
                for b in all_masks(toy)
            )


class TestImplicationClosure:
    def test_single_application(self, toy):
        basis = dg_basis(toy)
        assert implication_closure(toy.attrs_mask("b"), basis) == toy.attrs_mask("bc")

    def test_empty_basis_identity(self):
        assert implication_closure(0b101, []) == 0b101

    def test_top_is_model(self, toy):
        full = toy.attribute_universe
        assert implication_closure(full, dg_basis(toy)) == full

    def test_cascade(self):
        basis = [Implication(0b001, 0b010), Implication(0b011, 0b100)]
        assert implication_closure(0b001, basis) == 0b111


class TestProperPremises:
    def test_toy_known_values(self, toy):
        assert is_proper_premise(toy, toy.attrs_mask("ab"))
        assert not is_proper_premise(toy, 0)  # empty set is closed here
        assert not is_proper_premise(toy, toy.attrs_mask("a"))  # closed singleton
        assert is_proper_premise(toy, toy.attrs_mask("cd"))

    def test_toy_acd(self, toy):
        # Union of {a,c,d} with the closures of its two-element subsets is
        # {a,c,d} | {b,c,d} | {a,d} | {a,c} = {a,b,c,d}, short of the full
        # closure {a,b,c,d,e}; so {a,c,d} properly contributes e.
        acd = toy.attrs_mask("acd")
        u = acd
        for j in (0, 2, 3):
            u |= closure(toy, acd ^ (1 << j))
        assert u == toy.attrs_mask("abcd")
        assert closure(toy, acd) == toy.attribute_universe
        assert is_proper_premise(toy, acd)

    def test_subset_of_keys(self, toy):
        keys = set(enumerate_keys(toy))
        assert set(enumerate_proper_premises(toy)) <= keys

    def test_directness_one_pass_on_toy(self, toy):
        premises = enumerate_proper_premises(toy)
        pp_closures = [(p, closure(toy, p)) for p in premises]
        for b in all_masks(toy):
            u = b
            for p, c in pp_closures:
                if p & b == p:
                    u |= c
            assert u == closure(toy, b)


class TestKeys:
    def test_toy_contains_acd(self, toy):
        assert toy.attrs_mask("acd") in enumerate_keys(toy)

    def test_empty_set_always_a_key(self, toy):
        assert 0 in enumerate_keys(toy)
        assert 0 in enumerate_keys(nominal_context(2))

    def test_zero_attribute_context(self):
        ctx = FormalContext(("g",), (), (0,))
        assert enumerate_keys(ctx) == [0]
        assert brute_force_class(ctx, "key") == [0]


class TestPasskeys:
    def test_toy_values(self, toy):
        passkeys = set(enumerate_passkeys(toy))
        assert toy.attrs_mask("bd") in passkeys
        assert closure(toy, toy.attrs_mask("bd")) == toy.attrs_mask("bcd")
        # {a,c,d} generates the full set, but {e} is a smaller generator.
        assert toy.attrs_mask("acd") not in passkeys
        assert toy.attrs_mask("e") in passkeys

    def test_chain_unique_key_is_passkey(self):
        for n in (2, 4, 6):
            ctx = staircase_context(n)
            by_closure: dict[int, list[int]] = {}
            for k in brute_force_class(ctx, "key"):
                by_closure.setdefault(closure(ctx, k), []).append(k)
            assert all(len(ks) == 1 for ks in by_closure.values())
            assert set(enumerate_passkeys(ctx)) == set(enumerate_keys(ctx))

    def test_min_key_sizes_agree_with_passkeys(self, toy):
        sizes = min_key_sizes(toy)
        for k in enumerate_passkeys(toy):
            assert k.bit_count() == sizes[closure(toy, k)]


class TestClassify:
    def test_toy_bc_is_intent(self, toy):
        flags = classify(toy, toy.attrs_mask("bc"), enumerate_pseudo_intents(toy))
        assert flags.is_intent and not flags.is_pseudo_intent

    def test_toy_e_flags(self, toy):
        flags = classify(toy, toy.attrs_mask("e"), enumerate_pseudo_intents(toy))
        assert flags == CharFlags(
            is_intent=False,
            is_pseudo_intent=True,
            is_key=True,
            is_passkey=True,
            is_proper_premise=True,
        )

    def test_toy_full_set_is_intent(self, toy):
        flags = classify(toy, toy.attribute_universe, enumerate_pseudo_intents(toy))
        assert flags.is_intent

    def test_toy_ab_marks_proper_premise(self, toy):
        flags = classify(toy, toy.attrs_mask("ab"), enumerate_pseudo_intents(toy))
        assert flags.is_proper_premise and flags.is_key

    def test_index_and_on_demand_paths_agree(self, toy):
        pseudo = enumerate_pseudo_intents(toy)
        sizes = min_key_sizes(toy)
        for mask in all_masks(toy):
            assert classify(toy, mask, pseudo) == classify(
                toy, mask, pseudo, min_key_size_index=sizes
            )

    def test_flag_invariants_rejected(self):
        with pytest.raises(ValueError):
            CharFlags(is_passkey=True, is_key=False)
        with pytest.raises(ValueError):
            CharFlags(is_proper_premise=True, is_key=False)
        with pytest.raises(ValueError):
            CharFlags(is_intent=True, is_pseudo_intent=True)


class TestBruteForceOracle:
    def test_unknown_class(self, toy):
        with pytest.raises(ValueError, match="unknown class"):
            brute_force_class(toy, "nonsense")

    def test_capacity_guard(self):
        wide = FormalContext((), tuple(f"m{i}" for i in range(26)), ())
        with pytest.raises(CapacityError):
            brute_force_class(wide, "intent")

    def test_generator_class_is_power_set(self, toy):
        assert len(brute_force_class(toy, "generator")) == 32


class TestOracleEquivalence:
    PAIRS = (
        ("intent", enumerate_intents),
        ("pseudo_intent", enumerate_pseudo_intents),
        ("key", enumerate_keys),
        ("passkey", enumerate_passkeys),
        ("proper_premise", enumerate_proper_premises),
    )

    @given(contexts(max_objects=6, max_attrs=7))
    @settings(max_examples=50, deadline=None)
    def test_fast_paths_match_literal_scans(self, ctx):
        oracle = brute_force_all(ctx)
        for name, fast in self.PAIRS:
            assert set(fast(ctx)) == set(oracle[name]), name

    def test_on_deterministic_corpus(self):
        for ctx in fuzz_contexts(25, max_objects=6, max_attrs=8, seed=99):
            oracle = brute_force_all(ctx)
            for name, fast in self.PAIRS:
                assert set(fast(ctx)) == set(oracle[name]), name

    def test_families_in_lectic_order(self):
        for ctx in fuzz_contexts(200, max_objects=10, max_attrs=10, seed=0x1EC):
            for name, fast in self.PAIRS:
                family = list(fast(ctx))
                assert family == lectic_sorted(family, ctx.n_attrs), name


class TestClassAlgebra:
    def test_invariants_on_corpus(self):
        for ctx in fuzz_contexts(30, max_objects=7, max_attrs=8, seed=7):
            index = index_classes(ctx)
            intents = set(index.intents)
            keys = set(index.keys)
            assert set(index.passkeys) <= keys
            assert set(index.proper_premises) <= keys
            assert not intents & set(index.pseudo_intents)
            for k in keys:
                assert closure(ctx, k) in intents
            covered_by_keys = {closure(ctx, k) for k in index.keys}
            covered_by_passkeys = {closure(ctx, k) for k in index.passkeys}
            assert covered_by_keys == intents
            assert covered_by_passkeys == intents

    def test_dg_equivalence_on_corpus(self):
        for ctx in fuzz_contexts(15, max_objects=6, max_attrs=7, seed=21):
            basis = dg_basis(ctx)
            for b in all_masks(ctx):
                assert implication_closure(b, basis) == closure(ctx, b)

    def test_dg_equivalence_exhaustive_twelve_attributes(self):
        for ctx in fuzz_contexts(
            3, max_objects=8, max_attrs=12, min_objects=6, min_attrs=12, seed=77
        ):
            basis = dg_basis(ctx)
            for b in all_masks(ctx):
                assert implication_closure(b, basis) == closure(ctx, b)

    def test_directness_on_corpus(self):
        for ctx in fuzz_contexts(15, max_objects=6, max_attrs=7, seed=22):
            pp = [(p, closure(ctx, p)) for p in enumerate_proper_premises(ctx)]
            for b in all_masks(ctx):
                u = b
                for p, c in pp:
                    if p & b == p:
                        u |= c
                assert u == closure(ctx, b)


def scalar_basis_scan(
    ctx: FormalContext, tested: list[int] | None = None
) -> list[tuple[int, int]]:
    """Reference canonical-basis scan: one premise at a time on Python ints.

    A copy of the library's original loop, kept as the twin of the
    word-parallel kernel.  ``tested``, when given, collects every candidate
    the loop preclosed, in order.
    """
    n = ctx.n_attrs
    full = ctx.attribute_universe
    found: list[tuple[int, int]] = []

    def preclose(x: int) -> int:
        changed = True
        while changed:
            changed = False
            for p, c in found:
                if p & x == p and p != x and c | x != x:
                    x |= c
                    changed = True
        return x

    a = 0
    while True:
        ca = closure(ctx, a)
        if ca != a:
            found.append((a, ca))
        if a == full:
            break
        nxt = None
        work = a
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if work & bit:
                work ^= bit
            else:
                if tested is not None:
                    tested.append(work | bit)
                cand = preclose(work | bit)
                if not (cand & ~work) & (bit - 1):
                    nxt = cand
                    break
        if nxt is None:
            break
        a = nxt
    return found


def wide_context(width: int, n_objects: int, seed: int) -> FormalContext:
    """Random rows over ``width`` attributes; odd objects have the top one."""
    rnd = random.Random(seed)
    top = 1 << (width - 1)
    rows = []
    for g in range(n_objects):
        density = rnd.uniform(0.2, 0.8)
        row = sum(1 << j for j in range(width) if rnd.random() < density)
        rows.append(row | top if g % 2 else row & ~top)
    return FormalContext(
        tuple(f"g{k}" for k in range(n_objects)),
        tuple(f"m{k}" for k in range(width)),
        tuple(rows),
    )


def reference_preclose(rules: list[tuple[int, int]], x: int) -> int:
    """Plain fixpoint: a rule fires when its premise is a proper subset."""
    changed = True
    while changed:
        changed = False
        for p, c in rules:
            if p & x == p and p != x and c | x != x:
                x |= c
                changed = True
    return x


def scan_step_case(
    rnd: random.Random, width: int
) -> tuple[list[tuple[int, int]], int, int]:
    """Random rules and a candidate shaped like one step of the basis scan.

    Every mask uses ten random attributes out of ``width``, the top one
    always among them.  The candidate ``x`` is ``work | bit`` for some
    attribute ``i`` and ``work`` before it, plus attributes after ``i``;
    ``forbidden`` is the attributes before ``i`` that ``work`` lacks.  As in
    the scan, no premise agrees with ``x`` on the attributes up to ``i``.
    Returns ``(rules, x, forbidden)``; closures contain their premises.
    """
    attrs = rnd.sample(range(width - 1), 9) + [width - 1]

    def subset(prob: float) -> int:
        return sum(1 << j for j in attrs if rnd.random() < prob)

    bit = 1 << rnd.choice(attrs)
    head = (bit << 1) - 1
    work = subset(0.5) & (bit - 1)
    x = work | bit | (subset(0.3) & ~head)
    rules = []
    for _ in range(rnd.randint(0, 100)):
        p = subset(0.4)
        if p & head != x & head:
            rules.append((p, p | subset(0.1)))
    return rules, x, ~work & (bit - 1)


def basis_scan(ctx: FormalContext) -> list[tuple[int, int]]:
    """The library scan, given the intents and the key family."""
    return _canonical_basis_scan(ctx, enumerate_intents(ctx), enumerate_keys(ctx))


class TestBasisScanKernels:
    """The scan on its one rule store, ``uint64`` words of 64 attributes
    each at every width, against the reference loop, list for list."""

    def test_fuzz_corpus(self):
        # The acceptance suite's corpus: substantial shapes, then degenerate ones.
        corpus = fuzz_contexts(
            170, max_objects=8, max_attrs=10, min_objects=4, min_attrs=6, seed=0xACCE
        ) + fuzz_contexts(30, max_objects=4, max_attrs=4, seed=0xACCE + 1)
        for ctx in corpus:
            assert basis_scan(ctx) == scalar_basis_scan(ctx)

    @pytest.mark.parametrize("width", [62, 63, 64])
    def test_word_path_near_64_bits(self, width):
        ctx = wide_context(width, 6, seed=width)
        found = basis_scan(ctx)
        assert found == scalar_basis_scan(ctx)
        top = 1 << (width - 1)
        assert any(p & top for p, _ in found)

    @pytest.mark.parametrize("width", [65, 70, 127, 128, 129])
    def test_scalar_path_beyond_64_bits(self, width):
        # Two words, then three: at 127, 128 and 129 attributes the top
        # attribute sits just below, on and just above a word edge.
        ctx = wide_context(width, 6, seed=width)
        found = basis_scan(ctx)
        assert found == scalar_basis_scan(ctx)
        assert any(p >> 64 for p, _ in found)
        assert any(p >> (width - 1) for p, _ in found)

    @pytest.mark.parametrize(
        "store, width",
        [(_WordRules, 64), (_WordRules, 70), (_WordRules, 128), (_WordRules, 130)],
    )
    def test_preclose_rejects_exactly_when_fixpoint_meets_forbidden(
        self, store, width
    ):
        # One to three words; up to 100 rules cross the store's growth at 64.
        rnd = random.Random(width)
        top = 1 << (width - 1)
        rejected = kept = gained_top = 0
        for _ in range(400):
            rules, x, forbidden = scan_step_case(rnd, width)
            rs = store(width)
            for p, c in rules:
                rs.add(p, c)
            want = reference_preclose(rules, x)
            got = rs.preclose(x, forbidden)
            assert bool(got & forbidden) == bool(want & forbidden)
            if want & forbidden:
                # The partial preclosure that met ``forbidden``.
                assert x & ~got == 0 and got & ~want == 0
                rejected += 1
            else:
                assert got == want
                kept += 1
                gained_top += bool(want & top and not x & top)
        assert rejected > 50 and kept > 50 and gained_top > 5

    def test_realistic_scale(self):
        ctx = realistic_context()
        assert basis_scan(ctx) == scalar_basis_scan(ctx)


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that logs each call's arguments."""
    calls: list = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestPseudoIntentsFromIntents:
    """The scan takes the intents and the key family on every route:
    ``enumerate_pseudo_intents`` with and without each of them, and
    ``dg_basis`` with and without the keys, give the same premises, with
    ``closure`` run for the pseudo-intents that are not keys alone, in
    lectic order."""

    def assert_same_scan(self, monkeypatch, ctx: FormalContext) -> list[int]:
        closures = count_calls(monkeypatch, charsets, "closure")
        intents = enumerate_intents(ctx)
        keys = enumerate_keys(ctx)
        plain = enumerate_pseudo_intents(ctx)
        key_set = set(keys)
        unkeyed = [p for p in plain if p not in key_set]
        routes = {
            "plain": lambda: plain,
            "intents": lambda: enumerate_pseudo_intents(ctx, intents),
            "keys": lambda: enumerate_pseudo_intents(ctx, keys=keys),
            "both": lambda: enumerate_pseudo_intents(ctx, intents, keys),
            "dg_basis": lambda: [imp.premise for imp in dg_basis(ctx)],
            "dg_basis keys": lambda: [imp.premise for imp in dg_basis(ctx, keys)],
        }
        for route, premises in routes.items():
            assert premises() == plain, route
            assert [attrs for _, attrs in closures] == unkeyed, route
            closures.clear()
        assert _canonical_basis_scan(ctx, intents, keys) == scalar_basis_scan(ctx)
        return plain

    def test_fuzz_corpus_against_oracle(self, monkeypatch):
        for ctx in acceptance_corpus()[::2]:
            pseudo = self.assert_same_scan(monkeypatch, ctx)
            assert pseudo == brute_force_class(ctx, "pseudo_intent")

    def test_realistic_scale(self, monkeypatch):
        # ``test_realistic_scale_families_match_oracle`` holds this context's
        # ``ClassIndex`` families, which pass the intents and the keys, to
        # the oracle.
        self.assert_same_scan(monkeypatch, realistic_context())

    @pytest.mark.parametrize("width", [64, 65, 70, 130])
    def test_both_rule_stores(self, monkeypatch, width):
        # At every width the scan keeps its rules in one ``_WordRules`` of
        # the context's width: one store for each of the six routes and the
        # last scan.
        ctx = wide_context(width, 6, seed=width)
        stores = count_calls(monkeypatch, charsets, "_WordRules")
        pseudo = self.assert_same_scan(monkeypatch, ctx)
        assert stores == [(width,)] * 7 and pseudo
        assert any(p >> 63 for p in pseudo)

    def test_class_index_closes_only_the_pseudo_intents(self, monkeypatch):
        # Only those that are not keys: the others come with the key family.
        ctx = realistic_context()
        want = enumerate_pseudo_intents(ctx)
        intent_calls = count_calls(monkeypatch, charsets, "enumerate_intents")
        key_calls = count_calls(monkeypatch, charsets, "enumerate_keys")
        closures = count_calls(monkeypatch, charsets, "closure")
        index = index_classes(ctx)
        index.intents
        pseudo = index.pseudo_intents
        assert pseudo == want
        assert len(intent_calls) == len(key_calls) == 1
        key_set = set(index.keys)
        unkeyed = [p for p in pseudo if p not in key_set]
        assert [attrs for _, attrs in closures] == unkeyed
        assert unkeyed and len(unkeyed) < len(pseudo)


def record_scan(monkeypatch, ctx: FormalContext) -> tuple[list[tuple[int, int]], list]:
    """Run the scan with its rule store logging every call made to it.

    Returns the scan's result and the log: ``("add", premise, closure)`` and
    ``("preclose", x, forbidden, result)`` tuples, in call order.
    """
    log: list = []

    def recording(store):
        class Recording(store):
            def add(self, premise, premise_closure):
                log.append(("add", premise, premise_closure))
                super().add(premise, premise_closure)

            def preclose(self, x, forbidden):
                y = super().preclose(x, forbidden)
                log.append(("preclose", x, forbidden, y))
                return y

        return Recording

    monkeypatch.setattr(charsets, "_WordRules", recording(_WordRules))
    return basis_scan(ctx), log


def key_unions(ctx: FormalContext) -> dict[int, int]:
    """Each key K with the closures of every K - {j} ORed in, by ``closure``,
    in lectic order."""
    unions = {}
    for k in enumerate_keys(ctx):
        u = k
        for j in iter_bits(k):
            u |= closure(ctx, k ^ (1 << j))
        unions[k] = u
    return unions


def quasi_closed_keys(ctx: FormalContext) -> list[int]:
    """The keys K whose every K - {j} closes inside K, by ``closure``, in
    lectic order: the keys that are intents or pseudo-intents."""
    return [k for k, u in key_unions(ctx).items() if u == k]


def skipped_candidates(ctx: FormalContext, log: list) -> tuple[list, list, list, list]:
    """Replay the scan's candidate walk against its store log.

    The candidate at the first attribute in which the next quasi-closed key
    Z differs from the current set steps to Z without a preclosure, unless
    an earlier candidate was accepted.  Any other candidate is rejected
    without a preclosure when it holds the last candidate ``x_i`` rejected
    at its attribute and the current forbidden mask meets the set ``y_i``
    that rejected ``x_i`` (an inherited rejection); else when it is a key
    that is not quasi-closed and its union (``key_unions``) meets the
    forbidden mask (a union rejection).  Every other candidate must be the
    next preclosure of the log, started from the candidate's union when it
    is such a key and from the candidate itself when not.  Returns the
    rules the log added; for each inherited rejection ``(x, forbidden,
    rules found before it)``; for each key step ``(x, forbidden, Z, rules
    found before it)``; and for each union rejection ``(x, forbidden,
    union, rules found before it)``.
    """
    n = ctx.n_attrs
    unions = key_unions(ctx)
    known = [k for k, u in unions.items() if u == k]
    failed = [(0, 0)] * n
    rules: list[tuple[int, int]] = []
    skipped = []
    stepped = []
    by_union = []
    pos = kat = 0
    a = 0
    while True:
        ca = closure(ctx, a)
        if ca != a:
            assert log[pos] == ("add", a, ca)
            pos += 1
            rules.append((a, ca))
        if kat < len(known) and known[kat] == a:
            kat += 1
        if a == ctx.attribute_universe:
            break
        step = 0
        if kat < len(known):
            diff = known[kat] ^ a
            step = diff & -diff
        nxt = None
        work = a
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if work & bit:
                work ^= bit
                continue
            x, forbidden = work | bit, ~work & (bit - 1)
            if bit == step:
                stepped.append((x, forbidden, known[kat], rules[:]))
                nxt = known[kat]
                break
            x_i, y_i = failed[i]
            if x_i & x == x_i and y_i & forbidden:
                skipped.append((x, forbidden, rules[:]))
                continue
            u = unions.get(x, x)
            if u & forbidden:
                by_union.append((x, forbidden, u, rules[:]))
                failed[i] = (x, u)
                continue
            assert log[pos][:3] == ("preclose", u, forbidden)
            y = log[pos][3]
            pos += 1
            if not y & forbidden:
                nxt = y
                break
            failed[i] = (x, y)
        if nxt is None:
            break
        a = nxt
    assert pos == len(log) and kat == len(known)
    return rules, skipped, stepped, by_union


class TestInheritedRejection:
    """Candidates the scan rejects from an earlier failed test, without a
    preclosure: they must exist, and each must really be rejected.  So must
    the keys it rejects from their union, and the candidates that step to a
    quasi-closed key without one, each of which must really reach that
    key."""

    def test_skips_preclose_calls_at_realistic_scale(self, monkeypatch):
        ctx = realistic_context()
        found, log = record_scan(monkeypatch, ctx)
        tested: list[int] = []
        assert found == scalar_basis_scan(ctx, tested)
        calls = [e[1] for e in log if e[0] == "preclose"]
        # One record per attribute skips about a third of the candidates
        # here; records shared by all attributes would skip under 2 %.
        assert len(calls) < 0.8 * len(tested)
        _, skipped, stepped, by_union = skipped_candidates(ctx, log)
        assert len(calls) + len(skipped) + len(stepped) + len(by_union) == len(tested)
        assert stepped and by_union and len(skipped) > 0.25 * len(tested)

    @pytest.mark.parametrize(
        "corpus",
        [
            lambda: [realistic_context()],
            # With 6 objects the only quasi-closed key at 64 attributes is
            # the empty set, which the scan starts from; with 8 it steps.
            lambda: [wide_context(64, 6, seed=64), wide_context(64, 8, seed=64)],
            lambda: [wide_context(70, 6, seed=70)],
            lambda: fuzz_contexts(
                170, max_objects=8, max_attrs=10, min_objects=4, min_attrs=6, seed=0xACCE
            ),
        ],
        ids=["403x16", "word-64", "scalar-70", "fuzz"],
    )
    def test_skipped_candidates_fixpoint_meets_forbidden(self, monkeypatch, corpus):
        n_skipped = n_stepped = n_by_union = 0
        for ctx in corpus():
            found, log = record_scan(monkeypatch, ctx)
            rules, skipped, stepped, by_union = skipped_candidates(ctx, log)
            assert rules == found
            n_skipped += len(skipped)
            n_stepped += len(stepped)
            n_by_union += len(by_union)
            for x, forbidden, current in skipped:
                assert reference_preclose(current, x) & forbidden
            for x, forbidden, key, current in stepped:
                assert reference_preclose(current, x) == key and not key & forbidden
            # The union lies inside the quasi-closure of x, the fixpoint
            # under the whole basis, which meets ``forbidden`` too.
            for x, forbidden, union, current in by_union:
                assert reference_preclose(current, x) & forbidden
                assert union & ~reference_preclose(found, x) == 0
        assert n_skipped and n_stepped and n_by_union


class TestQuasiClosedKeys:
    """The keys the scan steps to, ``keys.quasi_closed()``: the keys that
    are intents or pseudo-intents, with their closures, in lectic order."""

    @staticmethod
    def assert_match_oracle(ctx: FormalContext) -> None:
        oracle = brute_force_all(ctx)
        visited = set(oracle["intent"]) | set(oracle["pseudo_intent"])
        want = [k for k in oracle["key"] if k in visited]
        assert enumerate_keys(ctx).quasi_closed() == (want, [closure(ctx, k) for k in want])

    def test_fuzz_corpus_against_oracle(self):
        for ctx in acceptance_corpus():
            self.assert_match_oracle(ctx)

    def test_realistic_scale(self):
        self.assert_match_oracle(realistic_context())

    @pytest.mark.parametrize("width", [64, 65, 70])
    def test_near_and_beyond_64_bits(self, width):
        # At every width the key family, on words up to 64 attributes and
        # on an object array above, agrees with its scalar twin, and both
        # parts hold to the definition, to the scan's pseudo-intents that
        # are keys and to the intents that are keys.
        ctx = wide_context(width, 8, seed=width)
        family = scalar_keys(ctx)
        known, closures = got = family.quasi_closed()
        keys = enumerate_keys(ctx)
        assert (keys._masks.dtype == object) == (width > 64)
        assert keys.quasi_closed() == got
        assert known == quasi_closed_keys(ctx)
        assert closures == [closure(ctx, k) for k in known]
        keys = set(family)
        pseudo = [p for p, _ in scalar_basis_scan(ctx)]
        assert [k for k, c in zip(*got) if k != c] == [p for p in pseudo if p in keys]
        assert [k for k, c in zip(*got) if k == c] == [
            i for i in enumerate_intents(ctx) if i in keys
        ]
        assert any(k >> 63 for k in known) and any(k != c for k, c in zip(*got))

    @pytest.mark.parametrize(
        "corpus",
        [
            lambda: acceptance_corpus(),
            lambda: [realistic_context()],
            lambda: [wide_context(width, 8, seed=width) for width in (64, 65, 70)],
        ],
        ids=["fuzz", "403x16", "wide"],
    )
    def test_unions_inside_quasi_closures(self, corpus):
        # The scan rejects a key from its union, or precloses from there: the
        # union of K with the closures of every K - {j} lies inside q(K), the
        # fixpoint of K under the whole basis.
        n_inside = 0
        for ctx in corpus():
            keys = enumerate_keys(ctx)
            unions = dict(zip(keys._masks.tolist(), keys._unions.tolist()))
            assert unions == key_unions(ctx)
            assert keys.open_unions() == {k: u for k, u in unions.items() if u != k}
            basis = scalar_basis_scan(ctx)
            for k, u in unions.items():
                q = reference_preclose(basis, k)
                assert u & ~q == 0
                n_inside += u != k and u != q
        assert n_inside

    def test_every_intent_free_needs_no_preclosure(self, monkeypatch):
        # Every subset of the 8x8 contranominal scale is a free intent, so
        # every candidate the scan accepts steps to a key.
        ctx = contranominal_context(8)
        closures = count_calls(monkeypatch, charsets, "closure")
        found, log = record_scan(monkeypatch, ctx)
        assert found == [] and log == [] and closures == []
        _, skipped, stepped, by_union = skipped_candidates(ctx, log)
        assert skipped == by_union == [] and len(stepped) == 255

    def test_toy_still_closes_its_unkeyed_pseudo_intent(self, monkeypatch, toy):
        closures = count_calls(monkeypatch, charsets, "closure")
        assert enumerate_pseudo_intents(toy) == brute_force_class(toy, "pseudo_intent")
        assert [attrs for _, attrs in closures] == [toy.attrs_mask("abc")]


def test_realistic_scale_families_match_oracle():
    ctx = realistic_context()
    index = index_classes(ctx)
    oracle = brute_force_all(ctx)
    assert index.intents == oracle["intent"]
    assert index.pseudo_intents == oracle["pseudo_intent"]
    assert index.keys == oracle["key"]
    assert index.passkeys == oracle["passkey"]
    assert index.proper_premises == oracle["proper_premise"]
    smallest = {}
    for k in oracle["key"]:
        c = closure(ctx, k)
        smallest[c] = min(smallest.get(c, k.bit_count()), k.bit_count())
    assert min_key_sizes(ctx) == smallest


def set_intents(ctx: FormalContext) -> list[int]:
    """Reference intent enumeration: one Python set, any width.

    A copy of the library's original loop, kept as the twin of the
    word-parallel kernel.
    """
    family = {ctx.attribute_universe}
    for row in ctx.rows:
        family.update([f & row for f in family])
    return lectic_sorted(family, ctx.n_attrs)


def acceptance_corpus() -> list[FormalContext]:
    """The acceptance suite's corpus: substantial shapes, then degenerate ones."""
    return fuzz_contexts(
        170, max_objects=8, max_attrs=10, min_objects=4, min_attrs=6, seed=0xACCE
    ) + fuzz_contexts(30, max_objects=4, max_attrs=4, seed=0xACCE + 1)


class TestIntentKernels:
    """The intent enumeration, on ``uint64`` words up to 64 attributes and
    on an ``object`` array above, against the reference loop, list for
    list."""

    def test_fuzz_corpus(self):
        for ctx in acceptance_corpus():
            assert enumerate_intents(ctx) == set_intents(ctx)

    @pytest.mark.parametrize("width", [62, 63, 64])
    def test_word_path_near_64_bits(self, width):
        ctx = wide_context(width, 40, seed=width)
        intents = enumerate_intents(ctx)
        assert intents == set_intents(ctx)
        top = 1 << (width - 1)
        assert any(m & top for m in intents if m != ctx.attribute_universe)

    @pytest.mark.parametrize("width", [65, 70])
    def test_set_path_beyond_64_bits(self, width):
        ctx = wide_context(width, 24, seed=width)
        intents = enumerate_intents(ctx)
        assert intents.words.dtype == object
        assert intents.words.tolist() == intents
        assert intents == set_intents(ctx)
        assert any(m >> 64 for m in intents if m != ctx.attribute_universe)

    @pytest.mark.parametrize(
        "rows, width",
        [
            ((0b0110, 0b0011, 0b0110, 0b0011, 0b0110), 4),
            ((0b1111, 0b0101, 0b1111), 4),
            ((0b1010,), 4),
            ((0b1111,), 4),
            ((), 4),
            ((0, 0), 0),
            ((1 << 63, (1 << 64) - 1, (1 << 63) | 1, 1), 64),
        ],
        ids=[
            "duplicate-rows",
            "universe-rows",
            "single-object",
            "single-full-object",
            "no-objects",
            "no-attributes",
            "top-bit-and-full-row",
        ],
    )
    def test_degenerate_shapes(self, rows, width):
        ctx = FormalContext(
            tuple(f"g{k}" for k in range(len(rows))),
            tuple(f"m{k}" for k in range(width)),
            rows,
        )
        assert enumerate_intents(ctx) == set_intents(ctx)

    def test_realistic_scale(self):
        ctx = realistic_context()
        assert enumerate_intents(ctx) == set_intents(ctx)

    @pytest.mark.parametrize("bound", [0, 1, 3, 5])
    def test_cube_bound_moved(self, monkeypatch, bound):
        # With the bound lowered, most rows of the corpus are wide and the
        # rest small, so cubes and the incremental loop meet on every context.
        monkeypatch.setattr(charsets, "_ROW_CUBE_BITS", bound)
        for ctx in acceptance_corpus():
            assert enumerate_intents(ctx) == set_intents(ctx)

    def test_cubes_find_each_intent_once(self):
        # The merge would hide an intent found in two cubes, so the cubes'
        # output is held alone to the intents inside some small row.
        for ctx in acceptance_corpus()[::3] + [realistic_context()]:
            rows = sorted(set(ctx.rows), key=int.bit_count)
            sizes = [r.bit_count() for r in rows if r.bit_count() <= charsets._ROW_CUBE_BITS]
            if not sizes:
                continue
            found, _ = charsets._cube_intents(
                np.array(rows, dtype=np.uint64), np.array(sizes), ctx.n_attrs
            )
            found = found.tolist()
            small = rows[: len(sizes)]
            inside = [x for x in set_intents(ctx) if any(x & r == x for r in small)]
            assert sorted(found) == sorted(inside)

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", range(8))
    def test_superset_meets(self, k, width):
        # The fold the intent cubes run, as they run it, against the meet of
        # its supersets in its row, for each cell of a random cell-major
        # cube of 2^k cells by width rows. Most cells clear one random bit,
        # so the meets keep some bits set; width 1 is a single cube, whose
        # runs are the shortest.
        rng = np.random.default_rng(8 * k + width)
        clear = np.left_shift(1, rng.integers(0, 16, size=(1 << k, width)))
        clear *= rng.random((1 << k, width)) < 0.7
        cube = (0xFFFF ^ clear).astype(np.uint16)
        before = cube.tolist()
        lattice.fold_cube(cube, np.bitwise_and, supersets=True)
        for s in range(1 << k):
            for r in range(width):
                meet = 0xFFFF
                for t in range(1 << k):
                    if t & s == s:
                        meet &= before[t][r]
                assert int(cube[s, r]) == meet

    def test_rows_on_both_sides_of_the_bound(self):
        # Two wide rows meet in 14 attributes that no small row holds: that
        # intent comes from the incremental loop alone.
        bound = charsets._ROW_CUBE_BITS
        width = bound + 2
        wide = ((1 << (bound + 1)) - 1, ((1 << (bound + 1)) - 1) << 1)
        meet = wide[0] & wide[1]
        rnd = random.Random(14)
        small = tuple(
            sum(1 << a for a in rnd.sample(range(width), rnd.randint(1, 8)))
            for _ in range(12)
        )
        ctx = intent_context(wide + small, width)
        assert all(r.bit_count() > bound for r in wide)
        assert all(r.bit_count() <= bound and meet & r != meet for r in small)
        intents = enumerate_intents(ctx)
        assert meet in intents
        assert intents == set_intents(ctx) == brute_force_class(ctx, "intent")

    @pytest.mark.parametrize("width", [10, 16], ids=["full-row-small", "full-row-wide"])
    def test_full_empty_and_duplicate_rows(self, width):
        full = (1 << width) - 1
        rows = (full, 0, 0b1011, 0b1011, 0b110, full, 0, 0b1110001)
        ctx = intent_context(rows, width)
        intents = enumerate_intents(ctx)
        assert intents[0] == 0 and intents[-1] == full
        assert intents == set_intents(ctx) == brute_force_class(ctx, "intent")

    def test_bit_63_in_small_and_wide_rows(self):
        rnd = random.Random(63)
        top = 1 << 63
        small = [top | sum(1 << a for a in rnd.sample(range(63), 4)) for _ in range(20)]
        wide = [top | sum(1 << a for a in rnd.sample(range(63), 30)) for _ in range(6)]
        ctx = intent_context(tuple(small + wide + [3, 5]), 64)
        intents = enumerate_intents(ctx)
        assert intents == set_intents(ctx)
        assert top in intents
        assert intents.words.dtype == np.uint64
        assert intents.words.tolist() == intents

    def test_no_objects_and_no_attributes(self):
        assert enumerate_intents(intent_context((), 0)) == [0]

    def test_all_rows_wide_take_no_cube(self, monkeypatch):
        def no_cube(rows, sizes, n):
            raise AssertionError("cube built for a row above the bound")

        monkeypatch.setattr(charsets, "_cube_intents", no_cube)
        n = charsets._ROW_CUBE_BITS + 2
        ctx = contranominal_context(n)
        intents = enumerate_intents(ctx)
        assert len(intents) == 1 << n
        assert intents == set_intents(ctx)

    def test_lattice_from_list_equals_lattice_from_words(self):
        intents = enumerate_intents(realistic_context())
        from_words = build_lattice(intents)
        shuffled = list(intents)
        random.Random(5).shuffle(shuffled)
        from_list = build_lattice(shuffled)
        assert from_words.lectic_words is intents.words
        assert from_list == from_words
        assert from_list.intents == tuple(intents)
        assert from_list.lectic_words.tolist() == intents
        assert (linearity(from_list), distributivity(from_list)) == (
            linearity(from_words),
            distributivity(from_words),
        )


def intent_context(rows: tuple[int, ...], width: int) -> FormalContext:
    return FormalContext(
        tuple(f"g{k}" for k in range(len(rows))),
        tuple(f"m{k}" for k in range(width)),
        rows,
    )


def test_trial_metrics_at_70_attributes():
    # Every default trial metric of a 70-attribute context, which runs the
    # intents, the key family and the lattice counts on object arrays,
    # against the Python twins: the set loop, the reference scan, the
    # levelwise key search and the pair loop.
    ctx = wide_context(70, 10, seed=70)
    intents = set_intents(ctx)
    keys = scalar_keys(ctx)
    families = {
        "intent-count": intents,
        "pseudo-intent-count": [p for p, _ in scalar_basis_scan(ctx)],
        "proper-premise-count": keys.proper_premises(),
        "key-count": list(keys),
        "passkey-count": keys.passkeys(),
    }
    want = {}
    for metric, members in families.items():
        want[(metric, None)] = float(len(members))
        for size, count in sorted(Counter(m.bit_count() for m in members).items()):
            want[(metric, size)] = float(count)
    pairs = len(intents) * (len(intents) - 1) / 2
    comparable, union_closed = pair_loop(intents)
    want[("linearity", None)] = comparable / pairs
    want[("distributivity", None)] = union_closed / pairs
    assert min(len(members) for members in families.values()) > 100
    assert 0 < comparable < union_closed < pairs
    assert evaluate_metrics(ctx, DEFAULT_METRICS) == want
    index = index_classes(ctx)
    assert index.intents.words.dtype == index.keys._masks.dtype == object
    assert index.lattice._words.dtype == object


class TestSizes:
    """``ClassIndex.sizes``: one ``bincount`` for the intents and the key
    family, a ``Counter`` otherwise; every path counts the same."""

    @pytest.mark.parametrize("width", [12, 70])
    def test_counts_match_bit_counts(self, width):
        ctx = wide_context(width, 12, seed=width)
        index = index_classes(ctx)
        for family in ("intents", "pseudo_intents", "keys", "passkeys", "proper_premises"):
            expected = Counter(m.bit_count() for m in getattr(index, family))
            assert index.sizes(family) == dict(expected), family
        assert isinstance(index.intents, LecticWords)
        assert (index.intents.words.dtype == object) == (width > 64)

    def test_fuzz_corpus(self):
        for ctx in acceptance_corpus()[::5]:
            index = index_classes(ctx)
            for family in ("intents", "keys"):
                expected = Counter(m.bit_count() for m in getattr(index, family))
                assert index.sizes(family) == dict(expected)


class TestKeyClosures:
    """``enumerate_keys`` closes each key from the extent it found, in key order."""

    def test_match_closure(self):
        for ctx in acceptance_corpus() + [realistic_context()]:
            keys = enumerate_keys(ctx)
            assert list(keys.closures.items()) == [(k, closure(ctx, k)) for k in keys]


def key_families(keys) -> dict[str, list]:
    """Keys, their closures, passkeys and proper premises, as plain lists."""
    return {
        "key": list(keys),
        "closures": list(keys.closures.items()),
        "passkey": keys.passkeys(),
        "proper_premise": keys.proper_premises(),
        "quasi_closed": keys.quasi_closed(),
    }


def assert_word_keys_match(ctx: FormalContext, oracle: bool = True) -> dict[str, list]:
    """The key family against its scalar twin and, when ``oracle`` is set,
    against the brute-force families and ``closure``, list for list."""
    word = enumerate_keys(ctx)
    assert word._masks.dtype == mask_dtype(ctx.n_attrs)
    got = key_families(word)
    assert got == key_families(scalar_keys(ctx))
    if oracle:
        want = brute_force_all(ctx)
        for name in ("key", "passkey", "proper_premise"):
            assert got[name] == want[name], name
        assert got["closures"] == [(k, closure(ctx, k)) for k in want["key"]]
    return got


def pad_with_full_columns(ctx: FormalContext, pad: int) -> FormalContext:
    """``ctx`` with ``pad`` attributes that every object has, put first.

    A full column lies in the closure of the empty set, so it is in no key:
    the keys, passkeys and proper premises are those of ``ctx`` shifted up
    by ``pad`` bits, in the same lectic order, and every closure gains the
    new attributes.
    """
    low = (1 << pad) - 1
    return FormalContext(
        ctx.object_names,
        tuple(f"p{k}" for k in range(pad)) + ctx.attribute_names,
        tuple(row << pad | low for row in ctx.rows),
    )


class TestKeyKernels:
    """The key family, on ``uint64`` words up to 64 attributes and on an
    ``object`` array above, against its scalar twin, the brute-force oracle
    and ``closure``, list for list."""

    def test_fuzz_corpus(self):
        for ctx in acceptance_corpus():
            assert enumerate_keys(ctx)._masks.dtype == np.uint64
            assert_word_keys_match(ctx)

    def test_realistic_scale(self):
        assert_word_keys_match(realistic_context())

    @pytest.mark.parametrize(
        "rows, width",
        [((), 0), ((0, 0), 0), ((), 1), ((0,), 1), ((1,), 1), ((0, 1, 1), 1)],
        ids=["0x0", "2x0", "0x1", "empty-row", "full-row", "3x1"],
    )
    def test_narrowest_contexts(self, rows, width):
        ctx = FormalContext(
            tuple(f"g{k}" for k in range(len(rows))),
            tuple(f"m{k}" for k in range(width)),
            rows,
        )
        assert_word_keys_match(ctx)

    @pytest.mark.parametrize("n_objects", [0, 1, 63, 64, 65, 128, 403])
    def test_object_counts_across_word_padding(self, n_objects):
        # The last object alone decides some keys: it is the only one with
        # attribute 0, so every extent's last word is exercised.
        rnd = random.Random(n_objects)
        rows = [rnd.getrandbits(8) & ~1 for _ in range(n_objects)]
        if rows:
            rows[-1] |= 1
        ctx = FormalContext(
            tuple(f"g{k}" for k in range(n_objects)),
            tuple(f"m{k}" for k in range(8)),
            tuple(rows),
        )
        got = assert_word_keys_match(ctx)
        if n_objects > 1:
            assert 1 in got["key"]

    @pytest.mark.parametrize("width", [62, 63, 64])
    def test_word_path_near_64_bits(self, width):
        ctx = wide_context(width, 6, seed=width)
        got = assert_word_keys_match(ctx, oracle=False)
        top = 1 << (width - 1)
        assert any(k & top for k in got["proper_premise"])
        assert any(k & top for k in got["passkey"])

    @pytest.mark.parametrize("width, n_objects", [(64, 8), (65, 8), (70, 8), (130, 5)])
    def test_passkeys_at_every_width(self, width, n_objects):
        # Passkeys against the Python twin, on words and on object arrays
        # up to three words wide.
        ctx = wide_context(width, n_objects, seed=width)
        keys = enumerate_keys(ctx)
        want = scalar_keys(ctx).passkeys()
        assert keys.passkeys() == want
        assert len(want) < len(keys) and any(k >> (width - 8) for k in want)

    @pytest.mark.parametrize("width", [65, 70])
    def test_scalar_path_beyond_64_bits(self, width):
        narrow = wide_context(64, 6, seed=width)
        pad = width - 64
        ctx = pad_with_full_columns(narrow, pad)
        keys = enumerate_keys(ctx)
        assert keys._masks.dtype == object
        got = key_families(keys)
        assert got == key_families(scalar_keys(ctx))
        want = key_families(enumerate_keys(narrow))
        low = (1 << pad) - 1
        for name in ("key", "passkey", "proper_premise"):
            assert got[name] == [k << pad for k in want[name]], name
        assert got["closures"] == [(k << pad, c << pad | low) for k, c in want["closures"]]
        assert any(k >> 64 for k in got["proper_premise"])

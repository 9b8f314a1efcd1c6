"""Characteristic-family enumeration against frozen values and literal oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from fcakit import (
    CapacityError,
    CharFlags,
    FormalContext,
    Implication,
    classify,
    closure,
    dg_basis,
    enumerate_intents,
    enumerate_keys,
    enumerate_passkeys,
    enumerate_proper_premises,
    enumerate_pseudo_intents,
    implication_closure,
    index_classes,
    is_proper_premise,
)
from fcakit import charsets
from fcakit.charsets import (
    _canonical_basis_scan,
    _ScalarRules,
    _WordRules,
    min_key_sizes,
)
from fcakit.context import bit_reverse, lectic_sorted

from conftest import (
    contexts,
    contranominal_context,
    fuzz_contexts,
    names,
    nominal_context,
    realistic_context,
    staircase_context,
)
from oracles import brute_force_all, brute_force_class


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


class TestBasisScanKernels:
    """The word-parallel scan (up to 64 attributes) and the scalar one for
    wider contexts, each against the reference loop, list for list."""

    def test_fuzz_corpus(self):
        # The acceptance suite's corpus: substantial shapes, then degenerate ones.
        corpus = fuzz_contexts(
            170, max_objects=8, max_attrs=10, min_objects=4, min_attrs=6, seed=0xACCE
        ) + fuzz_contexts(30, max_objects=4, max_attrs=4, seed=0xACCE + 1)
        for ctx in corpus:
            assert _canonical_basis_scan(ctx) == scalar_basis_scan(ctx)

    @pytest.mark.parametrize("width", [62, 63, 64])
    def test_word_path_near_64_bits(self, width):
        ctx = wide_context(width, 6, seed=width)
        found = _canonical_basis_scan(ctx)
        assert found == scalar_basis_scan(ctx)
        top = 1 << (width - 1)
        assert any(p & top for p, _ in found)

    @pytest.mark.parametrize("width", [65, 70])
    def test_scalar_path_beyond_64_bits(self, width):
        ctx = wide_context(width, 6, seed=width)
        found = _canonical_basis_scan(ctx)
        assert found == scalar_basis_scan(ctx)
        assert any(p >> 64 for p, _ in found)

    @pytest.mark.parametrize("store, width", [(_WordRules, 64), (_ScalarRules, 70)])
    def test_preclose_rejects_exactly_when_fixpoint_meets_forbidden(
        self, store, width
    ):
        rnd = random.Random(width)
        top = 1 << (width - 1)
        rejected = kept = gained_top = 0
        for _ in range(400):
            rules, x, forbidden = scan_step_case(rnd, width)
            rs = store()
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
        assert _canonical_basis_scan(ctx) == scalar_basis_scan(ctx)


def record_scan(monkeypatch, ctx: FormalContext) -> tuple[list[tuple[int, int]], list]:
    """Run the scan with both stores logging every call made to them.

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
    monkeypatch.setattr(charsets, "_ScalarRules", recording(_ScalarRules))
    return _canonical_basis_scan(ctx), log


def skipped_candidates(
    ctx: FormalContext, log: list
) -> tuple[list[tuple[int, int]], list[tuple[int, int, list[tuple[int, int]]]]]:
    """Replay the scan's candidate walk against its store log.

    Every candidate the log does not show being preclosed was rejected by an
    inherited test.  Returns the rules the log added and, for each such
    candidate, ``(x, forbidden, rules found before it)``.
    """
    n = ctx.n_attrs
    rules: list[tuple[int, int]] = []
    skipped = []
    pos = 0
    a = 0
    while True:
        ca = closure(ctx, a)
        if ca != a:
            assert log[pos] == ("add", a, ca)
            pos += 1
            rules.append((a, ca))
        if a == ctx.attribute_universe:
            break
        nxt = None
        work = a
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if work & bit:
                work ^= bit
                continue
            x, forbidden = work | bit, ~work & (bit - 1)
            if pos < len(log) and log[pos][:3] == ("preclose", x, forbidden):
                y = log[pos][3]
                pos += 1
                if not y & forbidden:
                    nxt = y
                    break
            else:
                skipped.append((x, forbidden, rules[:]))
        if nxt is None:
            break
        a = nxt
    assert pos == len(log)
    return rules, skipped


class TestInheritedRejection:
    """Candidates the scan rejects from an earlier failed test, without a
    preclosure: they must exist, and each must really be rejected."""

    def test_skips_preclose_calls_at_realistic_scale(self, monkeypatch):
        ctx = realistic_context()
        found, log = record_scan(monkeypatch, ctx)
        tested: list[int] = []
        assert found == scalar_basis_scan(ctx, tested)
        calls = [e[1] for e in log if e[0] == "preclose"]
        # One record per attribute skips about a third of the candidates
        # here; records shared by all attributes would skip under 2 %.
        assert len(calls) < 0.8 * len(tested)
        _, skipped = skipped_candidates(ctx, log)
        assert len(calls) + len(skipped) == len(tested)

    @pytest.mark.parametrize(
        "corpus",
        [
            lambda: [realistic_context()],
            lambda: [wide_context(64, 6, seed=64)],
            lambda: [wide_context(70, 6, seed=70)],
            lambda: fuzz_contexts(
                170, max_objects=8, max_attrs=10, min_objects=4, min_attrs=6, seed=0xACCE
            ),
        ],
        ids=["403x16", "word-64", "scalar-70", "fuzz"],
    )
    def test_skipped_candidates_fixpoint_meets_forbidden(self, monkeypatch, corpus):
        n_skipped = 0
        for ctx in corpus():
            found, log = record_scan(monkeypatch, ctx)
            rules, skipped = skipped_candidates(ctx, log)
            assert rules == found
            n_skipped += len(skipped)
            for x, forbidden, current in skipped:
                assert reference_preclose(current, x) & forbidden
        assert n_skipped


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
    """The word-parallel intent enumeration (up to 64 attributes) and the set
    loop for wider contexts, each against the reference loop, list for list."""

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


class TestKeyClosures:
    """``enumerate_keys`` closes each key from the extent it found, in key order."""

    def test_match_closure(self):
        for ctx in acceptance_corpus() + [realistic_context()]:
            keys = enumerate_keys(ctx)
            assert list(keys.closures.items()) == [(k, closure(ctx, k)) for k in keys]

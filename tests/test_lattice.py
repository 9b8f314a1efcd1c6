"""Lattice construction and the linearity/distributivity indices."""

from __future__ import annotations

import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from fcakit import (
    ConceptLattice,
    FormalContext,
    build_lattice,
    charsets,
    distributivity,
    enumerate_intents,
    lattice,
    linearity,
    serialize_burmeister,
)
from fcakit.cli import main
from fcakit.context import popcounts
from fcakit.lattice import (
    _cube_pair_counts,
    _cubes_pay,
    _moebius_signs,
    _pair_pass_counts,
    _subset_cubes,
    count_comparable_pairs,
    count_union_closed_pairs,
    fold_cube,
    pair_total,
)

from oracles import lectic_sorted, pair_loop

from conftest import (
    contexts,
    contranominal_context,
    fuzz_contexts,
    nominal_context,
    realistic_context,
    staircase_context,
)


def brute_comparable(masks) -> int:
    return sum(
        1
        for a, b in combinations(masks, 2)
        if a & b == a or a & b == b
    )


def brute_union_closed(masks) -> int:
    member = set(masks)
    return sum(1 for a, b in combinations(masks, 2) if a | b in member)


def pair_pass(lat) -> tuple[int, int]:
    """Both counts from the blocked pair pass, whichever path the size rule
    picks; `_cube_pair_counts` gives them from the cubes, with any terms
    the lattice carries, alike."""
    return _pair_pass_counts(lat._words)


def cubes_pay(lat) -> bool:
    return _cubes_pay(lat)


def random_families(with_top: bool):
    """150 random families of up to 80 masks of up to 12 bits, each with or
    without the union of its members."""
    rnd = random.Random(12 + with_top)
    for _ in range(150):
        width = rnd.randint(1, 12)
        masks = {rnd.getrandbits(width) for _ in range(rnd.randint(2, 80))}
        top = 0
        for m in masks:
            top |= m
        if with_top:
            masks.add(top)
        else:
            masks.discard(top)
        if len(masks) >= 2:
            yield sorted(masks)


def chunked_cube_family(k: int) -> list[int]:
    """A k-attribute member whose cube is searched in 2^15-cell chunks,
    with small members inside it that use its highest attributes, bit 63
    among them, so every chunk holds some."""
    rnd = random.Random(k)
    attrs = sorted(rnd.sample(range(63), k - 1) + [63])
    big = sum(1 << a for a in attrs)
    masks = {big, (1 << 64) - 1}
    for _ in range(150):
        masks.add(sum(1 << a for a in rnd.sample(attrs, rnd.randint(0, 3))))
    masks |= {big ^ (1 << a) for a in attrs[-3:]}
    assert sum(1 for m in masks if m & (1 << attrs[15])) > 10
    return sorted(masks)


class TestBuildLattice:
    def test_toy_order(self, toy):
        lat = build_lattice(enumerate_intents(toy))
        bc, bcd = toy.attrs_mask("bc"), toy.attrs_mask("bcd")
        assert bc in lat and bcd in lat
        # the larger intent is the smaller concept
        assert ConceptLattice.is_subconcept(bcd, bc)
        assert not ConceptLattice.is_subconcept(bc, bcd)
        assert ConceptLattice.comparable(bc, bcd)

    def test_single_intent(self):
        lat = build_lattice([0])
        assert len(lat) == 1
        assert linearity(lat) == 1.0
        assert distributivity(lat) == 1.0

    def test_boolean_two_attribute_diamond(self):
        ctx = contranominal_context(2)
        lat = build_lattice(enumerate_intents(ctx))
        assert len(lat) == 4
        assert linearity(lat) == pytest.approx(5 / 6)
        assert distributivity(lat) == 1.0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_lattice([1, 1])

    def test_intents_sorted_lectically(self, toy):
        lat = build_lattice(enumerate_intents(toy))
        assert list(lat) == enumerate_intents(toy)

    @pytest.mark.parametrize("width", [1, 24, 63, 64, 65, 90])
    def test_word_and_python_lectic_sorts_agree(self, width):
        rnd = random.Random(width)
        masks = list({rnd.getrandbits(width) for _ in range(300)})
        assert list(build_lattice(masks)) == lectic_sorted(masks, width)


class TestIndices:
    def test_chain_lattices_maximal(self):
        for n in range(2, 9):
            lat = build_lattice(enumerate_intents(staircase_context(n)))
            assert len(lat) == n
            assert linearity(lat) == 1.0
            assert distributivity(lat) == 1.0

    def test_nominal_three_values_confirmed_by_pair_scan(self):
        intents = enumerate_intents(nominal_context(3))
        assert len(intents) == 5
        # independent O(n^2) pair scan first
        assert brute_comparable(intents) == 7
        assert brute_union_closed(intents) == 7
        lat = build_lattice(intents)
        assert linearity(lat) == pytest.approx(0.7)
        assert distributivity(lat) == pytest.approx(0.7)

    def test_raw_counts_exposed(self, toy):
        lat = build_lattice(enumerate_intents(toy))
        assert pair_total(lat) == 36
        assert count_comparable_pairs(lat) == brute_comparable(lat.intents)
        assert count_union_closed_pairs(lat) == brute_union_closed(lat.intents)
        assert linearity(lat) == count_comparable_pairs(lat) / 36

    def test_order_independence(self, toy):
        intents = enumerate_intents(toy)
        shuffled = list(intents)
        random.Random(3).shuffle(shuffled)
        assert linearity(build_lattice(shuffled)) == linearity(build_lattice(intents))
        assert distributivity(build_lattice(shuffled)) == distributivity(
            build_lattice(intents)
        )

    @given(contexts())
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, ctx):
        lat = build_lattice(enumerate_intents(ctx))
        assert 0.0 <= linearity(lat) <= 1.0
        assert 0.0 <= distributivity(lat) <= 1.0

    def test_union_closed_family_has_full_distributivity(self):
        for n in (2, 3, 4):
            lat = build_lattice(enumerate_intents(contranominal_context(n)))
            assert distributivity(lat) == 1.0


class TestVectorizedPath:
    def test_matches_pair_scan_on_large_random_family(self):
        rnd = random.Random(11)
        masks = list({rnd.getrandbits(24) for _ in range(700)})
        lat = ConceptLattice(tuple(masks))
        assert len(lat) >= 600  # large enough to take the vectorized route
        assert count_comparable_pairs(lat) == brute_comparable(masks)
        assert count_union_closed_pairs(lat) == brute_union_closed(masks)

    def test_wide_masks_fall_back_to_pure_python(self):
        # Masks past bit 63 are counted on an object array of Python ints.
        masks = [0, 1 << 80, (1 << 80) | 1, 3]
        lat = ConceptLattice(tuple(masks))
        assert lat._words.dtype == object
        assert count_comparable_pairs(lat) == brute_comparable(masks)
        assert count_union_closed_pairs(lat) == brute_union_closed(masks)
        assert lattice.pair_counts(lat) == pair_loop(masks)

    def test_wide_fuzz_corpus(self):
        # Shifting every intent keeps the subset and union relations, and
        # pushes the universe past bit 63 onto an object array.
        tested = 0
        for ctx in fuzz_contexts(200, max_objects=10, max_attrs=10, seed=0xB10C):
            if ctx.n_attrs < 5:
                continue
            masks = [m << 60 for m in enumerate_intents(ctx)]
            lat = build_lattice(masks)
            assert lat._words.dtype == object
            assert count_comparable_pairs(lat) == brute_comparable(masks)
            assert count_union_closed_pairs(lat) == brute_union_closed(masks)
            assert lattice.pair_counts(lat) == pair_loop(lat.intents)
            tested += len(lat) > 1
        assert tested > 50

    @pytest.mark.parametrize("width", range(65, 71))
    def test_wide_families_one_loop(self, width):
        # Small members over ten attributes spread up to bit width - 1,
        # counted on an object array, against the pair loop.
        rnd = random.Random(width)
        attrs = rnd.sample(range(width - 1), 9) + [width - 1]
        masks = {1 << (width - 1)}
        for _ in range(150):
            masks.add(sum(1 << a for a in rnd.sample(attrs, rnd.randint(0, 5))))
        masks = sorted(masks)
        lat = ConceptLattice(tuple(masks))
        assert lat._words.dtype == object
        expected = (brute_comparable(masks), brute_union_closed(masks))
        assert min(expected) > 0
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected
        assert lattice.pair_counts(lat) == pair_loop(masks) == expected
        assert _cube_pair_counts(lat) == pair_pass(lat) == expected

    def test_corpus_agreement(self):
        for ctx in fuzz_contexts(20, max_objects=7, max_attrs=8, seed=5):
            lat = build_lattice(enumerate_intents(ctx))
            assert count_comparable_pairs(lat) == brute_comparable(lat.intents)
            assert count_union_closed_pairs(lat) == brute_union_closed(lat.intents)

    @pytest.mark.parametrize("top_bit", [63, 70])
    def test_masks_using_top_bit(self, top_bit):
        # bit 63 still fits a uint64 word; bit 70 takes an object array
        rnd = random.Random(top_bit)
        masks = list(
            {rnd.getrandbits(10) | (rnd.getrandbits(1) << top_bit) for _ in range(900)}
        )
        assert len(masks) >= 400 and max(masks).bit_length() == top_bit + 1
        lat = ConceptLattice(tuple(masks))
        assert (lat._words.dtype == object) == (top_bit > 63)
        assert count_comparable_pairs(lat) == brute_comparable(masks)
        assert count_union_closed_pairs(lat) == brute_union_closed(masks)
        assert lattice.pair_counts(lat) == pair_loop(masks)

    @pytest.mark.parametrize("width", [70, 130])
    def test_object_cubes_with_terms(self, width):
        # 400 rows of 3-8 attributes and one of 16 over width attributes,
        # on object arrays: the intents inside the small rows carry their
        # terms from the row cubes, the others take the lattice's cubes, the
        # 16-attribute one searched in chunks, and the top the H pass.
        rnd = random.Random(width)
        rows = [sum(1 << a for a in rnd.sample(range(width), rnd.randint(3, 8))) for _ in range(400)]
        rows.append(sum(1 << a for a in rnd.sample(range(width), 16)))
        ctx = FormalContext(
            tuple(f"g{k}" for k in range(len(rows))),
            tuple(f"m{k}" for k in range(width)),
            tuple(rows),
        )
        lat = build_lattice(enumerate_intents(ctx))
        assert lat._words.dtype == object
        rows_counted, sizes, (carried, _, _) = lat._cube_rows
        assert carried and len(rows_counted) and sizes[-1] == 16
        assert cubes_pay(lat)
        expected = pair_loop(lat.intents)
        assert min(expected) > 0
        assert _cube_pair_counts(lat) == pair_pass(lat) == expected
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected

    def test_realistic_lattice_matches_pair_scan(self):
        lat = build_lattice(enumerate_intents(realistic_context()))
        assert len(lat) == 1658
        expected = (brute_comparable(lat.intents), brute_union_closed(lat.intents))
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected
        assert pair_pass(lat) == _cube_pair_counts(lat) == expected

    def test_every_union_a_member(self):
        lat = build_lattice(list(range(1 << 9)))
        n = len(lat)
        assert count_union_closed_pairs(lat) == n * (n - 1) // 2
        assert count_comparable_pairs(lat) == brute_comparable(lat.intents)

    def test_slot_collision_settled_exactly(self):
        # Two members x, y share a slot of the member table a family of 560
        # takes, so one of them at least is displaced into the lost array;
        # each is the union of two other members, and the family takes the
        # pair pass.
        n = 560
        bits = lattice._MemberTable(np.arange(n, dtype=np.uint64)).bits

        def slot(mask):
            return (mask * int(lattice._FIB_MULT)) % (1 << 64) >> (64 - bits)

        rnd = random.Random(9)
        seen = {}
        while True:
            mask = rnd.getrandbits(30)
            if mask.bit_count() < 2:
                continue
            other = seen.setdefault(slot(mask), mask)
            if other != mask:
                break
        x, y = other, mask
        assert slot(x) == slot(y) and x != y
        # lowest bit | the other bits
        masks = {x, y, x & -x, x & (x - 1), y & -y, y & (y - 1)}
        while len(masks) < n:
            masks.add(rnd.getrandbits(30))
        masks = list(masks)
        lat = ConceptLattice(tuple(masks))
        table = lattice._MemberTable(lat._words)
        assert table.bits == bits
        assert {x, y} & set(table.lost.tolist())
        assert not cubes_pay(lat)
        expected = (brute_comparable(masks), brute_union_closed(masks))
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected

    @pytest.mark.parametrize("width", [65, 70, 130])
    def test_member_table_on_object_masks(self, width):
        # Members m and m | 1 << 64 agree in their low 64 bits. With 8 slots
        # per member some members lose their slot, so cells are looked for
        # in the lost array too; the cells are one 2-D block, as the pair
        # pass gives them, of members and of masks one bit away from one.
        rnd = random.Random(width)
        low = [rnd.getrandbits(width) & ~(1 << 64) for _ in range(1500)]
        members = sorted(set(low) | {m | 1 << 64 for m in low})
        words = np.array(members, dtype=object)
        table = lattice._MemberTable(words)
        assert table.table.dtype == table.lost.dtype == object
        assert table.lost.size
        others = [m ^ 1 << rnd.randrange(width) for m in members]
        cells = np.array(members + others, dtype=object).reshape(2, -1)
        found = np.empty(cells.shape, dtype=bool)
        table.find(cells, out=found)
        member = set(members)
        assert found.tolist() == [[m in member for m in row] for row in cells.tolist()]
        assert found[0].all() and not found[1].all()

    def test_no_union_a_member(self):
        masks = [(1 << a) | (1 << b) for a, b in combinations(range(30), 2)]
        lat = build_lattice(masks)
        assert len(lat) == 435
        assert count_union_closed_pairs(lat) == 0
        assert count_comparable_pairs(lat) == 0


class TestCubeCount:
    """Both cube counts against the pair pass and the brute counts, on
    either side of the size rule."""

    @staticmethod
    def check(masks) -> int:
        lat = ConceptLattice(tuple(masks))
        expected = (brute_comparable(masks), brute_union_closed(masks))
        assert _cube_pair_counts(lat) == pair_pass(lat) == expected
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected
        return expected[1]

    @pytest.mark.parametrize("with_top", [False, True])
    def test_random_families(self, with_top):
        for masks in random_families(with_top):
            self.check(masks)

    @pytest.mark.parametrize("width", [6, 9, 12])
    def test_halves_unite_to_top(self, width):
        # Many pairs of non-top members unite to the top: each member has
        # about half the attributes, and most come with their complement.
        rnd = random.Random(width)
        top = (1 << width) - 1
        masks = {top}
        for _ in range(60):
            half = sum(1 << a for a in rnd.sample(range(width), width // 2))
            masks.add(half)
            if rnd.random() < 0.7:
                masks.add(top ^ half)
            masks.add(half | (1 << rnd.randrange(width)))
        masks = sorted(masks)
        non_top = [m for m in masks if m != top]
        assert sum(1 for a, b in combinations(non_top, 2) if a | b == top) > 20
        self.check(masks)

    def test_members_using_bit_63(self):
        rnd = random.Random(63)
        for with_top in (False, True):
            masks = {rnd.getrandbits(8) | (rnd.getrandbits(1) << 63) for _ in range(200)}
            masks.add(1 << 63)
            top = 0
            for m in masks:
                top |= m
            if with_top:
                masks.add(top)
            else:
                masks.discard(top)
            assert max(masks).bit_length() == 64
            self.check(sorted(masks))

    @pytest.mark.parametrize("k", [16, 17])
    def test_cube_searched_in_chunks(self, k):
        self.check(chunked_cube_family(k))

    def test_chunked_cubes_of_16_and_17_attributes(self):
        # A 16- and a 17-attribute member on different attributes, bit 63
        # in the larger, each holding every subset of at most 2 of its
        # attributes: both cubes are searched in 2^15-cell chunks, with
        # members in every chunk.
        rnd = random.Random(1617)
        attrs = rnd.sample(range(63), 32) + [63]
        masks = {0, (1 << 64) - 1}
        for part in (attrs[:16], attrs[16:]):
            masks.add(sum(1 << a for a in part))
            masks.update((1 << a) | (1 << b) for a in part for b in part)
        assert sorted(m.bit_count() for m in masks)[-3:] == [16, 17, 64]
        self.check(sorted(masks))

    @pytest.mark.parametrize("table_bits", [2, 3])
    def test_crowded_member_table(self, monkeypatch, table_bits):
        # A member table of 4 or 8 slots displaces most members into the
        # lost array, and crowds all or most slots.
        monkeypatch.setattr(lattice, "_TABLE_BITS", table_bits)
        families = [
            *random_families(False),
            *random_families(True),
            chunked_cube_family(16),
            chunked_cube_family(17),
        ]
        for masks in families:
            lat = ConceptLattice(tuple(masks))
            expected = (brute_comparable(masks), brute_union_closed(masks))
            assert _cube_pair_counts(lat) == pair_pass(lat) == expected

    def test_moebius_signs_nest(self):
        signs = _moebius_signs(17).tolist()
        for k in range(18):
            assert signs[len(signs) - (1 << k) :] == _moebius_signs(k).tolist()

    @pytest.mark.parametrize(
        "masks",
        [[0, 1], [1, 2], [1, 3], [0, 1 << 63], [3, 5], [1 << 63, (1 << 63) | 1]],
    )
    def test_two_members(self, masks):
        self.check(masks)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_boolean_and_contranominal(self, k):
        lat = build_lattice(enumerate_intents(contranominal_context(k)))
        n = len(lat)
        assert n == 1 << k
        expected = (brute_comparable(lat.intents), n * (n - 1) // 2)
        assert _cube_pair_counts(lat) == pair_pass(lat) == expected
        # The Boolean lattice on k attributes from bit 63 down.
        shifted = [m << (64 - k) for m in lat.intents]
        assert self.check(shifted) == n * (n - 1) // 2

    def test_each_side_of_the_cost_rule(self):
        # Thousands of small intents under a 40-attribute top pay for their
        # cubes; the Boolean lattice on 12 attributes, whose 2^12 members
        # have up to 11 attributes and many unite to the top, does not.
        rnd = random.Random(40)
        small = {sum(1 << a for a in rnd.sample(range(40), rnd.randint(0, 4)))
                 for _ in range(3000)}
        small.add((1 << 40) - 1)
        boolean = list(range(1 << 12))
        for masks, pays in ((sorted(small), True), (boolean, False)):
            lat = ConceptLattice(tuple(masks))
            assert cubes_pay(lat) is pays
            counts = (count_comparable_pairs(lat), count_union_closed_pairs(lat))
            assert _cube_pair_counts(lat) == pair_pass(lat) == counts
        assert count_union_closed_pairs(ConceptLattice(tuple(boolean))) == (
            len(boolean) * (len(boolean) - 1) // 2
        )

    def test_paying_lattice_tests_no_pair(self, monkeypatch):
        # Where the cubes pay, both counts take them: no pair block is cut.
        rnd = random.Random(41)
        masks = {sum(1 << a for a in rnd.sample(range(40), rnd.randint(0, 4)))
                 for _ in range(3000)}
        masks.add((1 << 40) - 1)
        lat = ConceptLattice(tuple(sorted(masks)))
        expected = pair_pass(lat)

        def no_pairs(n):
            raise AssertionError("pair pass on a lattice whose cubes pay")

        monkeypatch.setattr(lattice, "_row_blocks", no_pairs)
        assert cubes_pay(lat)
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected

    @pytest.mark.parametrize("k, pays", [(17, True), (18, False)])
    def test_one_cube_per_block_at_most(self, k, pays):
        # One k-attribute member among thousands of small ones: its 2^k
        # cells would pay, but above 17 attributes its cube outgrows the
        # memory bound.
        rnd = random.Random(k)
        masks = {sum(1 << a for a in rnd.sample(range(40), rnd.randint(1, 4)))
                 for _ in range(5000)}
        masks |= {(1 << k) - 1, (1 << 40) - 1}
        lat = ConceptLattice(tuple(sorted(masks)))
        assert len(lat) > 3000
        assert cubes_pay(lat) is pays
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == pair_pass(lat)

    def test_wide_chain_takes_pair_pass(self, monkeypatch):
        # A 60-attribute chain has members of up to 59 attributes: it is
        # turned down from the attribute counts, before any cube is built.
        lat = build_lattice(enumerate_intents(staircase_context(60)))
        assert len(lat) == 60
        assert lat._sizes.tolist() == sorted(m.bit_count() for m in lat.intents)
        tracemalloc.start()
        try:
            pays = _cubes_pay(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not pays
        assert peak < 1 << 12  # a 16-attribute cube alone takes 512 KB

        def no_cubes(words, sizes, members):
            raise AssertionError("cube built for a wide chain")

        monkeypatch.setattr(lattice, "_cube_members", no_cubes)
        assert count_union_closed_pairs(lat) == 60 * 59 // 2
        assert count_comparable_pairs(lat) == 60 * 59 // 2


class TestCubeLayout:
    """The cell-major cubes, ``2^k`` cells by rows, cell by cell."""

    @pytest.mark.parametrize("width", range(1, 5))
    @pytest.mark.parametrize("k", range(7))
    def test_subset_cubes(self, k, width):
        # Cell s of column r is the subset of row r picked by the rank bits
        # of s; some rows use bit 63, and each has up to 6 attributes beyond
        # the k.
        rnd = random.Random(8 * k + width)
        rows = [
            sum(1 << a for a in rnd.sample(range(64), rnd.randint(k, k + 5)))
            | (rnd.getrandbits(1) << 63)
            for _ in range(width)
        ]
        cube, rest = _subset_cubes(np.array(rows, dtype=np.uint64), k)
        assert cube.shape == (1 << k, width)
        for r, row in enumerate(rows):
            bits = [1 << a for a in range(64) if row >> a & 1]
            for s in range(1 << k):
                subset = sum(bits[t] for t in range(k) if s >> t & 1)
                assert int(cube[s, r]) == subset
            assert int(rest[r]) == sum(bits[k:])

    @pytest.mark.parametrize("rows", range(1, 6))
    @pytest.mark.parametrize("k", range(7))
    def test_fold_cube(self, k, rows):
        # Each cell of a random cell-major cube, 2^k cells by rows, against
        # the sum over its subsets, the Moebius inversion (the signed sum
        # over its subsets), and the AND of its supersets, in its row.
        rng = np.random.default_rng(8 * k + rows)
        values = rng.integers(-50, 50, size=(1 << k, rows))
        before = values.tolist()
        cells = range(1 << k)
        subset_sums = [
            [sum(before[t][r] for t in cells if t & s == t) for r in range(rows)]
            for s in cells
        ]
        moebius = [
            [
                sum((-1) ** (s ^ t).bit_count() * before[t][r] for t in cells if t & s == t)
                for r in range(rows)
            ]
            for s in cells
        ]
        cube = values.copy()
        fold_cube(cube, np.add)
        assert cube.tolist() == subset_sums
        cube = values.copy()
        fold_cube(cube, np.subtract)
        assert cube.tolist() == moebius
        # Most cells clear one random bit, so the meets keep some bits set.
        clear = np.left_shift(1, rng.integers(0, 16, size=(1 << k, rows)))
        clear *= rng.random((1 << k, rows)) < 0.7
        words = (0xFFFF ^ clear).astype(np.uint16)
        before = words.tolist()
        fold_cube(words, np.bitwise_and, supersets=True)
        for s in cells:
            for r in range(rows):
                meet = 0xFFFF
                for t in cells:
                    if t & s == s:
                        meet &= before[t][r]
                assert int(words[s, r]) == meet


class TestOnePass:
    """Both indices of a lattice share one pass: the cube pass where the
    cubes pay, else the pair pass.  A lattice whose intents other than the
    top all carry their terms builds no cube and runs no pair pass."""

    @staticmethod
    def count_cube_passes(monkeypatch) -> list[int]:
        calls = []
        real = lattice._cube_members

        def counting(words, sizes, members):
            calls.append(len(words))
            return real(words, sizes, members)

        monkeypatch.setattr(lattice, "_cube_members", counting)
        return calls

    def test_indices_share_one_cube_pass(self, monkeypatch):
        calls = self.count_cube_passes(monkeypatch)
        # A plain list carries no terms, so the lattice builds every cube.
        lat = build_lattice(list(enumerate_intents(realistic_context())))
        assert lat.terms is None
        assert cubes_pay(lat)
        pairs = pair_total(lat)
        assert linearity(lat) == count_comparable_pairs(lat) / pairs
        assert distributivity(lat) == count_union_closed_pairs(lat) / pairs
        assert len(calls) == 1

    def test_indices_command_runs_one_cube_pass(self, monkeypatch, tmp_path, capsys):
        # Every row of the realistic context has at most 14 attributes, so
        # the row cubes of the intents count both indices: the command
        # builds no lattice cube, and only the top takes its H pass.
        ctx = realistic_context()
        assert max(r.bit_count() for r in ctx.rows) <= charsets._ROW_CUBE_BITS
        path = tmp_path / "realistic.cxt"
        path.write_text(serialize_burmeister(ctx))
        calls = self.count_cube_passes(monkeypatch)

        def refuse(*args):
            raise AssertionError("pair pass on a lattice whose intents carry their terms")

        monkeypatch.setattr(lattice, "_pair_pass_counts", refuse)
        assert main(["indices", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls == []
        monkeypatch.undo()
        lat = build_lattice(list(enumerate_intents(ctx)))
        assert report["concepts"] == len(lat) == 1658
        assert report["linearity"] == linearity(lat)
        assert report["distributivity"] == distributivity(lat)

    @pytest.mark.parametrize("index", ["linearity", "distributivity"])
    def test_pair_path_runs_one_pair_pass_per_index(self, monkeypatch, index):
        # The Boolean lattice on 9 attributes does not pay for its cubes; a
        # plain list carries no terms.  Whichever index is read first runs
        # the one pair pass that counts both; every later read uses the cache.
        lat = build_lattice(list(enumerate_intents(contranominal_context(9))))
        assert not cubes_pay(lat)
        pairs = pair_total(lat)
        expected = {"linearity": brute_comparable(lat.intents) / pairs, "distributivity": 1.0}

        def refuse(*args):
            raise AssertionError("cube pass on a lattice whose cubes do not pay")

        calls = []
        real = lattice._pair_pass_counts

        def counting(words):
            calls.append(len(words))
            return real(words)

        monkeypatch.setattr(lattice, "_cube_members", refuse)
        monkeypatch.setattr(lattice, "_pair_pass_counts", counting)
        assert getattr(lattice, index)(lat) == expected[index]
        assert calls == [len(lat)]
        for name in (index, "linearity", "distributivity"):
            assert getattr(lattice, name)(lat) == expected[name]
        assert calls == [len(lat)]

def brute_terms(intents, c) -> tuple[int, int]:
    """f(C), the intents inside C, and g(C), the ordered pairs of intents
    whose union is exactly C."""
    inside = [a for a in intents if a & c == a]
    return len(inside), sum(1 for a in inside for b in inside if a | b == c)


def terms_context(rows, width: int) -> FormalContext:
    return FormalContext(
        tuple(f"g{k}" for k in range(len(rows))),
        tuple(f"m{k}" for k in range(width)),
        tuple(rows),
    )


def wide_row_contexts():
    """Contexts with two rows of 15-17 attributes among small ones.  The
    wide rows meet in 6 attributes inside a small row, so the incremental
    loop finds that meet as well as the cubes; the wide rows themselves lie
    inside no small row, so the lattice builds their cubes."""
    rnd = random.Random(1517)
    out = []
    for wide_size in (15, 16, 17):
        for spare in (0, 2, 4):
            width = 2 * wide_size - 6 + spare
            attrs = list(range(width))
            first = set(rnd.sample(attrs, wide_size))
            meet = set(rnd.sample(sorted(first), 6))
            outside = [a for a in attrs if a not in first]
            second = meet | set(rnd.sample(outside, wide_size - 6))
            wide = [sum(1 << a for a in first), sum(1 << a for a in second)]
            small = [sum(1 << a for a in meet | {rnd.choice(outside)})]
            small += [
                sum(1 << a for a in rnd.sample(attrs, rnd.randint(0, 7)))
                for _ in range(rnd.randint(4, 10))
            ]
            rows = wide + small + [wide[0]]
            rnd.shuffle(rows)
            out.append(terms_context(rows, width))
    return out


class TestCarriedTerms:
    """f(C) and g(C), as the row cubes of the intents carry them, against
    brute force, and the indices they give against a lattice built from a
    plain list."""

    @staticmethod
    def check(ctx) -> ConceptLattice:
        intents = enumerate_intents(ctx)
        small = [r for r in ctx.rows if r.bit_count() <= charsets._ROW_CUBE_BITS]
        assert intents.terms.shape == (2, len(intents))
        for c, f, g in zip(intents, *intents.terms.tolist()):
            if any(c & r == c for r in small):
                assert (f, g) == brute_terms(intents, c), c
            else:
                assert (f, g) == (0, 0), c
        lat = build_lattice(intents)
        from_list = build_lattice(list(intents))
        assert from_list.terms is None
        counts = (count_comparable_pairs(lat), count_union_closed_pairs(lat))
        assert counts == (count_comparable_pairs(from_list), count_union_closed_pairs(from_list))
        if len(intents) <= 600:
            assert counts == (brute_comparable(intents), brute_union_closed(intents))
        assert (linearity(lat), distributivity(lat)) == (
            linearity(from_list),
            distributivity(from_list),
        )
        if len(lat) > 1:
            assert _cube_pair_counts(lat) == pair_pass(lat) == counts
        return lat

    def test_fuzz_corpus(self):
        for ctx in fuzz_contexts(300, max_objects=10, max_attrs=12, seed=0x7E4):
            self.check(ctx)

    def test_cubes_carry_each_intent_once(self):
        # The cubes' own output: each intent inside a small row once, with
        # the terms of the whole family.
        for ctx in fuzz_contexts(100, max_objects=10, max_attrs=12, seed=0x7E5):
            rows = sorted(set(ctx.rows), key=int.bit_count)
            if not rows:
                continue
            intents = enumerate_intents(ctx)
            found, terms = charsets._cube_intents(
                np.array(rows, dtype=np.uint64),
                np.array([r.bit_count() for r in rows]),
                ctx.n_attrs,
            )
            found = found.tolist()
            assert len(found) == len(set(found))
            for c, f, g in zip(found, *terms.tolist()):
                assert (f, g) == brute_terms(intents, c)

    def test_wide_rows_take_the_lattice_cubes(self, monkeypatch):
        calls = TestOnePass.count_cube_passes(monkeypatch)
        for ctx in wide_row_contexts():
            assert max(r.bit_count() for r in ctx.rows) > charsets._ROW_CUBE_BITS
            lat = self.check(ctx)
            rows, _, _ = lat._cube_rows
            assert len(rows) > 0
            assert max(popcounts(rows)) > charsets._ROW_CUBE_BITS
        assert calls

    def test_rule_takes_the_cube_of_a_wide_row(self, monkeypatch):
        # Thousands of intents inside small rows and one 15-attribute row,
        # an intent inside no small row: the rule takes its cube, the one
        # cube the lattice builds, next to the carried terms.
        rnd = random.Random(24)
        rows = [sum(1 << a for a in rnd.sample(range(24), rnd.randint(4, 10))) for _ in range(100)]
        rows.append(sum(1 << a for a in rnd.sample(range(24), 15)))
        intents = enumerate_intents(terms_context(rows, 24))
        for at in [*rnd.sample(range(len(intents)), 40), len(intents) - 1]:
            c = intents[at]
            if any(c & r == c for r in rows[:-1]):
                assert tuple(intents.terms[:, at].tolist()) == brute_terms(intents, c)
        lat = build_lattice(intents)
        assert popcounts(lat._cube_rows[0]).tolist() == [15]
        assert cubes_pay(lat)
        calls = TestOnePass.count_cube_passes(monkeypatch)
        counts = (count_comparable_pairs(lat), count_union_closed_pairs(lat))
        assert calls == [1]
        assert counts == pair_pass(lat)
        from_list = build_lattice(list(intents))
        assert counts == (count_comparable_pairs(from_list), count_union_closed_pairs(from_list))

    def test_meet_of_wide_rows_keeps_the_cube_terms(self):
        # The incremental loop and a small row's cube both find the meet of
        # the two wide rows; the merge keeps the copy that carries terms.
        for ctx in wide_row_contexts():
            wide = [r for r in ctx.rows if r.bit_count() > charsets._ROW_CUBE_BITS]
            meet = wide[0]
            for r in wide:
                meet &= r
            intents = enumerate_intents(ctx)
            at = intents.index(meet)
            assert any(meet & r == meet for r in ctx.rows if r not in wide)
            assert tuple(intents.terms[:, at].tolist()) == brute_terms(intents, meet)

    @pytest.mark.parametrize("width", [1, 5, 10, 14])
    def test_full_row_covers_the_top(self, monkeypatch, width):
        # With a full row of at most 14 attributes the top carries its own
        # terms: no lattice cube, no H pass and no pair pass run.
        rnd = random.Random(width)
        full = (1 << width) - 1
        rows = [rnd.getrandbits(width) for _ in range(12)] + [full]
        ctx = terms_context(rows, width)
        intents = enumerate_intents(ctx)
        assert intents[-1] == full
        assert tuple(intents.terms[:, -1].tolist()) == brute_terms(intents, full)
        lat = build_lattice(intents)
        assert lat._cube_rows[2][0] == len(lat)

        def refuse(*args):
            raise AssertionError("lattice pass on a lattice whose intents all carry terms")

        for name in ("_cube_members", "_row_blocks"):
            monkeypatch.setattr(lattice, name, refuse)
        counts = (count_comparable_pairs(lat), count_union_closed_pairs(lat))
        assert counts == (brute_comparable(intents), brute_union_closed(intents))
        monkeypatch.undo()
        self.check(ctx)

    def test_boolean_row_cube_at_the_bound(self):
        # Every subset of a full 14-attribute row is an intent, so its cube
        # holds the largest terms a row cube can: f(C) = 2^|C| up to 2^14,
        # and g(C) = 3^|C|, each attribute of C in the first, the second or
        # both of a pair.
        k = charsets._ROW_CUBE_BITS
        ctx = contranominal_context(k)
        ctx = terms_context(ctx.rows + (ctx.attribute_universe,), k)
        intents = enumerate_intents(ctx)
        assert len(intents) == 1 << k
        sizes = [c.bit_count() for c in intents]
        assert intents.terms.tolist() == [[2**s for s in sizes], [3**s for s in sizes]]
        n = len(intents)
        lat = build_lattice(intents)
        assert count_union_closed_pairs(lat) == n * (n - 1) // 2
        assert count_comparable_pairs(lat) == 3**k - n

    @pytest.mark.parametrize(
        "rows, width",
        [
            ((0b0110, 0b0011, 0b0110, 0b0011, 0b0110), 4),
            ((), 4),
            ((), 0),
            ((0, 0), 0),
            ((1, 0, 1), 1),
            ((0,), 1),
            ((1,), 1),
        ],
        ids=[
            "duplicate-rows",
            "no-objects",
            "no-objects-no-attributes",
            "no-attributes",
            "one-attribute",
            "one-attribute-empty-row",
            "one-attribute-full-row",
        ],
    )
    def test_degenerate_shapes(self, rows, width):
        self.check(terms_context(rows, width))


class TestPairBlocks:
    """The numpy pair pass on lattices from two intents up, so single-row
    blocks, the last block and the triangle masks all run."""

    def test_fuzz_corpus(self):
        sizes = set()
        for ctx in fuzz_contexts(200, max_objects=10, max_attrs=10, seed=0xB10C):
            lat = build_lattice(enumerate_intents(ctx))
            if len(lat) < 2:
                continue
            sizes.add(len(lat))
            assert lat._words is not None
            expected = (brute_comparable(lat.intents), brute_union_closed(lat.intents))
            assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected
            assert pair_pass(lat) == _cube_pair_counts(lat) == expected
        assert min(sizes) == 2 and max(sizes) > 50

    @pytest.mark.parametrize("n", [181, 182, 400, 401, 1000])
    def test_random_families(self, n):
        rnd = random.Random(n)
        masks = set()
        while len(masks) < n:
            masks.add(rnd.getrandbits(24))
        masks = list(masks)
        lat = ConceptLattice(tuple(masks))
        expected = (brute_comparable(masks), brute_union_closed(masks))
        assert (count_comparable_pairs(lat), count_union_closed_pairs(lat)) == expected
        assert pair_pass(lat) == expected

"""Lattice construction and the linearity/distributivity indices."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from fcakit import (
    ConceptLattice,
    build_lattice,
    distributivity,
    enumerate_intents,
    lattice,
    linearity,
)
from fcakit.lattice import (
    count_comparable_pairs,
    count_union_closed_pairs,
    pair_total,
)

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
        masks = [0, 1 << 80, (1 << 80) | 1, 3]
        lat = ConceptLattice(tuple(masks))
        assert count_comparable_pairs(lat) == brute_comparable(masks)
        assert count_union_closed_pairs(lat) == brute_union_closed(masks)

    def test_corpus_agreement(self):
        for ctx in fuzz_contexts(20, max_objects=7, max_attrs=8, seed=5):
            lat = build_lattice(enumerate_intents(ctx))
            assert count_comparable_pairs(lat) == brute_comparable(lat.intents)
            assert count_union_closed_pairs(lat) == brute_union_closed(lat.intents)

    @pytest.mark.parametrize("top_bit", [63, 70])
    def test_masks_using_top_bit(self, top_bit):
        # bit 63 still fits a uint64 word; bit 70 takes the pure-Python loop
        rnd = random.Random(top_bit)
        masks = list(
            {rnd.getrandbits(10) | (rnd.getrandbits(1) << top_bit) for _ in range(900)}
        )
        assert len(masks) >= 400 and max(masks).bit_length() == top_bit + 1
        lat = ConceptLattice(tuple(masks))
        assert (lat._words is None) == (top_bit > 63)
        assert count_comparable_pairs(lat) == brute_comparable(masks)
        assert count_union_closed_pairs(lat) == brute_union_closed(masks)

    def test_realistic_lattice_matches_pair_scan(self):
        lat = build_lattice(enumerate_intents(realistic_context()))
        assert len(lat) == 1658
        assert count_comparable_pairs(lat) == brute_comparable(lat.intents)
        assert count_union_closed_pairs(lat) == brute_union_closed(lat.intents)

    def test_every_union_a_member(self):
        lat = build_lattice(list(range(1 << 9)))
        n = len(lat)
        assert count_union_closed_pairs(lat) == n * (n - 1) // 2
        assert count_comparable_pairs(lat) == brute_comparable(lat.intents)

    def test_slot_collision_settled_exactly(self):
        # Two members x, y share a filter slot, so only one of them can sit
        # in the slot table; each is the union of two other members.
        def slot(mask):
            mult, shift = int(lattice._FIB_MULT), int(lattice._FILTER_SHIFT)
            return (mask * mult) % (1 << 64) >> shift

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
        while len(masks) < 560:
            masks.add(rnd.getrandbits(30))
        masks = list(masks)
        lat = ConceptLattice(tuple(masks))
        assert lat._words is not None
        assert count_union_closed_pairs(lat) == brute_union_closed(masks)

    def test_no_union_a_member(self):
        masks = [(1 << a) | (1 << b) for a, b in combinations(range(30), 2)]
        lat = build_lattice(masks)
        assert len(lat) == 435
        assert count_union_closed_pairs(lat) == 0
        assert count_comparable_pairs(lat) == 0


class TestPairBlocks:
    """The numpy pair passes on every lattice of two or more intents, so
    single-row blocks, the last block and the triangle masks all run."""

    @pytest.fixture(autouse=True)
    def _numpy_from_two_intents(self, monkeypatch):
        monkeypatch.setattr(lattice, "_VECTOR_THRESHOLD", 2)

    def test_fuzz_corpus(self):
        sizes = set()
        for ctx in fuzz_contexts(200, max_objects=10, max_attrs=10, seed=0xB10C):
            lat = build_lattice(enumerate_intents(ctx))
            if len(lat) < 2:
                continue
            sizes.add(len(lat))
            assert lat._words is not None
            assert count_comparable_pairs(lat) == brute_comparable(lat.intents)
            assert count_union_closed_pairs(lat) == brute_union_closed(lat.intents)
        assert min(sizes) == 2 and max(sizes) > 50

    @pytest.mark.parametrize("n", [181, 182, 400, 401, 1000])
    def test_random_families(self, n):
        rnd = random.Random(n)
        masks = set()
        while len(masks) < n:
            masks.add(rnd.getrandbits(24))
        masks = list(masks)
        lat = ConceptLattice(tuple(masks))
        assert count_comparable_pairs(lat) == brute_comparable(masks)
        assert count_union_closed_pairs(lat) == brute_union_closed(masks)

"""Context representation, file formats, and derivation operators."""

from __future__ import annotations

import random
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcakit import (
    CapacityError,
    ContextFormatError,
    FormalContext,
    clarify_rows,
    closure,
    extent,
    intent_of,
    parse_burmeister,
    parse_dense_csv,
    serialize_burmeister,
    serialize_dense_csv,
)
from fcakit.context import (
    POWERSET_SCAN_LIMIT,
    bit_reverse,
    iter_bits,
    lectic_order,
    lectic_sorted,
)

from conftest import (
    DATA_DIR,
    contexts,
    contranominal_context,
    ctx_of,
    fuzz_contexts,
    grouped_demo_context,
    nominal_context,
    realistic_context,
)
from oracles import columns, iter_lectic_masks
from oracles import intent_of as literal_intent_of


class TestFormalContext:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            FormalContext(("g1", "g2"), ("a",), (1,))

    def test_duplicate_object_names(self):
        with pytest.raises(ValueError, match="duplicate object"):
            FormalContext(("g", "g"), ("a",), (0, 1))

    def test_duplicate_attribute_names(self):
        with pytest.raises(ValueError, match="duplicate attribute"):
            FormalContext(("g",), ("a", "a"), (0,))

    def test_row_beyond_capacity(self):
        with pytest.raises(ValueError, match="beyond"):
            FormalContext(("g",), ("a",), (2,))

    def test_basic_properties(self, toy):
        assert toy.n_objects == 4
        assert toy.n_attrs == 5
        assert toy.crosses == 9
        assert toy.density == pytest.approx(9 / 20)
        assert toy.columns == (0b0011, 0b1100, 0b1110, 0b1001, 0b0000)

    def test_name_mask_helpers(self, toy):
        mask = toy.attrs_mask("bd")
        assert toy.attr_names(mask) == ("b", "d")
        objs = toy.objs_mask(["g2", "g4"])
        assert toy.obj_names(objs) == ("g2", "g4")
        with pytest.raises(KeyError):
            toy.attr_index("z")

    def test_unknown_names_raise_key_error(self, toy):
        with pytest.raises(KeyError, match="z"):
            toy.attrs_mask(["a", "z"])
        with pytest.raises(KeyError, match="g9"):
            toy.objs_mask(["g1", "g9"])

    def test_equality_ignores_meta(self, toy):
        other = FormalContext(
            toy.object_names, toy.attribute_names, toy.rows, meta={"note": 1}
        )
        assert other == toy


class TestColumns:
    """``FormalContext.columns`` against the cross-by-cross loop."""

    def test_fixtures(self):
        parsed = [parse_burmeister((DATA_DIR / name).read_text()) for name in ("toy.cxt", "live_in_water.cxt")]
        built = [grouped_demo_context(), realistic_context(), nominal_context(9), contranominal_context(8)]
        for ctx in parsed + built:
            assert ctx.columns == columns(ctx)

    @pytest.mark.parametrize(
        "n_objects, n_attrs",
        [(0, 0), (0, 5), (7, 0), (1, 1), (9, 8), (8, 9), (403, 20), (70, 65), (64, 100), (3, 129), (130, 130)],
    )
    def test_random_contexts(self, n_objects, n_attrs):
        rng = random.Random(1000 * n_objects + n_attrs)
        for density in (0.0, 0.1, 0.5, 1.0):
            rows = tuple(
                sum(1 << j for j in range(n_attrs) if rng.random() < density) for _ in range(n_objects)
            )
            ctx = FormalContext(
                tuple(f"g{i}" for i in range(n_objects)), tuple(f"m{j}" for j in range(n_attrs)), rows
            )
            assert ctx.columns == columns(ctx)


class TestPrimeOperators:
    def test_extent_of_pair(self, toy):
        # Read off the grid: only g3 and g4 carry both b and c.
        assert toy.obj_names(extent(toy, toy.attrs_mask("bc"))) == ("g3", "g4")

    def test_extent_of_empty_set_is_all_objects(self, toy):
        assert extent(toy, 0) == toy.object_universe

    def test_extent_of_empty_column(self, toy):
        assert extent(toy, toy.attrs_mask("e")) == 0

    def test_intent_of_single_object(self, toy):
        assert toy.attr_names(intent_of(toy, toy.objs_mask(["g1"]))) == ("a", "d")

    def test_intent_of_no_objects_is_all_attributes(self, toy):
        assert intent_of(toy, 0) == toy.attribute_universe

    def test_intent_of_pair(self, toy):
        assert toy.attr_names(intent_of(toy, toy.objs_mask(["g2", "g3"]))) == ("c",)

    def test_closure_examples(self, toy):
        assert toy.attr_names(closure(toy, toy.attrs_mask("b"))) == ("b", "c")
        assert closure(toy, toy.attrs_mask("e")) == toy.attribute_universe
        assert closure(toy, 0) == 0

    def test_capacity_guards(self, toy):
        with pytest.raises(ValueError):
            extent(toy, 1 << 5)
        with pytest.raises(ValueError):
            intent_of(toy, 1 << 4)

    @given(contexts(max_attrs=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_closure_axioms(self, ctx, data):
        universe = ctx.attribute_universe
        b = data.draw(st.integers(0, universe))
        c = data.draw(st.integers(0, universe))
        cb, cc = closure(ctx, b), closure(ctx, c)
        assert b & cb == b  # extensive
        if b & c == b:  # b subset c -> monotone
            assert cb & cc == cb
        assert closure(ctx, cb) == cb  # idempotent

    @given(contexts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_galois_antitone(self, ctx, data):
        a1 = data.draw(st.integers(0, ctx.object_universe))
        a2 = data.draw(st.integers(0, ctx.object_universe))
        if a1 & a2 == a1:
            i1, i2 = intent_of(ctx, a1), intent_of(ctx, a2)
            assert i2 & i1 == i2
        b1 = data.draw(st.integers(0, ctx.attribute_universe))
        b2 = data.draw(st.integers(0, ctx.attribute_universe))
        if b1 & b2 == b1:
            e1, e2 = extent(ctx, b1), extent(ctx, b2)
            assert e2 & e1 == e2


def random_context(n_objects: int, n_attrs: int, seed: int) -> FormalContext:
    rnd = random.Random(seed)
    return FormalContext(
        tuple(f"g{k}" for k in range(n_objects)),
        tuple(f"m{k}" for k in range(n_attrs)),
        tuple(rnd.getrandbits(n_attrs) | rnd.getrandbits(n_attrs) for _ in range(n_objects)),
    )


def sized_extents(ctx: FormalContext, sizes: list[int], seed: int) -> list[int]:
    """Five random object sets of each size in ``sizes``."""
    rnd = random.Random(seed)
    objs = range(ctx.n_objects)
    return [sum(1 << g for g in rnd.sample(objs, k)) for k in sizes for _ in range(5)]


class TestIntentOfPaths:
    """``intent_of`` ANDs the rows of an extent of fewer objects than the
    context has attributes and tests the columns otherwise; both paths
    against the literal twin, which tests one cross at a time."""

    @staticmethod
    def assert_both_paths(ctx: FormalContext, extents) -> tuple[int, int]:
        """Check every extent; count those taking the row and the column path."""
        by_rows = by_columns = 0
        for objs in extents:
            assert intent_of(ctx, objs) == literal_intent_of(ctx, objs), objs
            if objs.bit_count() < ctx.n_attrs:
                by_rows += 1
            else:
                by_columns += 1
        return by_rows, by_columns

    def test_fuzz_corpus(self):
        by_rows = by_columns = 0
        for ctx in fuzz_contexts(200, max_objects=8, max_attrs=10, seed=0x1A7):
            r, c = self.assert_both_paths(ctx, range(1 << ctx.n_objects))
            by_rows, by_columns = by_rows + r, by_columns + c
        assert by_rows > 1000 and by_columns > 1000

    def test_realistic_context(self):
        ctx = realistic_context()
        rnd = random.Random(16)
        extents = sized_extents(ctx, [0, 1, 2, 5, 15, 16, 17, 40, 403], seed=16)
        for _ in range(300):
            attrs = rnd.sample(range(16), rnd.randint(0, 4))
            extents.append(extent(ctx, sum(1 << j for j in attrs)))
        by_rows, by_columns = self.assert_both_paths(ctx, extents)
        assert by_rows > 50 and by_columns > 50

    @pytest.mark.parametrize("width", [65, 70, 130])
    def test_wider_than_64_attributes(self, width):
        ctx = random_context(2 * width, width, seed=width)
        sizes = [0, 1, 2, width - 1, width, width + 1, 2 * width]
        by_rows, by_columns = self.assert_both_paths(ctx, sized_extents(ctx, sizes, seed=width))
        assert by_rows and by_columns

    @pytest.mark.parametrize("width", [1, 5, 24, 70])
    def test_extent_of_exactly_n_objects_tests_the_columns(self, width):
        # An extent of n objects, n the attribute count, is the smallest that
        # tests the columns; one object fewer ANDs the rows.  Only the column
        # path reads (and caches) the transposed context.
        for size, reads_columns in ((width - 1, False), (width, True)):
            ctx = random_context(width + 3, width, seed=size)
            objs = (1 << size) - 1
            assert intent_of(ctx, objs) == literal_intent_of(ctx, objs)
            assert ("columns" in vars(ctx)) == reads_columns

    @pytest.mark.parametrize("width", [1, 5, 64, 70])
    def test_empty_extent_is_every_attribute(self, width):
        for n_objects in (0, 1, 30):
            ctx = random_context(n_objects, width, seed=n_objects)
            assert intent_of(ctx, 0) == ctx.attribute_universe == literal_intent_of(ctx, 0)

    def test_zero_attribute_context(self):
        ctx = random_context(6, 0, seed=0)
        for objs in range(1 << 6):
            assert intent_of(ctx, objs) == 0 == literal_intent_of(ctx, objs)


class TestBurmeister:
    def test_parse_toy_fixture(self, toy):
        parsed = parse_burmeister((DATA_DIR / "toy.cxt").read_text())
        assert parsed == toy

    def test_parse_live_in_water_fixture(self):
        ctx = parse_burmeister((DATA_DIR / "live_in_water.cxt").read_text())
        assert (ctx.n_objects, ctx.n_attrs, ctx.crosses) == (8, 9, 34)
        # everything needs water; only the dog suckles its offspring
        assert ctx.columns[0] == ctx.object_universe
        assert ctx.obj_names(ctx.columns[8]) == ("Dog",)

    def test_zero_objects(self):
        ctx = parse_burmeister("B\n\n0\n3\n\nx\ny\nz\n")
        assert ctx.rows == ()
        assert ctx.n_attrs == 3

    def test_serialize_matches_layout(self, toy):
        text = serialize_burmeister(toy)
        assert text.startswith("B\n\n4\n5\n\ng1\n")
        assert text.endswith(".XXX.\n")

    def test_trailing_newline_optional(self, toy):
        text = serialize_burmeister(toy)
        assert parse_burmeister(text.rstrip("\n")) == toy

    def test_crlf_tolerated(self, toy):
        text = serialize_burmeister(toy).replace("\n", "\r\n")
        assert parse_burmeister(text) == toy

    @pytest.mark.parametrize(
        "text",
        [
            "A\n\n1\n1\n\ng\nm\nX\n",  # wrong magic
            "B\n1\n1\n\ng\nm\nX\n",  # missing blank line
            "B\n\nx\n1\n\ng\nm\nX\n",  # non-numeric count
            "B\n\n2\n1\n\ng\nm\nX\n",  # count mismatch
            "B\n\n1\n1\n\ng\nm\nY\n",  # bad incidence character
            "B\n\n1\n2\n\ng\nm\nn\nX\n",  # short incidence row
            "B\n\n2\n1\n\ng\ng\nm\nX\nX\n",  # duplicate names
            "B\n\n-1\n1\n\n",  # negative count
            "B\n",  # truncated
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ContextFormatError):
            parse_burmeister(text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("X?X", "invalid incidence character '?'"),
            ("..XY?", "invalid incidence character 'Y'"),
            ("X X..", "invalid incidence character ' '"),
            ("XX", "incidence row for 'g' has length 2, expected 3"),
        ],
    )
    def test_incidence_row_errors_name_the_fault(self, row, message):
        head = "B\n\n1\n{}\n\ng\n".format(max(3, len(row)))
        attrs = "".join(f"m{j}\n" for j in range(max(3, len(row))))
        with pytest.raises(ContextFormatError) as err:
            parse_burmeister(head + attrs + row + "\n")
        assert str(err.value) == message

    def test_zero_attributes(self):
        ctx = parse_burmeister("B\n\n2\n0\n\ng\nh\n\n\n")
        assert (ctx.rows, ctx.n_attrs) == ((0, 0), 0)
        assert parse_burmeister(serialize_burmeister(ctx)) == ctx

    def test_rows_decode_bit_j_from_character_j(self):
        attrs = "".join(f"m{j}\n" for j in range(70))
        rows = "X" + "." * 68 + "X\n" + ".X" * 35 + "\n"
        ctx = parse_burmeister("B\n\n2\n70\n\ng\nh\n" + attrs + rows)
        assert ctx.rows == (1 | 1 << 69, sum(1 << j for j in range(1, 70, 2)))

    @given(contexts())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, ctx):
        assert parse_burmeister(serialize_burmeister(ctx)) == ctx


class TestDenseCsv:
    def test_identity_two_by_two(self):
        ctx = parse_dense_csv("id,m1,m2\ng1,1,0\ng2,0,1\n")
        assert ctx.rows == (0b01, 0b10)

    def test_max_attrs_truncates(self):
        ctx = parse_dense_csv("id,m1,m2,m3\ng1,1,1,1\n", max_attrs=2)
        assert ctx.attribute_names == ("m1", "m2")
        assert ctx.rows == (0b11,)

    def test_max_attrs_larger_than_columns(self):
        ctx = parse_dense_csv("id,m1,m2\ng1,1,0\n", max_attrs=10)
        assert ctx.attribute_names == ("m1", "m2")

    def test_cells_beyond_truncation_not_inspected(self):
        ctx = parse_dense_csv("id,m1,junk\ng1,1,spam\n", max_attrs=1)
        assert ctx.rows == (1,)

    def test_non_binary_cell(self):
        with pytest.raises(ContextFormatError, match="non-binary"):
            parse_dense_csv("id,m1\ng1,2\n")

    def test_ragged_row(self):
        with pytest.raises(ContextFormatError, match="cells"):
            parse_dense_csv("id,m1,m2\ng1,1\n")

    def test_empty_input(self):
        with pytest.raises(ContextFormatError, match="empty"):
            parse_dense_csv("")

    def test_duplicate_ids(self):
        with pytest.raises(ContextFormatError):
            parse_dense_csv("id,m1\ng,0\ng,1\n")

    @given(contexts())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, ctx):
        assert parse_dense_csv(serialize_dense_csv(ctx)) == ctx

    def test_roundtrip_with_awkward_names(self):
        ctx = FormalContext(("a,b", 'q"uote'), ("x y", "z,w"), (0b01, 0b10))
        assert parse_dense_csv(serialize_dense_csv(ctx)) == ctx


class TestClarifyRows:
    def test_duplicates_merged(self):
        ctx = ctx_of("ab", {"g1": "a", "g2": "a", "g3": "b"})
        clarified, mult = clarify_rows(ctx)
        assert clarified.object_names == ("g1", "g3")
        assert mult == [2, 1]
        assert clarified.meta["merged_object_names"] == ("g1+g2", "g3")

    def test_distinct_rows_identity(self, toy):
        clarified, mult = clarify_rows(toy)
        assert clarified == toy
        assert mult == [1, 1, 1, 1]

    @given(contexts())
    @settings(max_examples=40, deadline=None)
    def test_multiplicities_partition_objects(self, ctx):
        clarified, mult = clarify_rows(ctx)
        assert sum(mult) == ctx.n_objects
        assert len(set(clarified.rows)) == len(clarified.rows)
        assert all(m >= 1 for m in mult)


class TestWideContexts:
    def test_more_attributes_than_a_machine_word(self):
        from fcakit import enumerate_intents
        from conftest import staircase_context

        ctx = staircase_context(70)
        top = 1 << 69
        assert extent(ctx, top) == 1 << 69  # only the last object has m69
        assert closure(ctx, top) == ctx.attribute_universe
        intents = enumerate_intents(ctx)
        assert len(intents) == 70
        assert intents[-1] == ctx.attribute_universe


def sample_masks(width: int) -> list[int]:
    """The empty and full masks, the first and last attribute, and 300 random masks."""
    rnd = random.Random(width)
    full = (1 << width) - 1
    masks = {0, full, 1 & full, 1 << max(width - 1, 0) & full}
    masks.update(rnd.getrandbits(width) if width else 0 for _ in range(300))
    return list(masks)


class TestLecticOrder:
    def test_bit_reverse_involution(self):
        for width in (0, 1, 5, 17, 25):
            for value in range(min(1 << width, 64)):
                assert bit_reverse(bit_reverse(value, width), width) == value

    def test_bit_reverse_refuses_bits_above_width(self):
        with pytest.raises(ValueError, match="above width 3"):
            bit_reverse(0b1000, 3)
        with pytest.raises(ValueError):
            bit_reverse(1, 0)

    def test_lectic_sorted_matches_comparator(self):
        # a precedes b when the first attribute on which they differ is in b
        def lectic_cmp(a, b):
            diff = a ^ b
            if not diff:
                return 0
            return -1 if b & diff & -diff else 1

        for width in (0, 1, 63, 64, 65, 70, 130):
            masks = sample_masks(width)
            expected = sorted(masks, key=cmp_to_key(lectic_cmp))
            assert lectic_sorted(masks, width) == expected, width

    def test_iter_lectic_masks_is_lectic(self):
        masks = list(iter_lectic_masks(5))
        assert len(masks) == 32
        assert len(set(masks)) == 32
        ranks = [int(format(m, "05b")[::-1], 2) for m in masks]
        assert ranks == sorted(ranks)

    def test_iter_lectic_masks_wide(self):
        masks = list(iter_lectic_masks(17))
        assert len(masks) == 1 << 17
        assert masks[0] == 0
        assert masks[1] == 1 << 16  # lectically smallest nonempty: last attribute

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            next(iter_lectic_masks(POWERSET_SCAN_LIMIT + 1))

    def test_iter_bits(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]
        assert list(iter_bits(0)) == []

    @pytest.mark.parametrize("width", [0, 1, 8, 63, 64])
    def test_word_order_matches_lectic_sorted(self, width):
        masks = sample_masks(width)
        words = np.array(masks, dtype=np.uint64)
        assert words[lectic_order(words)].tolist() == lectic_sorted(masks, width)
        assert lectic_order(words[:0]).tolist() == []

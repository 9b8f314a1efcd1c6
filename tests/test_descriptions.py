"""Descriptions table: grouping, its power-set twin, exports."""

from __future__ import annotations

import csv
import io

import pytest

from fcakit import (
    CapacityError,
    CharFlags,
    FormalContext,
    enumerate_intents,
    export_description_lattice_context,
    summarize_descriptions,
)
from fcakit import descriptions
from fcakit.context import bit_reverse
from fcakit.descriptions import (
    DescriptionRow,
    TABLE_COLUMNS,
    flags_pattern,
    grouped_rows_to_csv,
)

from conftest import (
    contranominal_context,
    fuzz_contexts,
    nominal_context,
    toy_context,
)
from oracles import brute_force_all, build_descriptions_context, group_descriptions


class TestStream:
    def test_toy_record_count_and_order(self, toy):
        records = list(build_descriptions_context(toy))
        assert len(records) == 32
        ranks = [bit_reverse(mask, toy.n_attrs) for mask, _ in records]
        assert ranks == sorted(ranks)

    def test_toy_record_for_e(self, toy):
        by_mask = dict(build_descriptions_context(toy))
        flags = by_mask[toy.attrs_mask("e")]
        assert flags.is_pseudo_intent
        assert flags.is_key
        assert flags.is_passkey
        assert flags.is_proper_premise
        assert not flags.is_intent

    def test_stream_matches_per_subset_oracle(self, toy):
        oracle = brute_force_all(toy)
        as_sets = {name: set(masks) for name, masks in oracle.items()}
        for mask, flags in build_descriptions_context(toy):
            assert flags.is_intent == (mask in as_sets["intent"])
            assert flags.is_pseudo_intent == (mask in as_sets["pseudo_intent"])
            assert flags.is_key == (mask in as_sets["key"])
            assert flags.is_passkey == (mask in as_sets["passkey"])
            assert flags.is_proper_premise == (mask in as_sets["proper_premise"])
            assert flags_pattern(flags)[0]

    def test_nominal_three_grouped_rows_match_oracle(self):
        ctx = nominal_context(3)
        oracle = {name: set(m) for name, m in brute_force_all(ctx).items()}
        rows = group_descriptions(build_descriptions_context(ctx))
        assert sum(r.count for r in rows) == 8
        by_flags = {r.flags: r.count for r in rows}
        intents_only_keyed = CharFlags(is_intent=True, is_key=True, is_passkey=True)
        # singletons and the empty set: closed, each the key of itself
        assert by_flags[intents_only_keyed] == 4
        # the three pairs: pseudo-intents and proper premises
        pair_flags = CharFlags(
            is_pseudo_intent=True, is_key=True, is_passkey=True, is_proper_premise=True
        )
        assert by_flags[pair_flags] == len(oracle["pseudo_intent"]) == 3
        # the full set: closed but generated more cheaply by any pair
        assert by_flags[CharFlags(is_intent=True)] == 1

    def test_single_attribute_empty_column(self):
        # nothing carries the attribute: both subsets are closed
        ctx = FormalContext(("g1",), ("m",), (0,))
        by_mask = dict(build_descriptions_context(ctx))
        assert by_mask[0].is_intent
        assert by_mask[1].is_intent

    def test_single_attribute_full_column(self):
        # every object carries the attribute: the empty set closes upward
        ctx = FormalContext(("g1", "g2"), ("m",), (1, 1))
        by_mask = dict(build_descriptions_context(ctx))
        assert by_mask[0] == CharFlags(
            is_pseudo_intent=True, is_key=True, is_passkey=True, is_proper_premise=True
        )
        assert by_mask[1] == CharFlags(is_intent=True)

    def test_capacity_guard(self, monkeypatch):
        def index_classes(ctx):
            raise AssertionError("a family was computed before the refusal")

        monkeypatch.setattr(descriptions, "index_classes", index_classes)
        wide = FormalContext((), tuple(f"m{i}" for i in range(26)), ())
        with pytest.raises(CapacityError, match="26 attributes"):
            summarize_descriptions(wide)
        with pytest.raises(CapacityError):
            next(build_descriptions_context(wide))


class TestGrouping:
    def test_counts_partition_power_set(self, toy):
        rows = group_descriptions(build_descriptions_context(toy))
        assert sum(r.count for r in rows) == 32
        assert all(r.count >= 1 for r in rows)

    def test_fast_path_equals_streamed_path(self, toy):
        assert summarize_descriptions(toy) == group_descriptions(
            build_descriptions_context(toy)
        )
        for ctx in fuzz_contexts(15, max_objects=6, max_attrs=8, seed=13):
            assert summarize_descriptions(ctx) == group_descriptions(
                build_descriptions_context(ctx)
            )

    def test_contranominal_single_row(self):
        # every subset is closed and is the unique key of itself
        rows = summarize_descriptions(contranominal_context(3))
        assert len(rows) == 1
        assert rows[0].count == 8
        assert rows[0].flags == CharFlags(is_intent=True, is_key=True, is_passkey=True)

    def test_bulk_row_sorted_last(self, toy):
        rows = summarize_descriptions(toy)
        assert rows[-1].flags == CharFlags()  # generator-only bulk

    def test_ordering_is_descending_pattern(self):
        rows = summarize_descriptions(toy_context())
        patterns = [flags_pattern(r.flags) for r in rows]
        assert patterns == sorted(patterns, reverse=True)

    def test_forbidden_combination_never_appears(self):
        for ctx in fuzz_contexts(15, max_objects=6, max_attrs=7, seed=3):
            for row in summarize_descriptions(ctx):
                assert not (row.flags.is_intent and row.flags.is_pseudo_intent)


class TestClarifyAgreement:
    def test_clarifying_the_descriptions_context_matches_grouping(self, toy):
        # materialize the toy's descriptions context as a real context, one
        # object per subset; merging duplicate rows must reproduce the
        # grouped multiplicities
        from fcakit import clarify_rows

        records = list(build_descriptions_context(toy))
        desc_ctx = FormalContext(
            tuple(f"s{i}" for i in range(len(records))),
            TABLE_COLUMNS,
            tuple(
                sum(1 << j for j, bit in enumerate(flags_pattern(flags)) if bit)
                for _, flags in records
            ),
        )
        clarified, multiplicities = clarify_rows(desc_ctx)
        assert sum(multiplicities) == 32
        got = {
            (row, count) for row, count in zip(clarified.rows, multiplicities)
        }
        expected = {
            (
                sum(1 << j for j, bit in enumerate(flags_pattern(r.flags)) if bit),
                r.count,
            )
            for r in group_descriptions(records)
        }
        assert got == expected


class TestAliases:
    def test_pattern_aliases_consistent(self, toy):
        for row in summarize_descriptions(toy):
            pattern = dict(zip(TABLE_COLUMNS, flags_pattern(row.flags)))
            assert pattern["is minimal gen"] == pattern["is key"]
            assert pattern["is minimum gen"] == pattern["is passkey"]
            assert pattern["is closed descr"] == pattern["is intent"]
            assert pattern["is generator"]


class TestExport:
    def test_toy_export_roundtrip(self, toy):
        rows = summarize_descriptions(toy)
        ctx = export_description_lattice_context(rows)
        assert ctx.attribute_names == TABLE_COLUMNS
        assert ctx.n_objects == len(rows)
        for name, row in zip(ctx.object_names, rows):
            assert name == str(row.count) or name.startswith(f"{row.count}#")
        # its lattice is well-formed and matches a from-scratch scan
        intents = enumerate_intents(ctx)
        assert len(intents) == len(brute_force_all(ctx)["intent"])

    def test_duplicate_counts_deduplicated(self):
        rows = [
            DescriptionRow(CharFlags(is_intent=True), 1),
            DescriptionRow(CharFlags(), 1),
        ]
        ctx = export_description_lattice_context(rows)
        assert ctx.object_names == ("1", "1#2")

    def test_single_row_input(self):
        rows = [DescriptionRow(CharFlags(is_intent=True), 4)]
        ctx = export_description_lattice_context(rows)
        assert ctx.n_objects == 1
        assert ctx.rows[0] == sum(
            1 << j
            for j, present in enumerate(flags_pattern(CharFlags(is_intent=True)))
            if present
        )


class TestCsv:
    def test_header_and_marks(self, toy):
        text = grouped_rows_to_csv(summarize_descriptions(toy))
        records = list(csv.reader(io.StringIO(text)))
        assert records[0] == ["count"] + list(TABLE_COLUMNS)
        # the generator column is an X in every data row
        assert all(rec[1] == "X" for rec in records[1:])
        assert sum(int(rec[0]) for rec in records[1:]) == 32

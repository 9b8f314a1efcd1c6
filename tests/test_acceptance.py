"""Acceptance suite: one test per release criterion, at stated tolerances.

Criteria 2 and 7 pin published reference counts for the Bob Ross episode
dataset and need the public CSV (see tests/data/README.md); they skip with
instructions when it is absent.  Everything else is self-contained.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from itertools import combinations

from fcakit import (
    Strategy,
    classify,
    closure,
    column_shuffle,
    density_shuffle,
    dg_basis,
    distributivity,
    build_lattice,
    enumerate_intents,
    enumerate_keys,
    enumerate_passkeys,
    enumerate_proper_premises,
    enumerate_pseudo_intents,
    export_description_lattice_context,
    group_descriptions,
    build_descriptions_context,
    implication_closure,
    linearity,
    run_trials,
)
from fcakit.charsets import index_classes

from conftest import (
    DATA_DIR,
    bobross_context,
    fuzz_contexts,
    grouped_demo_context,
    names,
    nominal_context,
    staircase_context,
    toy_context,
)
from oracles import brute_force_all

# Shared fuzz corpus for criteria 3-6: 200 deterministic random contexts,
# most of them at substantial size, a tail of degenerate shapes.
CORPUS = fuzz_contexts(
    170, max_objects=8, max_attrs=10, min_objects=4, min_attrs=6, seed=0xACCE
) + fuzz_contexts(30, max_objects=4, max_attrs=4, seed=0xACCE + 1)


def test_criterion_1_toy_exactness():
    start = time.perf_counter()
    toy = toy_context()

    pseudo = enumerate_pseudo_intents(toy)
    assert names(toy, pseudo) == {
        frozenset("b"),
        frozenset("e"),
        frozenset({"c", "d"}),
        frozenset({"a", "b", "c"}),
    }

    assert classify(toy, toy.attrs_mask("ab"), pseudo).is_proper_premise

    keys = enumerate_keys(toy)
    passkeys = enumerate_passkeys(toy, keys)
    acd = toy.attrs_mask("acd")
    assert acd in keys
    assert acd not in passkeys

    bd = toy.attrs_mask("bd")
    assert bd in passkeys
    assert closure(toy, bd) == toy.attrs_mask("bcd")

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"toy exactness took {elapsed:.2f}s"


def test_criterion_2_bobross_reference_counts(tmp_path):
    ctx = bobross_context(max_attrs=20)
    start = time.perf_counter()

    index = index_classes(ctx)
    assert len(index.intents) == 112
    assert len(index.keys) == 259

    rows = group_descriptions(build_descriptions_context(ctx, index))
    counts = sorted(r.count for r in rows)
    assert counts == sorted([67, 45, 41, 125, 1, 25, 33, 1048239])
    assert sum(counts) == 1 << 20

    # the re-encoded grouped table is exactly the vendored 8x9 demo grid
    exported = export_description_lattice_context(rows)
    demo = grouped_demo_context()
    demo_cells = {(int(name), row) for name, row in zip(demo.object_names, demo.rows)}
    exported_cells = {
        (int(name.split("#")[0]), row)
        for name, row in zip(exported.object_names, exported.rows)
    }
    assert exported_cells == demo_cells

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"reference reproduction took {elapsed:.1f}s"

    # same figures through the command line, truncating at ingestion
    from conftest import bobross_csv_path, prepare_bobross_text
    from fcakit.cli import main

    csv_path = tmp_path / "episodes.csv"
    csv_path.write_text(prepare_bobross_text(bobross_csv_path().read_text()))
    out = tmp_path / "report.json"
    assert (
        main(["analyze", str(csv_path), "--max-attrs", "20", "--out", str(out)]) == 0
    )
    report = json.loads(out.read_text())
    assert report["classes"]["intents"]["total"] == 112
    assert report["classes"]["keys"]["total"] == 259


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    fast_paths = (
        ("intent", enumerate_intents),
        ("pseudo_intent", enumerate_pseudo_intents),
        ("key", enumerate_keys),
        ("passkey", enumerate_passkeys),
        ("proper_premise", enumerate_proper_premises),
    )
    for ctx in CORPUS:
        oracle = brute_force_all(ctx)
        for name, fast in fast_paths:
            assert set(fast(ctx)) == set(oracle[name]), name
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"


def test_criterion_4_basis_properties():
    for ctx in CORPUS:
        basis = dg_basis(ctx)
        premise_closures = [
            (p, closure(ctx, p)) for p in enumerate_proper_premises(ctx)
        ]
        for b in range(1 << ctx.n_attrs):
            target = closure(ctx, b)
            # canonical basis: sound and complete
            assert implication_closure(b, basis) == target
            # direct basis: one pass over applicable proper premises suffices
            u = b
            for p, c in premise_closures:
                if p & b == p:
                    u |= c
            assert u == target


def test_criterion_5_index_values():
    for n in range(2, 9):
        lat = build_lattice(enumerate_intents(staircase_context(n)))
        assert linearity(lat) == 1.0
        assert distributivity(lat) == 1.0

    intents = enumerate_intents(nominal_context(3))
    comparable = sum(
        1 for a, b in combinations(intents, 2) if a & b in (a, b)
    )
    union_closed = sum(
        1 for a, b in combinations(intents, 2) if a | b in set(intents)
    )
    pairs = len(intents) * (len(intents) - 1) // 2
    assert comparable / pairs == 0.7
    assert union_closed / pairs == 0.7
    lat = build_lattice(intents)
    assert linearity(lat) == 0.7
    assert distributivity(lat) == 0.7

    for ctx in CORPUS:
        lat = build_lattice(enumerate_intents(ctx))
        assert 0.0 <= linearity(lat) <= 1.0
        assert 0.0 <= distributivity(lat) <= 1.0


def test_criterion_6_randomization_invariants():
    trial = 0
    for ctx in CORPUS:
        for _ in range(5):
            shuffled = density_shuffle(ctx, seed=trial)
            assert shuffled.crosses == ctx.crosses
            assert (shuffled.n_objects, shuffled.n_attrs) == (
                ctx.n_objects,
                ctx.n_attrs,
            )
            trial += 1
    assert trial >= 1000
    for ctx in CORPUS:
        for _ in range(5):
            shuffled = column_shuffle(ctx, seed=trial)
            assert [c.bit_count() for c in shuffled.columns] == [
                c.bit_count() for c in ctx.columns
            ]
            trial += 1
    assert trial >= 2000

    # identical results regardless of worker count
    demo = toy_context()
    assert run_trials(demo, Strategy.COLUMN, 6, seed=9, workers=1) == run_trials(
        demo, Strategy.COLUMN, 6, seed=9, workers=4
    )

    # byte-identical CLI reports across separate processes
    argv = [
        sys.executable,
        "-m",
        "fcakit",
        "randomize",
        str(DATA_DIR / "toy.cxt"),
        "--strategy",
        "column",
        "--trials",
        "5",
        "--seed",
        "42",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_criterion_7_randomized_counterparts_have_more_intents():
    ctx = bobross_context(max_attrs=20)
    summaries = run_trials(
        ctx, Strategy.COLUMN, 100, seed=2026, metrics=("intent-count",)
    )
    total = next(s for s in summaries if s.size is None)
    assert total.real_value == 112.0
    median = total.quartiles[2]
    assert median > total.real_value, (
        f"median randomized intent count {median} not above real "
        f"{total.real_value}"
    )

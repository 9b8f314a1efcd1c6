"""Null-model shuffles, trial seeding, and quartile summaries."""

from __future__ import annotations

import errno
import os
import time

import pytest

from fcakit import (
    FormalContext,
    Strategy,
    column_shuffle,
    density_shuffle,
    index_classes,
    run_trials,
    summarize,
)
from fcakit import lattice, randomize
from fcakit.randomize import DEFAULT_METRICS, derive_trial_seed, evaluate_metrics, shuffle

from conftest import (
    assert_no_children,
    ctx_of,
    fuzz_contexts,
    grouped_demo_context,
    open_fd_count,
    realistic_context,
    run_sequentially,
    toy_context,
)


class TestDensityShuffle:
    def test_preserves_shape_and_cross_count(self):
        demo = grouped_demo_context()
        assert demo.crosses == 35
        shuffled = density_shuffle(demo, seed=1)
        assert shuffled.crosses == 35
        assert shuffled.n_objects == 8 and shuffled.n_attrs == 9
        assert shuffled.object_names == demo.object_names

    def test_empty_and_full_unchanged(self):
        empty = FormalContext(("g1", "g2"), ("a", "b"), (0, 0))
        assert density_shuffle(empty, seed=5) == empty
        full = FormalContext(("g1", "g2"), ("a", "b"), (3, 3))
        assert density_shuffle(full, seed=5) == full

    def test_deterministic_per_seed(self):
        demo = grouped_demo_context()
        assert density_shuffle(demo, seed=9) == density_shuffle(demo, seed=9)
        assert any(
            density_shuffle(demo, seed=9) != density_shuffle(demo, seed=s)
            for s in range(10, 14)
        )

    def test_invariant_over_corpus(self):
        trial = 0
        for ctx in fuzz_contexts(40, seed=31):
            for _ in range(5):
                shuffled = density_shuffle(ctx, seed=trial)
                assert shuffled.crosses == ctx.crosses
                assert (shuffled.n_objects, shuffled.n_attrs) == (
                    ctx.n_objects,
                    ctx.n_attrs,
                )
                trial += 1


class TestColumnShuffle:
    def test_preserves_every_column_sum(self):
        demo = grouped_demo_context()
        sums = [col.bit_count() for col in demo.columns]
        assert sums[:3] == [8, 2, 5]
        shuffled = column_shuffle(demo, seed=3)
        assert [col.bit_count() for col in shuffled.columns] == sums

    def test_single_object_unchanged(self):
        ctx = ctx_of("abc", {"g": "ac"})
        assert column_shuffle(ctx, seed=7) == ctx

    def test_full_and_empty_columns_unchanged(self):
        ctx = FormalContext(("g1", "g2"), ("a", "b"), (0b01, 0b01))
        shuffled = column_shuffle(ctx, seed=11)
        assert shuffled.columns[0] == 0b11  # full column stays full
        assert shuffled.columns[1] == 0  # empty column stays empty

    def test_invariant_over_corpus(self):
        trial = 1000
        for ctx in fuzz_contexts(40, seed=32):
            for _ in range(5):
                shuffled = column_shuffle(ctx, seed=trial)
                assert [c.bit_count() for c in shuffled.columns] == [
                    c.bit_count() for c in ctx.columns
                ]
                trial += 1

    def test_placement_uniformity(self):
        # one cross in a two-object column: each placement should occur
        # about half the time
        ctx = FormalContext(("g1", "g2"), ("a",), (1, 0))
        hits = sum(column_shuffle(ctx, seed=i).rows[0] for i in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02


class TestSummarize:
    def test_exact_positions(self):
        assert summarize([1, 2, 3, 4, 5]) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_singleton(self):
        assert summarize([7]) == (7.0, 7.0, 7.0, 7.0, 7.0)

    def test_interpolated_median(self):
        assert summarize([1, 1, 1, 100])[2] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestRunTrials:
    def test_deterministic(self):
        toy = toy_context()
        a = run_trials(toy, Strategy.COLUMN, 5, seed=42)
        b = run_trials(toy, "column", 5, seed=42)
        assert a == b

    @pytest.mark.parametrize("strategy", ["density", "column"])
    def test_each_trial_reproducible_alone(self, strategy):
        # Trial i is the metric suite on the context shuffled with trial i's
        # own seed, whatever the other trials are.
        demo = grouped_demo_context()
        summaries = run_trials(demo, strategy, 6, seed=5)
        for i in range(6):
            shuffled = shuffle(demo, strategy, derive_trial_seed(5, i))
            values = evaluate_metrics(shuffled)
            assert set(values) <= {(s.metric, s.size) for s in summaries}
            for s in summaries:
                assert s.trial_values[i] == values.get((s.metric, s.size), 0.0)
        shorter = run_trials(demo, strategy, 3, seed=5)
        prefixes = {(s.metric, s.size): s.trial_values[:3] for s in summaries}
        for s in shorter:
            assert prefixes.get((s.metric, s.size), (0.0,) * 3) == s.trial_values

    def test_single_trial_reproducible(self):
        toy = toy_context()
        (first,) = [
            s
            for s in run_trials(toy, Strategy.COLUMN, 1, seed=7, metrics=("intent-count",))
            if s.size is None
        ]
        (second,) = [
            s
            for s in run_trials(toy, Strategy.COLUMN, 1, seed=7, metrics=("intent-count",))
            if s.size is None
        ]
        assert first == second
        assert len(first.trial_values) == 1

    def test_summary_shape(self):
        toy = toy_context()
        summaries = run_trials(toy, Strategy.DENSITY, 6, seed=1)
        metrics_seen = {s.metric for s in summaries}
        assert metrics_seen == set(DEFAULT_METRICS)
        for s in summaries:
            assert len(s.trial_values) == 6
            assert s.quartiles == summarize(list(s.trial_values))
            lo, q1, median, q3, hi = s.quartiles
            assert lo <= q1 <= median <= q3 <= hi
            if s.metric in ("linearity", "distributivity"):
                assert s.size is None
                assert 0.0 <= s.real_value <= 1.0

    def test_totals_match_size_histograms(self):
        demo = grouped_demo_context()
        summaries = run_trials(demo, Strategy.COLUMN, 4, seed=3)
        for metric in ("intent-count", "key-count"):
            total = next(s for s in summaries if s.metric == metric and s.size is None)
            by_size = [s for s in summaries if s.metric == metric and s.size is not None]
            for i in range(4):
                assert sum(s.trial_values[i] for s in by_size) == total.trial_values[i]
            assert sum(s.real_value for s in by_size) == total.real_value

    def test_bad_inputs(self):
        toy = toy_context()
        with pytest.raises(ValueError):
            run_trials(toy, Strategy.DENSITY, 0, seed=1)
        with pytest.raises(ValueError):
            run_trials(toy, Strategy.DENSITY, 1, seed=1, metrics=("no-such-metric",))
        with pytest.raises(ValueError):
            shuffle(toy, "swap", seed=1)

    def test_empty_metric_list_raises(self):
        with pytest.raises(ValueError, match="at least one metric"):
            run_trials(toy_context(), "column", 2, 0, metrics=())

    def test_repeated_metric_names_collapse(self, monkeypatch):
        calls = []
        real = lattice.linearity

        def counting(lat):
            calls.append(lat)
            return real(lat)

        monkeypatch.setattr(lattice, "linearity", counting)
        # The calls are counted in this process, so every trial runs here.
        toy = toy_context()
        once = run_sequentially(run_trials, toy, "column", 2, 0, metrics=("linearity",))
        assert len(calls) == 3
        twice = run_sequentially(
            run_trials, toy, "column", 2, 0, metrics=("linearity", "linearity")
        )
        assert twice == once
        assert len(calls) == 6
        mixed = ("intent-count", "linearity", "intent-count", "linearity")
        pair = ("intent-count", "linearity")
        assert run_sequentially(run_trials, toy, "column", 2, 0, metrics=mixed) == (
            run_sequentially(run_trials, toy, "column", 2, 0, metrics=pair)
        )


class TestForkedTrials:
    """The forked trial path against every trial run in this process."""

    @pytest.mark.parametrize("strategy", ["density", "column"])
    @pytest.mark.parametrize("n_trials", [1, 2, 3, 5])
    def test_matches_sequential(self, forced_fork, strategy, n_trials):
        demo = grouped_demo_context()
        want = run_sequentially(run_trials, demo, strategy, n_trials, seed=11)
        assert forced_fork.forks == []
        fds = open_fd_count()
        home = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        assert run_trials(demo, strategy, n_trials, seed=11) == want
        assert len(forced_fork.forks) == min(forced_fork.k, n_trials) - 1
        assert_no_children()
        assert open_fd_count() == fds
        if home is not None:
            assert os.sched_getaffinity(0) == home

    @pytest.mark.parametrize("strategy", ["density", "column"])
    def test_each_trial_reproducible_alone(self, forced_fork, strategy):
        TestRunTrials().test_each_trial_reproducible_alone(strategy)
        assert forced_fork.forks

    def test_unforkable_strides_run_here(self, forced_fork, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        demo = grouped_demo_context()
        want = run_sequentially(run_trials, demo, "column", 5, seed=2)
        fds = open_fd_count()
        assert run_trials(demo, "column", 5, seed=2) == want
        assert open_fd_count() == fds

    @pytest.mark.parametrize("evaluate_s", [0.0, 0.02], ids=["instant", "20ms"])
    def test_forks_by_cpus_and_trials_alone(self, forced_fork, monkeypatch, evaluate_s):
        # However fast a context evaluates, n trials on k CPUs run in
        # min(k, n) processes.
        def evaluate(ctx, metrics=DEFAULT_METRICS):
            time.sleep(evaluate_s)
            return {("linearity", None): 0.5}

        monkeypatch.setattr(randomize, "evaluate_metrics", evaluate)
        fds = open_fd_count()
        for n_trials in range(1, 6):
            before = len(forced_fork.forks)
            [summary] = run_trials(toy_context(), "column", n_trials, 0)
            assert summary.trial_values == (0.5,) * n_trials
            assert len(forced_fork.forks) - before == min(forced_fork.k, n_trials) - 1
            assert_no_children()
            assert open_fd_count() == fds


class TestLiveInWaterIndistinguishable:
    """For this small dense dataset the attribute-independence null model is
    statistically close to the real data: a loose, seed-frozen direction
    check rather than an exact value."""

    def test_real_values_sit_inside_trial_distributions(self):
        from fcakit import parse_burmeister
        from conftest import DATA_DIR

        water = parse_burmeister((DATA_DIR / "live_in_water.cxt").read_text())
        summaries = run_trials(water, Strategy.COLUMN, 100, seed=2026)
        inside_range = sum(
            1
            for s in summaries
            if s.quartiles[0] <= s.real_value <= s.quartiles[4]
        )
        inside_iqr = sum(
            1
            for s in summaries
            if s.quartiles[1] <= s.real_value <= s.quartiles[3]
        )
        assert inside_range == len(summaries)
        assert inside_iqr > len(summaries) // 2


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_trial_seed(42, 0)
        b = derive_trial_seed(42, 1)
        c = derive_trial_seed(43, 0)
        assert a == derive_trial_seed(42, 0)
        assert len({a, b, c}) == 3
        assert all(0 <= s < 2**64 for s in (a, b, c))


class TestEvaluateMetrics:
    def test_toy_values(self):
        toy = toy_context()
        values = evaluate_metrics(toy)
        assert values[("intent-count", None)] == 9.0
        assert values[("pseudo-intent-count", None)] == 4.0
        assert values[("pseudo-intent-count", 1)] == 2.0  # {b} and {e}
        assert values[("pseudo-intent-count", 2)] == 1.0  # {c,d}
        assert values[("pseudo-intent-count", 3)] == 1.0  # {a,b,c}
        assert 0.0 <= values[("linearity", None)] <= 1.0

    @pytest.mark.parametrize(
        "metrics",
        [DEFAULT_METRICS, ("key-count",), ("passkey-count",), ("proper-premise-count",)],
        ids=["all", "keys", "passkeys", "proper-premises"],
    )
    def test_counts_match_index_classes(self, metrics):
        families = {
            "intent-count": "intents",
            "pseudo-intent-count": "pseudo_intents",
            "key-count": "keys",
            "passkey-count": "passkeys",
            "proper-premise-count": "proper_premises",
        }
        for ctx in fuzz_contexts(20, seed=7) + [realistic_context()]:
            index = index_classes(ctx)
            values = evaluate_metrics(ctx, metrics)
            for metric in set(metrics) & set(families):
                members = getattr(index, families[metric])
                want = {(metric, None): float(len(members))}
                for mask in members:
                    key = (metric, mask.bit_count())
                    want[key] = want.get(key, 0.0) + 1.0
                got = {k: v for k, v in values.items() if k[0] == metric}
                assert got == want

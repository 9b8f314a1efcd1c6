"""Tests of the benchmark's own code.  Run from the repository root::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from fcakit import cli, parse_burmeister, parse_dense_csv  # noqa: E402


class TestGenerator:
    def test_same_seed_same_bytes(self):
        for fmt in ("cxt", "csv"):
            assert gen.render(403, 24, 0.2, 7, fmt) == gen.render(403, 24, 0.2, 7, fmt)

    def test_other_seed_other_bytes(self):
        assert gen.render(403, 24, 0.2, 7, "cxt") != gen.render(403, 24, 0.2, 8, "cxt")

    def test_script_writes_the_rendered_bytes(self, tmp_path):
        out = tmp_path / "ctx.csv"
        gen.main(["--objects", "50", "--attrs", "9", "--density", "0.3", "--seed", "3", "--block", "4", str(out)])
        assert out.read_bytes() == gen.render(50, 9, 0.3, 3, "csv", 4).encode()

    def test_fcakit_reads_both_formats_alike(self):
        cells = gen.incidence(40, 12, 0.25, 5)
        a = parse_burmeister(gen.to_cxt(cells))
        b = parse_dense_csv(gen.to_csv(cells))
        assert (a.rows, a.n_attrs, a.n_objects) == (b.rows, 12, 40)
        assert a.crosses == int(cells.sum())

    def test_density_near_target(self):
        cells = gen.incidence(403, 67, 0.2, 11, block=20)
        assert 0.15 < cells.mean() < 0.25
        # Each stratified block spans the whole density distribution.
        assert 0.15 < cells[:, :20].mean() < 0.25


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "job": 0}


class TestSelfTime:
    def test_hand_built_tree(self):
        tree = [
            _span("cli.main", 0.0, 10.0, None),  # 0
            _span("cli.report", 1.0, 8.0, 0),  # 1
            _span("charsets.basis", 2.0, 6.0, 1),  # 2
            _span("lattice.linearity", 6.5, 7.5, 1),  # 3
            _span("context.parse", 0.2, 0.7, 0),  # 4
        ]
        tallies = [
            {"parent": 2, "name": "context.closure", "calls": 10, "seconds": 1.5},
            {"parent": 0, "name": "context.closure", "calls": 1, "seconds": 0.25},
        ]
        assert spans.self_times(tree, tallies) == pytest.approx([10 - 7 - 0.5 - 0.25, 7 - 4 - 1, 4 - 1.5, 1.0, 0.5])

    def test_self_times_sum_to_root_minus_tallies(self):
        tree = [_span("a", 0.0, 4.0, None), _span("b", 1.0, 3.0, 0), _span("c", 1.5, 2.0, 1)]
        tallies = [{"parent": 1, "name": "t", "calls": 3, "seconds": 0.25}]
        assert sum(spans.self_times(tree, tallies)) == pytest.approx(4.0 - 0.25)

    def test_layer_values_from_a_trace(self):
        trace = {
            "spans": [
                _span("cli.main", 0.0, 10.0, None),
                _span("charsets.index", 1.0, 9.0, 0),
                _span("charsets.basis", 2.0, 6.0, 1),
                _span("charsets.keys", 6.0, 7.0, 1),
            ],
            "tallies": [{"parent": 2, "name": "context.closure", "calls": 10, "seconds": 1.5}],
            "counters": {"charsets.pseudo_intents": 4, "charsets.keys": 9},
        }
        got = run.layer_values(trace)
        assert got["charsets.index_s"] == pytest.approx(8.0)  # inclusive
        assert got["charsets.basis_s"] == pytest.approx(2.5)
        assert got["context.closure_s"] == pytest.approx(1.5)
        assert got["context.closure_calls"] == 10
        assert got["cli.self_s"] == pytest.approx(2.0)
        assert got["charsets.family_calls"] == 2
        assert (got["charsets.pseudo_intents"], got["charsets.keys"]) == (4, 9)


@pytest.fixture(scope="module")
def report_outputs(tmp_path_factory):
    """analyze + describe outputs for a small generated context."""
    work = tmp_path_factory.mktemp("report")
    cells = gen.incidence(60, 8, 0.3, 2)
    path = work / "ctx.cxt"
    path.write_text(gen.to_cxt(cells))
    assert cli.main(["analyze", str(path), "--out", str(work / "analysis.json")]) == 0
    assert cli.main(["describe", str(path), "--out", str(work / "descr")]) == 0
    outputs = {name: (work / name).read_bytes() for name in ("analysis.json", "descr.csv", "descr.cxt")}
    facts = checks.Facts(60, 8, tuple(int(s) for s in cells.sum(axis=0)))
    return outputs, facts


class TestChecks:
    validator = checks.load_validator(ROOT)

    def test_genuine_outputs_pass(self, report_outputs):
        outputs, facts = report_outputs
        reference = {name: checks.digest(data) for name, data in outputs.items()}
        assert checks.check_outputs(outputs, facts, reference, self.validator) == []

    @pytest.mark.parametrize("name", ["analysis.json", "descr.csv", "descr.cxt"])
    def test_one_flipped_byte_fails(self, report_outputs, name):
        outputs, facts = report_outputs
        reference = {n: checks.digest(data) for n, data in outputs.items()}
        data = bytearray(outputs[name])
        at = data.index(b"1")  # a digit, so the file may still parse
        data[at] = ord("2")
        flipped = dict(outputs, **{name: bytes(data)})
        assert checks.check_outputs(flipped, facts, reference, self.validator)

    @pytest.mark.parametrize("name", ["analysis.json", "descr.csv"])
    def test_unreadable_bytes_fail_without_raising(self, report_outputs, name):
        outputs, facts = report_outputs
        broken = dict(outputs, **{name: b"\xff" + outputs[name][1:]})
        assert checks.check_outputs(broken, facts, {}, self.validator)

    def test_invariants_catch_a_wrong_table_without_reference(self, report_outputs):
        outputs, facts = report_outputs
        lines = outputs["descr.csv"].decode().splitlines()
        first = lines[1].split(",")
        first[0] = str(int(first[0]) + 1)
        lines[1] = ",".join(first)
        broken = dict(outputs, **{"descr.csv": ("\n".join(lines) + "\n").encode()})
        problems = checks.check_outputs(broken, facts, {}, self.validator)
        assert any("sum to" in p for p in problems)

    def test_wrong_input_facts_fail(self, report_outputs):
        outputs, facts = report_outputs
        other = checks.Facts(facts.objects, facts.attributes, (facts.column_sums[0] + 1,) + facts.column_sums[1:])
        assert checks.check_outputs(outputs, other, {}, self.validator)

    def test_column_sums_checked_per_trial(self, tmp_path):
        cells = gen.incidence(30, 10, 0.3, 4, block=5)
        path = tmp_path / "ctx.csv"
        path.write_text(gen.to_csv(cells))
        out = tmp_path / "randomization.json"
        argv = ["randomize", str(path), "--max-attrs", "5", "--strategy", "column", "--trials", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        facts = checks.Facts(30, 5, tuple(int(s) for s in cells[:, :5].sum(axis=0)))
        report = json.loads(out.read_bytes())
        assert checks.check_outputs({"randomization.json": out.read_bytes()}, facts, {}, self.validator) == []
        report["trial_digests"][1]["column_sums"][0] += 1
        tampered = json.dumps(report).encode()
        assert checks.check_outputs({"randomization.json": tampered}, facts, {}, self.validator)


def test_traced_job_matches_untraced(tmp_path):
    cells = gen.incidence(50, 10, 0.3, 6, block=6)
    path = tmp_path / "ctx.csv"
    path.write_text(gen.to_csv(cells))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results, reports = [], []
    for traced in ("0", "1"):
        out = tmp_path / f"r{traced}.json"
        argv = ["randomize", str(path), "--max-attrs", "6", "--strategy", "column", "--trials", "3", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "job.py"), repr(time.monotonic()), traced, "5", *argv],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        results.append(json.loads(proc.stdout))
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    plain, traced = results
    assert plain["rc"] == traced["rc"] == 0 and "trace" not in plain
    names = {s["name"] for s in traced["trace"]["spans"]}
    # cli imports run_trials and shuffle by name; both must be traced.
    assert {"cli.main", "cli.report", "randomize.trials", "randomize.shuffle", "charsets.basis"} <= names
    assert {s["job"] for s in traced["trace"]["spans"]} == {5}
    layers = run.layer_values(traced["trace"])
    assert layers["randomize.shuffle_calls"] == layers["randomize.seed_calls"] == 6
    assert layers["context.closure_calls"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

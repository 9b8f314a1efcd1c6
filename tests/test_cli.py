"""Command-line front end: reports, exit codes, determinism, schema."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import fcakit
from fcakit import (
    CapacityError,
    charsets,
    lattice,
    parse_burmeister,
    randomize,
    serialize_burmeister,
    serialize_dense_csv,
)
from fcakit.cli import build_analysis_report, build_indices_report, main
from fcakit.descriptions import summarize_descriptions
from fcakit.randomize import evaluate_metrics

from conftest import (
    DATA_DIR,
    assert_no_children,
    grouped_demo_context,
    nominal_context,
    open_fd_count,
    run_sequentially,
    staircase_context,
    toy_context,
)

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/fcakit/schemas/report.schema.json").read_text()
)
TOY_CXT = DATA_DIR / "toy.cxt"


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv: str) -> dict:
    code, out = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


@pytest.fixture
def chain_file(tmp_path) -> Path:
    path = tmp_path / "chain.cxt"
    path.write_text(serialize_burmeister(staircase_context(5)))
    return path


@pytest.fixture
def nominal_file(tmp_path) -> Path:
    path = tmp_path / "nominal.cxt"
    path.write_text(serialize_burmeister(nominal_context(3)))
    return path


FAMILY_FUNCTIONS = (
    "enumerate_intents",
    "enumerate_pseudo_intents",
    "enumerate_keys",
    "enumerate_passkeys",
    "enumerate_proper_premises",
)


class TestOnePipeline:
    """Reports and trials reach each family through one lazily cached index."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Call counts and results of every family function and of
        ``build_lattice``."""
        calls: Counter[str] = Counter()
        results: dict[str, list] = {}
        targets = [(charsets, name) for name in FAMILY_FUNCTIONS]
        targets += [(charsets, "min_key_sizes"), (lattice, "build_lattice")]
        for module, name in targets:
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                result = _real(*args, **kwargs)
                results.setdefault(_name, []).append(result)
                return result

            monkeypatch.setattr(module, name, counting)
        return calls, results

    @pytest.mark.parametrize(
        "build, want",
        [
            (
                lambda ctx: build_analysis_report(ctx, "toy"),
                FAMILY_FUNCTIONS + ("build_lattice",),
            ),
            (lambda ctx: summarize_descriptions(ctx), FAMILY_FUNCTIONS),
            (
                lambda ctx: build_indices_report(ctx, "toy"),
                ("enumerate_intents", "build_lattice"),
            ),
            (lambda ctx: evaluate_metrics(ctx), FAMILY_FUNCTIONS + ("build_lattice",)),
        ],
        ids=["analyze", "describe", "indices", "evaluate-all"],
    )
    def test_each_family_computed_once(self, counted, build, want):
        calls, _ = counted
        build(toy_context())
        assert calls == Counter(want)

    def test_key_count_closes_no_key(self, counted):
        calls, results = counted
        evaluate_metrics(toy_context(), ("key-count",))
        assert calls == Counter(["enumerate_keys"])
        (keys,) = results["enumerate_keys"]
        assert "closures" not in vars(keys)


class TestAnalyze:
    def test_toy_report(self, capsys):
        report = run_json(capsys, "analyze", str(TOY_CXT))
        assert report["kind"] == "analysis"
        assert report["dataset"] == {
            "name": "toy",
            "objects": 4,
            "attributes": 5,
            "crosses": 9,
            "density": 0.45,
        }
        assert report["classes"]["pseudo_intents"]["total"] == 4
        assert report["classes"]["intents"]["total"] == 9
        assert report["concepts"] == 9
        for summary in report["classes"].values():
            assert sum(summary["sizes"].values()) == summary["total"]

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout = run_cli(capsys, "analyze", str(TOY_CXT), "--out", str(out))
        assert code == 0 and stdout == ""
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)

    def test_csv_input_with_max_attrs(self, capsys, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(serialize_dense_csv(toy_context()))
        report = run_json(capsys, "analyze", str(path), "--max-attrs", "3")
        assert report["dataset"]["attributes"] == 3

    def test_empty_context(self, capsys, tmp_path):
        path = tmp_path / "empty.cxt"
        path.write_text("B\n\n0\n3\n\nx\ny\nz\n")
        report = run_json(capsys, "analyze", str(path))
        # single concept: the full attribute set closes everything
        assert report["concepts"] == 1
        assert report["classes"]["intents"]["total"] == 1
        assert report["classes"]["keys"]["total"] == 1
        assert report["linearity"] == 1.0


class TestIndices:
    def test_chain(self, capsys, chain_file):
        report = run_json(capsys, "indices", str(chain_file))
        assert report["linearity"] == 1.0
        assert report["distributivity"] == 1.0
        assert report["concepts"] == 5

    def test_nominal(self, capsys, nominal_file):
        report = run_json(capsys, "indices", str(nominal_file))
        assert report["linearity"] == pytest.approx(0.7)
        assert report["distributivity"] == pytest.approx(0.7)

    def test_toy(self, capsys):
        report = run_json(capsys, "indices", str(TOY_CXT))
        assert report["concepts"] == 9
        assert report["linearity"] == pytest.approx(23 / 36)


class TestDescribe:
    def test_stdout_counts(self, capsys):
        code, out = run_cli(capsys, "describe", str(TOY_CXT))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("count,")
        counts = [int(line.split(",")[0]) for line in lines[1:]]
        assert sum(counts) == 32

    def test_out_writes_table_and_context(self, capsys, tmp_path):
        base = tmp_path / "descr"
        code, _ = run_cli(capsys, "describe", str(TOY_CXT), "--out", str(base))
        assert code == 0
        table = (tmp_path / "descr.csv").read_text()
        assert table.startswith("count,is generator,")
        derived = parse_burmeister((tmp_path / "descr.cxt").read_text())
        assert derived.n_attrs == 9
        assert derived.n_objects == len(table.strip().splitlines()) - 1


class TestRandomize:
    def test_byte_identical_runs(self, capsys):
        args = (
            "randomize",
            str(TOY_CXT),
            "--strategy",
            "density",
            "--trials",
            "3",
            "--seed",
            "42",
        )
        code_a, out_a = run_cli(capsys, *args)
        code_b, out_b = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        jsonschema.validate(json.loads(out_a), SCHEMA)

    def test_column_digests_preserve_column_sums(self, capsys):
        report = run_json(
            capsys,
            "randomize",
            str(TOY_CXT),
            "--strategy",
            "column",
            "--trials",
            "4",
            "--seed",
            "1",
        )
        toy = toy_context()
        real_sums = [c.bit_count() for c in toy.columns]
        assert len(report["trial_digests"]) == 4
        for digest in report["trial_digests"]:
            assert digest["column_sums"] == real_sums
            assert digest["crosses"] == toy.crosses

    def test_metric_selection_and_csv_out(self, capsys, tmp_path):
        csv_path = tmp_path / "plot.csv"
        report = run_json(
            capsys,
            "randomize",
            str(TOY_CXT),
            "--strategy",
            "column",
            "--trials",
            "2",
            "--seed",
            "3",
            "--metrics",
            "intent-count,linearity",
            "--csv-out",
            str(csv_path),
        )
        metric_names = {m["metric"] for m in report["metrics"]}
        assert metric_names == {"intent-count", "linearity"}
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "metric,size,real,min,q1,median,q3,max"
        assert len(lines) == len(report["metrics"]) + 1
        assert any(line.startswith("intent-count,total,") for line in lines)

    def test_repeated_metric_names_collapse(self, capsys, monkeypatch):
        calls = []
        real = charsets.enumerate_pseudo_intents

        def counting(ctx, *args):
            calls.append(ctx)
            return real(ctx, *args)

        monkeypatch.setattr(charsets, "enumerate_pseudo_intents", counting)
        # The calls are counted in this process, so every trial runs here.
        monkeypatch.setattr(randomize, "_cpu_count", lambda: 1)
        argv = ("randomize", str(TOY_CXT), "--strategy", "column", "--trials", "2")
        _, once = run_cli(capsys, *argv, "--metrics", "pseudo-intent-count,linearity")
        assert len(calls) == 3
        _, twice = run_cli(
            capsys,
            *argv,
            "--metrics",
            "pseudo-intent-count,linearity,pseudo-intent-count",
        )
        assert twice == once
        assert len(calls) == 6

    def test_never_imports_numpy_ma(self, tmp_path):
        # np.quantile and a plain np.unique import numpy.ma, 5.5 ms that a
        # randomize run does not need; passkeys' np.unique with
        # return_inverse does not.  Only a fresh process can show it.
        src = str(Path(fcakit.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import sys; from fcakit.cli import main; "
            "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
        )
        argv = [
            "randomize", str(DATA_DIR / "live_in_water.cxt"), "--strategy", "column",
            "--trials", "3", "--out", str(tmp_path / "r.json"),
        ]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert proc.stdout.split() == ["0", "False"]

    def test_unknown_metric_is_input_error(self, capsys):
        code, _ = run_cli(
            capsys,
            "randomize",
            str(TOY_CXT),
            "--strategy",
            "column",
            "--metrics",
            "bogus",
        )
        assert code == 2


class TestForkedRandomize:
    """``fcakit randomize`` with its trials forced through forked children."""

    ARGV = ("randomize", str(TOY_CXT), "--strategy", "column", "--trials", "5", "--seed", "8")

    def test_report_bytes_match_sequential(self, forced_fork, tmp_path):
        path = tmp_path / "demo.cxt"
        path.write_text(serialize_burmeister(grouped_demo_context()))
        for strategy in ("column", "density"):
            outputs = []
            for run in (run_sequentially, lambda f, *a: f(*a)):
                out, table = tmp_path / "r.json", tmp_path / "r.csv"
                argv = ["randomize", str(path), "--strategy", strategy, "--trials", "6", "--seed", "3"]
                assert run(main, [*argv, "--out", str(out), "--csv-out", str(table)]) == 0
                outputs.append((out.read_bytes(), table.read_bytes()))
            assert outputs[0] == outputs[1]
        assert len(forced_fork.forks) == 2 * (forced_fork.k - 1)

    def fail_in_children(self, monkeypatch, fail) -> None:
        parent = os.getpid()
        real = randomize.evaluate_metrics

        def failing(ctx, metrics=randomize.DEFAULT_METRICS):
            if os.getpid() != parent:
                fail()
            return real(ctx, metrics)

        monkeypatch.setattr(randomize, "evaluate_metrics", failing)

    def run_failing(self, capsys) -> tuple[int, str]:
        fds = open_fd_count()
        code = main(list(self.ARGV))
        err = capsys.readouterr().err
        assert_no_children()
        assert open_fd_count() == fds
        return code, err.strip().splitlines()[-1]

    def test_capacity_error_in_a_child_exits_3(self, forced_fork, capsys, monkeypatch):
        def fail():
            raise CapacityError("trial too large")

        with monkeypatch.context() as mp:
            # The same error raised in this process, for its message.
            mp.setattr(randomize, "evaluate_metrics", lambda ctx, metrics: fail())
            assert main(list(self.ARGV)) == 3
            here = capsys.readouterr().err.strip().splitlines()[-1]
        self.fail_in_children(monkeypatch, fail)
        assert self.run_failing(capsys) == (3, here)
        assert here == "fcakit: capacity exceeded: trial too large"

    def test_other_error_in_a_child_exits_4(self, forced_fork, capsys, monkeypatch):
        def fail():
            raise KeyError("lost")

        self.fail_in_children(monkeypatch, fail)
        assert self.run_failing(capsys) == (4, "fcakit: internal error: 'lost'")

    def test_child_without_result_exits_4_naming_it(self, forced_fork, capsys, monkeypatch):
        self.fail_in_children(monkeypatch, lambda: os._exit(1))
        code, message = self.run_failing(capsys)
        assert code == 4
        assert message.startswith("fcakit: internal error: trial worker 0 left no result")

    def test_error_in_this_process_kills_and_reaps_children(self, forced_fork, capsys, monkeypatch):
        # Child 0 holds the real context, so every call here is this
        # process's own share, after the children were forked.  Children
        # that would run on for 20 s are killed, not waited for.
        parent = os.getpid()
        calls = []

        def failing(ctx, metrics=randomize.DEFAULT_METRICS):
            if os.getpid() != parent:
                time.sleep(20)
            calls.append(ctx)
            if len(calls) == 2:
                raise CapacityError("own share too large")
            return {}

        monkeypatch.setattr(randomize, "evaluate_metrics", failing)
        start = time.monotonic()
        assert self.run_failing(capsys) == (3, "fcakit: capacity exceeded: own share too large")
        assert time.monotonic() - start < 10
        assert forced_fork.forks


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "analyze", "/no/such/file.cxt")
        assert code == 2

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "bad.cxt"
        path.write_text("not a context\n")
        code, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_unknown_extension_needs_format(self, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(serialize_burmeister(toy_context()))
        code, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2
        report = run_json(capsys, "analyze", str(path), "--format", "cxt")
        assert report["concepts"] == 9

    def test_max_attrs_rejected_for_cxt(self, capsys):
        code, _ = run_cli(capsys, "analyze", str(TOY_CXT), "--max-attrs", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--trials", "0"),
            ("--max-attrs", "-1"),
            ("--metrics", "intent-count,bogus"),
            ("--seed", "-1"),
            ("--seed", "18446744073709551616"),
        ],
    )
    def test_bad_option_values_are_input_errors(self, capsys, tmp_path, flags):
        path = tmp_path / "toy.csv"
        path.write_text(serialize_dense_csv(toy_context()))
        code = main(["randomize", str(path), "--strategy", "column", *flags])
        assert code == 2
        assert "fcakit: input error:" in capsys.readouterr().err

    def test_largest_u64_seed_accepted(self, capsys):
        report = run_json(
            capsys, "randomize", str(TOY_CXT), "--strategy", "column",
            "--trials", "1", "--seed", str((1 << 64) - 1),
        )
        assert report["seed"] == (1 << 64) - 1

    @pytest.mark.parametrize("listed", [",", " , ,", ""])
    def test_metric_list_naming_no_metric(self, capsys, tmp_path, listed):
        path = tmp_path / "toy.csv"
        path.write_text(serialize_dense_csv(toy_context()))
        code = main(["randomize", str(path), "--strategy", "column", "--metrics", listed])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "fcakit: input error: --metrics names no metric" in captured.err

    def test_unreadable_input_is_input_error(self, capsys, monkeypatch):
        # Root reads past chmod, so the read itself is made to fail.
        def unreadable(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", unreadable)
        code = main(["indices", str(TOY_CXT)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "fcakit: input error: [Errno 13] Permission denied" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("indices", str(TOY_CXT), "--out", "{missing}/r.json"),
            ("describe", str(TOY_CXT), "--out", "{missing}/descr"),
            (
                "randomize", str(TOY_CXT), "--strategy", "column", "--trials", "1",
                "--out", "{tmp}/r.json", "--csv-out", "{missing}/r.csv",
            ),
        ],
        ids=["indices", "describe", "randomize-csv-out"],
    )
    def test_unwritable_output_is_output_error(self, capsys, tmp_path, argv):
        missing = tmp_path / "no" / "such" / "dir"
        code = main([a.format(missing=missing, tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "fcakit: output error: [Errno 2] No such file or directory" in captured.err
        assert "input error" not in captured.err and "Traceback" not in captured.err

    def test_non_utf8_input(self, capsys, tmp_path):
        path = tmp_path / "latin1.cxt"
        text = serialize_burmeister(toy_context()).replace("g1", "g\xe9")
        path.write_bytes(text.encode("latin-1"))
        code, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_library_value_error_is_internal(self, capsys, monkeypatch):
        def broken(ctx):
            raise ValueError("duplicate intents")

        monkeypatch.setattr(charsets, "index_classes", broken)
        code = main(["analyze", str(TOY_CXT)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "fcakit: internal error: duplicate intents" in captured.err

    def test_library_os_error_is_internal(self, capsys, monkeypatch):
        # An OSError raised inside the library, as os.waitpid raises when a
        # trial child is gone, is not an input error.
        def broken(ctx):
            raise ChildProcessError(10, "No child processes")

        monkeypatch.setattr(charsets, "index_classes", broken)
        code = main(["analyze", str(TOY_CXT)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "fcakit: internal error: [Errno 10] No child processes" in captured.err
        assert "input error" not in captured.err

    @pytest.mark.parametrize("command", ["indices", "describe"])
    def test_unwritable_stdout_is_output_error(self, capsys, monkeypatch, command):
        class FullStdout:
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main([command, str(TOY_CXT)])
        captured = capsys.readouterr()
        assert code == 2
        assert "fcakit: output error: [Errno 28] No space left on device" in captured.err
        assert "Traceback" not in captured.err

    def test_capacity_exceeded(self, capsys, tmp_path):
        header = "id," + ",".join(f"m{i}" for i in range(26))
        row = "g," + ",".join("0" for _ in range(26))
        path = tmp_path / "wide.csv"
        path.write_text(f"{header}\n{row}\n")
        code, _ = run_cli(capsys, "describe", str(path))
        assert code == 3

"""fcakit benchmark: back-to-back CLI jobs on seeded synthetic contexts.

Usage, from the repository root::

    python3 bench/run.py --workload report-w24 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each workload is a closed loop with one client: one ``fcakit`` command at a
time, each in a fresh interpreter started from the source tree
(``PYTHONPATH=src``), the next only after the previous one ended.  Inputs are
a pool of synthetic contexts generated from ``--seed`` (see ``gen.py``);
jobs cycle through the pool until ``--seconds`` have passed and every input
ran at least once.  Every output is checked (see ``checks.py``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced jobs alternate on each input, and the per-layer metrics
of the traced jobs are printed (see ``spans.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A results file with the machine record and every job goes
to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
# No process starts after this many seconds of a run, and none outlives them.
RUN_LIMIT_S = 165
SETUP_PROBES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    objects: int
    attrs: int  # columns in the generated file
    read_attrs: int  # columns fcakit keeps (--max-attrs)
    density: float
    suffix: str
    pool: int  # distinct inputs per run
    commands: tuple[tuple[str, ...], ...]  # {input}, {out} and {seed} are filled in
    outputs: tuple[str, ...]


RANDOMIZE_TRIALS = 4

# Pools are sized so that one pass takes about 30 s on a 2-core sandbox
# (jobs of about 3.5 s, 2.5 s and 1.7 s): averaging over that many inputs
# keeps a run's figure from hanging on one draw of the generator.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-w24", 403, 24, 24, 0.20, "cxt", 8,
            (
                ("analyze", "{input}", "--out", "{out}/analysis.json"),
                ("describe", "{input}", "--out", "{out}/descr"),
            ),
            ("analysis.json", "descr.csv", "descr.cxt"),
        ),
        Workload(
            "randomize-column-w20", 403, 67, 20, 0.20, "csv", 10,
            (
                (
                    "randomize", "{input}", "--max-attrs", "20", "--strategy", "column",
                    "--trials", str(RANDOMIZE_TRIALS), "--seed", "{seed}",
                    "--out", "{out}/randomization.json",
                ),
            ),
            ("randomization.json",),
        ),
        Workload(
            "indices-w40", 403, 40, 40, 0.16, "cxt", 16,
            (("indices", "{input}", "--out", "{out}/indices.json"),),
            ("indices.json",),
        ),
    )
}

END_TO_END = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metric -> unit.  "_s" metrics are self time per job unless the
# span is named in INCLUSIVE; counts are totals over one pass of the pool.
PER_LAYER = {
    "context.parse_s": "s",
    "context.closure_calls": "count",
    "context.closure_s": "s",
    "charsets.basis_s": "s",
    "charsets.intents_s": "s",
    "charsets.keys_s": "s",
    "charsets.passkeys_s": "s",
    "charsets.proper_premises_s": "s",
    "charsets.min_key_sizes_s": "s",
    "charsets.index_s": "s",
    "charsets.intents": "count",
    "charsets.pseudo_intents": "count",
    "charsets.keys": "count",
    "charsets.proper_premises": "count",
    "charsets.family_calls": "count",
    "lattice.distributivity_s": "s",
    "lattice.linearity_s": "s",
    "lattice.build_s": "s",
    "lattice.pairs": "count.computed",
    "descriptions.summarize_s": "s",
    "descriptions.export_s": "s",
    "descriptions.rows": "count",
    "randomize.trials_s": "s",
    "randomize.evaluate_s": "s",
    "randomize.shuffle_s": "s",
    "randomize.shuffle_calls": "count",
    "randomize.seed_calls": "count",
    "cli.report_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
INCLUSIVE = ("charsets.index", "randomize.trials", "cli.report")
FAMILY_SPANS = (
    "charsets.intents",
    "charsets.basis",
    "charsets.keys",
    "charsets.passkeys",
    "charsets.proper_premises",
    "charsets.min_key_sizes",
)


def input_seed(seed: int, index: int) -> int:
    """Generator seed of input ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def make_inputs(w: Workload, seed: int, work: Path) -> list[tuple[Path, checks.Facts]]:
    inputs = []
    for i in range(w.pool):
        cells = gen.incidence(w.objects, w.attrs, w.density, input_seed(seed, i), block=w.read_attrs)
        path = work / f"input{i}.{w.suffix}"
        path.write_text(gen.to_cxt(cells) if w.suffix == "cxt" else gen.to_csv(cells), encoding="utf-8")
        sums = tuple(int(s) for s in cells[:, : w.read_attrs].sum(axis=0))
        inputs.append((path, checks.Facts(w.objects, w.read_attrs, sums)))
    return inputs


def spawn(args: list[str], traced: bool, job: int, timeout: float) -> dict:
    """Run ``bench/job.py`` in a fresh interpreter; its JSON result."""
    env = dict(os.environ, PYTHONPATH="src")
    flags = ["1" if traced else "0", str(job)]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/job.py", repr(t0), *flags, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"job process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if result.get("rc", 0) != 0:
        raise RuntimeError(f"fcakit exited {result['rc']}: {proc.stderr.strip()[-500:]}")
    return result


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    del out["trace.overhead_frac"]
    selfs = spans.self_times(trace["spans"], trace["tallies"])
    for span, own in zip(trace["spans"], selfs):
        name = span["name"]
        if name.startswith("cli."):
            out["cli.self_s"] += own
        if name in INCLUSIVE:
            # Inclusive spans are never nested in themselves.
            out[name + "_s"] += span["end"] - span["start"]
        elif name + "_s" in out:
            out[name + "_s"] += own
        if name in FAMILY_SPANS:
            out["charsets.family_calls"] += 1
        if name == "randomize.shuffle":
            out["randomize.shuffle_calls"] += 1
    for tally in trace["tallies"]:
        if tally["name"] == "context.closure":
            out["context.closure_calls"] += tally["calls"]
            out["context.closure_s"] += tally["seconds"]
        elif tally["name"] == "randomize.seed":
            out["randomize.seed_calls"] += tally["calls"]
    for name, value in trace["counters"].items():
        out[name] += value
    return out


def per_input(jobs: list[dict], value: Callable[[dict], float]) -> list[float]:
    """The median value over the jobs on each input, one per input."""
    by_input: dict[int, list[float]] = {}
    for job in jobs:
        by_input.setdefault(job["input"], []).append(value(job))
    return [statistics.median(v) for v in by_input.values()]


def pool_median(jobs: list[dict], value: Callable[[dict], float]) -> float:
    """Median value over the jobs on each input, averaged over the inputs."""
    return statistics.fmean(per_input(jobs, value))


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "load": "closed loop, one client: single process, one job at a time",
        # The CLI passes no workers argument; run_trials defaults to 1.
        "cli_workers": 1,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=ROOT / ".bench_work"))
    try:
        return _run(w, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_job(
    w: Workload, n: int, index: int, traced: bool, path: Path, out: Path, seed: int, limit: float
) -> tuple[dict, dict[str, bytes]]:
    """Run the commands of job ``n`` on input ``index``; its record and outputs."""
    job = {"job": n, "input": index, "traced": traced, "job_s": 0.0, "cpu_s": 0.0, "maxrss_kb": 0, "setup_s": []}
    if traced:
        job["layers"] = dict.fromkeys(PER_LAYER, 0.0)
        job["trace"] = []
    for template in w.commands:
        argv = [a.format(input=path, out=out, seed=seed) for a in template]
        result = spawn(argv, traced, n, limit - time.monotonic())
        job["setup_s"].append(result["setup_s"])
        job["job_s"] += result["job_s"]
        job["cpu_s"] += result["cpu_s"]
        job["maxrss_kb"] = max(job["maxrss_kb"], result["maxrss_kb"])
        if traced:
            job["trace"].append(result["trace"])
            for name, value in layer_values(result["trace"]).items():
                job["layers"][name] += value
    return job, {name: (out / name).read_bytes() for name in w.outputs}


def _run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    limit = time.monotonic() + RUN_LIMIT_S
    validator = checks.load_validator(ROOT)
    pins = checks.load_pins().get(w.name, {}) if seed == DEFAULT_SEED else {}
    inputs = make_inputs(w, seed, work)
    references = [
        {name: pins[f"{i}/{name}"] for name in w.outputs if f"{i}/{name}" in pins}
        for i in range(w.pool)
    ]
    setups = [spawn([], False, 0, limit - time.monotonic())["setup_s"] for _ in range(SETUP_PROBES)]
    reps = 2 if trace else 1
    jobs: list[dict] = []
    deadline = time.monotonic() + seconds
    n = 0
    while (n < w.pool * reps or time.monotonic() < deadline) and time.monotonic() < limit:
        index = (n // reps) % w.pool
        traced = trace and n % 2 == 1
        path, facts = inputs[index]
        out = work / f"job{n}"
        out.mkdir()
        try:
            job, outputs = run_job(w, n, index, traced, path, out, seed, limit)
        except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
            job = {"job": n, "input": index, "traced": traced, "problems": [str(exc)]}
        else:
            setups.extend(job["setup_s"])
            job["digests"] = {name: checks.digest(data) for name, data in outputs.items()}
            job["problems"] = checks.check_outputs(outputs, facts, references[index], validator)
            if not job["problems"]:
                for name, sha in job["digests"].items():
                    references[index].setdefault(name, sha)
        jobs.append(job)
        shutil.rmtree(out, ignore_errors=True)
        n += 1

    failed = sum(1 for j in jobs if j["problems"])
    # Jobs whose processes all ran are timed, even if an output check failed.
    timed = [j for j in jobs if "job_s" in j]
    plain = [j for j in timed if not j["traced"]]
    spanned = [j for j in timed if j["traced"]]
    job_s = lambda j: j["job_s"]  # noqa: E731
    metrics: dict[str, dict] = {}
    if plain and not trace:
        values = {
            "job_s": pool_median(plain, job_s),
            "cpu_s": pool_median(plain, lambda j: j["cpu_s"]),
            "peak_rss_mb": max(j["maxrss_kb"] for j in plain) / 1024,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    if trace and spanned and plain:
        for name, unit in PER_LAYER.items():
            if name != "trace.overhead_frac":
                each = per_input(spanned, lambda j: j["layers"][name])
                # Counts repeat exactly per input: report their pool total.
                value = sum(each) if unit.startswith("count") else statistics.fmean(each)
                metrics[name] = {"value": value, "unit": unit}
        overhead = pool_median(spanned, job_s) / pool_median(plain, job_s) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": PER_LAYER["trace.overhead_frac"]}
    summary = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pool": w.pool,
        "machine": machine_record(),
        "setup_samples": setups,
        "jobs": jobs,
        "summary": summary,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return summary


def describe(name: str, summary: dict) -> str:
    """One line naming every metric with its unit, the job count and failed_frac."""
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in summary["metrics"].items()]
    frac = summary["failed"] / summary["attempted"]
    parts.append(f"failed_frac={frac:.6g} ({summary['failed']} of {summary['attempted']} jobs failed)")
    return f"{name}: {summary['attempted']} jobs; " + ", ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fcakit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "fcakit" / "__init__.py").is_file():
        print(f"bench: no fcakit source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(describe(name, summary), flush=True)
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

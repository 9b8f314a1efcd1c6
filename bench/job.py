"""Run one fcakit CLI command in this fresh interpreter and measure it.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python bench/job.py T0 TRACE JOB [fcakit arguments...]

``T0`` is the caller's ``time.monotonic()`` just before it started this
process; ``setup_s`` runs from there to ``import fcakit`` done.  ``TRACE`` is
``1`` to wrap the layer functions (see ``spans.py``) and ``0`` not to;
``JOB`` is the job number that traced spans carry.  With
no fcakit arguments only ``setup_s`` is measured.  The result is one JSON
line on standard output; fcakit's own output must go to files (``--out``).
"""

import sys
import time

t0 = float(sys.argv[1])
import fcakit  # noqa: E402

setup_s = time.monotonic() - t0

import json  # noqa: E402
import resource  # noqa: E402

import fcakit.cli  # noqa: E402


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    traced = sys.argv[2] == "1"
    argv = sys.argv[4:]
    result: dict = {"setup_s": setup_s}
    if argv:
        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer(int(sys.argv[3]))
            tracer.install()
        cpu0 = _cpu()
        start = time.perf_counter()
        rc = fcakit.cli.main(argv)
        job_s = time.perf_counter() - start
        cpu_s = _cpu() - cpu0
        result.update(rc=rc, job_s=job_s, cpu_s=cpu_s)
        if tracer is not None:
            result["trace"] = tracer.record()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

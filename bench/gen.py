"""Seeded synthetic formal contexts for the benchmark.

Each attribute column ``j`` gets a density ``p_j`` and every cell of it is a
cross with probability ``p_j``, independently.  The densities follow
Beta(1, 1/d - 1), whose mean is the target density ``d``.  They are drawn by
stratified inverse-CDF sampling: within each block of ``block`` consecutive
columns, one uniform lands in each of ``block`` equal strata and the strata
are shuffled over the columns.  Every density is still Beta-distributed, but
each block spans the whole distribution, so the work a context takes varies
far less between seeds than with independent draws.  A workload that reads
only the first ``k`` columns of a wide file sets ``block=k``.

All randomness comes from one numpy PCG64 stream seeded with ``seed``, so
the same arguments give the same bytes.  Run as a script to write a file::

    python bench/gen.py --objects 403 --attrs 24 --density 0.2 --seed 1 out.cxt
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def incidence(
    objects: int, attrs: int, density: float, seed: int, block: int | None = None
) -> np.ndarray:
    """A seeded ``objects x attrs`` boolean incidence matrix."""
    if not 0.0 < density < 1.0:
        raise ValueError("density must lie strictly between 0 and 1")
    if objects < 1 or attrs < 1:
        raise ValueError("need at least one object and one attribute")
    block = attrs if block is None else block
    if block < 1:
        raise ValueError("block must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = np.empty(attrs)
    for start in range(0, attrs, block):
        k = min(block, attrs - start)
        u[start : start + k] = (rng.permutation(k) + rng.random(k)) / k
    # Inverse CDF of Beta(1, b): F(x) = 1 - (1 - x)^b.
    b = 1.0 / density - 1.0
    p = 1.0 - (1.0 - u) ** (1.0 / b)
    return rng.random((objects, attrs)) < p


def _names(prefix: str, count: int) -> list[str]:
    width = len(str(count - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def to_cxt(cells: np.ndarray) -> str:
    """Burmeister CXT text of an incidence matrix."""
    n_g, n_m = cells.shape
    lines = ["B", "", str(n_g), str(n_m), ""]
    lines += _names("g", n_g) + _names("m", n_m)
    lines += ["".join("X" if c else "." for c in row) for row in cells]
    return "\n".join(lines) + "\n"


def to_csv(cells: np.ndarray) -> str:
    """Dense binary CSV text (id column, then 0/1 cells)."""
    n_g, n_m = cells.shape
    lines = [",".join(["id"] + _names("m", n_m))]
    for name, row in zip(_names("g", n_g), cells):
        lines.append(",".join([name] + ["1" if c else "0" for c in row]))
    return "\n".join(lines) + "\n"


def render(
    objects: int,
    attrs: int,
    density: float,
    seed: int,
    fmt: str,
    block: int | None = None,
) -> str:
    """The context file text in ``fmt`` (``cxt`` or ``csv``)."""
    cells = incidence(objects, attrs, density, seed, block)
    if fmt == "cxt":
        return to_cxt(cells)
    if fmt == "csv":
        return to_csv(cells)
    raise ValueError(f"unknown format {fmt!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, required=True)
    parser.add_argument("--attrs", type=int, required=True)
    parser.add_argument("--density", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--block", type=int, help="columns per stratified block")
    parser.add_argument("out", help="output path; the format follows its suffix")
    args = parser.parse_args(argv)
    fmt = args.out.rsplit(".", 1)[-1].lower()
    text = render(args.objects, args.attrs, args.density, args.seed, fmt, args.block)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the benchmark workloads.

Imports nothing from dinitz, so generating inputs never counts toward
the program's import or set-up time.  The same (workload, n, seed)
always gives the same rows.

- ``latin``: every cell holds the same n colours (ints), shuffled per
  cell.  The classical Latin-square case: n passes, each over every
  uncoloured cell, so matching and kernel checks dominate.
- ``sparse``: each cell samples n colours from a universe of n².  About
  6n passes over a few dozen candidates each, so orientation, bitmasks
  and the loop's bookkeeping dominate and matching nearly vanishes.
- ``cli_random``: each cell samples n of 3n string labels ``c0..``; the
  same lists ``dinitz gen --n N --seed S`` writes.  Solved and verified
  through the ``dinitz`` command, the only workload that runs the cli.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("latin", "sparse", "cli_random")


def make_rows(workload: str, n: int, seed: int) -> list:
    """The n x n nested list of colour labels for one workload instance."""
    rng = random.Random(seed)
    if workload == "latin":
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                cell = list(range(n))
                rng.shuffle(cell)
                row.append(cell)
            rows.append(row)
        return rows
    if workload == "sparse":
        universe = range(n * n)
        return [[rng.sample(universe, n) for _ in range(n)] for _ in range(n)]
    if workload == "cli_random":
        labels = [f"c{k}" for k in range(3 * n)]
        return [[rng.sample(labels, n) for _ in range(n)] for _ in range(n)]
    raise ValueError(f"unknown workload {workload!r}")


def instance_json(rows: list, seed: int) -> str:
    """Instance file text, formatted as ``dinitz gen`` prints it."""
    n = len(rows)
    doc = {
        "n": n,
        "lists": rows,
        "meta": {"seed": seed, "universe_size": 3 * n, "list_size": n},
    }
    return json.dumps(doc, indent=2) + "\n"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_digest(grid: list) -> str:
    """Digest of a grid of colour ids returned by ``solve_dinitz``."""
    return digest(json.dumps(grid, separators=(",", ":")).encode())

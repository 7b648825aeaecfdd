"""Regenerate bench/pinned.json from the current solver.

    PYTHONPATH=src python3 bench/pin.py

For every workload at n = PIN_N, on seeds 0..PIN_SEEDS-1 and the held-out
seed, records the solution digest and the pass and candidate counts.  The
benchmark fails any solve whose output differs from its pin, so the file
holds the solver to byte-identical output.  Counts come from
``solve_dinitz``'s own ``trace=`` records, independently of the
benchmark's tracer; the cli digest is of the file ``dinitz solve`` writes.
Rerun only when a change of output is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, digest, grid_digest, instance_json, make_rows

from dinitz import DinitzInstance, solve_dinitz, verify_generalized_latin

HERE = Path(__file__).resolve().parent
PIN_N = 100
PIN_SEEDS = 100
HELD_OUT_SEED = 4099  # used by no tuning run: confirm a claimed gain on it


def pin(workload: str, seed: int, out: Path) -> dict:
    rows = make_rows(workload, PIN_N, seed)
    inst = DinitzInstance.from_labels(rows)
    trace = []
    grid = solve_dinitz(inst, trace=trace)
    if not verify_generalized_latin(inst, grid).valid:
        raise SystemExit(f"{workload} seed {seed}: invalid solution")
    entry = {
        "digest": grid_digest(grid),
        "galvin.passes": len(trace),
        "galvin.candidates": sum(len(p.candidates) for p in trace),
    }
    if workload == "cli_random":
        instance, solution = out / "instance.json", out / "solution.json"
        instance.write_text(instance_json(rows, seed))
        cmd = [sys.executable, "-m", "dinitz.cli", "solve", str(instance), str(solution)]
        subprocess.run(cmd, check=True)
        entry["digest"] = digest(solution.read_bytes())
    return entry


def main() -> int:
    out = HERE.parent / ".bench_out" / "pin"
    out.mkdir(parents=True, exist_ok=True)
    seeds = [*range(PIN_SEEDS), HELD_OUT_SEED]
    doc = {"n": PIN_N, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        doc["workloads"][workload] = {str(s): pin(workload, s, out) for s in seeds}
        print(workload, "pinned", file=sys.stderr)
    (HERE / "pinned.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The dinitz benchmark: one workload run, one result line.

    python3 bench/run.py --workload latin|sparse|cli_random --seed S --seconds T --trace 0|1 [--n 100]

Run from the root of a checkout; the program is imported from the
checkout's ``src``.  Workloads and metrics are described in
bench/README.md and listed in BENCHMARK.json.

Each run starts one fresh worker process (bench/worker.py).  With
``--trace 0`` it solves the workload for ``--seconds``, checks every
answer, and times set-up in a few more fresh processes spread over the
run; this reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced solves; this reports the per-layer
metrics and the tracing overhead.  Processes run one at a time.

Every time is the median over the run of host-normalised seconds: each
sample's wall time scaled by how much slower than on an idle host a
fixed pure-Python loop ran just before and after it (see
worker.reference_loop).  On a shared host other tenants slow a whole
solve by up to 70 % in episodes of about half a minute; that moves
wall-time medians between runs far more than the bounds allow, and the
loop tracks it.  The raw wall seconds are printed beside each metric
and kept in result.json.  The last line of stdout is the JSON result;
the lines above it give the same numbers for people, with the machine
they ran on.  Working files go to .bench_out/ in the checkout.
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
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def worker(args: argparse.Namespace, out: Path, env: dict) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "run", "--workload", args.workload,
            "--seed", str(args.seed), "--n", str(args.n), "--out", str(out),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one dinitz benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--n", type=int, default=100, help="grid side (default 100)")
    args = parser.parse_args()
    if not (ROOT / "src" / "dinitz" / "__init__.py").is_file():
        print(f"error: no dinitz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    result = worker(args, out, env)
    samples = result["samples"]
    if args.trace:
        layers = result["layers"]
        values = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        pairs = zip(samples["untraced_solve_s"], samples["traced_solve_s"])
        values["trace.solve_s"] = statistics.median(t[1] for t in samples["traced_solve_s"])
        values["trace.overhead_s"] = statistics.median(t[1] - u[1] for u, t in pairs)
    else:
        values = {k: statistics.median(s[1] for s in samples[k])
                  for k in ("setup_s", "solve_s", "verify_s")}
        values["peak_rss_mb"] = statistics.median(samples["peak_rss_bytes"]) / 2**20

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    host = machine()
    (out / "result.json").write_text(json.dumps(
        {"args": vars(args), "machine": host, "attempted": attempted, "failed": failed,
         "metrics": metrics, "samples": samples}, indent=1))

    print(f"# {args.workload} seed={args.seed} n={args.n} trace={args.trace}; "
          f"{host['cpu']}, nproc={host['nproc']}, Python {host['python']}")
    for name, m in metrics.items():
        spread = ""
        if name in samples:
            wall = [s[0] for s in samples[name]]
            spread = (f"  (median of {len(wall)}; wall seconds: median "
                      f"{statistics.median(wall):.6g}, min {min(wall):.6g}, max {max(wall):.6g})")
        print(f"{name:24} {m['value']:>14.6g} {m['unit']}{spread}")
    print(f"{'failed_frac':24} {failed / attempted:>14.6g} ratio ({failed} of {attempted} solves)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

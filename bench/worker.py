"""One benchmark worker process.

    python3 bench/worker.py setup --workload W --seed S --n N --out DIR
    python3 bench/worker.py run --workload W --seed S --n N --out DIR --seconds T --trace 0|1

Both modes generate the workload's rows, then time ``import dinitz`` plus
``DinitzInstance.from_labels`` on them: the set-up a fresh process pays
before it can solve.  ``setup`` stops there.  ``run`` then solves the
instance again and again until ``--seconds`` have passed (at least a few
times) and checks every answer; untraced, it also starts SETUP_PROBES
``setup`` processes spread over the run.  With ``--trace 1`` it
alternates an untraced solve with a traced one, so the tracing overhead
is measured in the same process.  The last line of stdout is one JSON
object of raw samples; run.py turns them into metrics.

run.py starts this with the checkout's ``src`` first on PYTHONPATH.  It
runs one thing at a time: no threads, no pools.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from tracer import COUNTS, Tracer, load_spans, per_layer
from workloads import digest, grid_digest, instance_json, make_rows

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = json.loads((HERE / "pinned.json").read_text())

MIN_SOLVES = 3  # untraced runs solve at least this often
MIN_PAIRS = 2  # traced runs make at least this many untraced/traced pairs
VERIFY_REPS = 5  # verify_generalized_latin takes milliseconds: time it repeatedly
SETUP_PROBES = 5  # fresh processes that time set-up, besides the worker itself
# reference_loop() on an idle host: Intel Xeon at 2.1 GHz, Python 3.11
REFERENCE_S = 0.0165


class Checks:
    """Counts attempted and failed solves.

    A solve fails if it raises, exits non-zero, fails verification, or
    gives a solution digest (or, when traced, counts) other than the
    pinned one for this seed, or than the first solve's when the seed
    has no pin.
    """

    def __init__(self, workload: str, n: int, seed: int) -> None:
        pin = PINS["workloads"][workload].get(str(seed)) if n == PINS["n"] else None
        self.expected = dict(pin) if pin else {}
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, observed: dict) -> None:
        self.attempted += 1
        for key, value in observed.items():
            self.expected.setdefault(key, value)
            if value != self.expected[key]:
                print(f"{key} {value} differs from {self.expected[key]}", file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1


class Child(NamedTuple):
    code: int
    wall_s: float
    maxrss_bytes: int
    stdout: str


def run_child(argv: list, out: Path, tag: str) -> Child:
    """Run one process to its end; wall time and its own peak RSS."""
    stdout_path = out / f"{tag}.stdout"
    with open(stdout_path, "wb") as so, open(out / f"{tag}.stderr", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=so, stderr=se)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss * 1024, stdout_path.read_text())


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def sample(wall: float, before: float, after: float) -> list:
    """[wall seconds, host-normalised seconds] of one timed call, given the
    reference loop's time just before and just after it."""
    return [wall, wall * 2 * REFERENCE_S / (before + after)]


def set_up(workload: str, n: int, seed: int):
    rows = make_rows(workload, n, seed)
    before = reference_loop()
    start = time.perf_counter()
    import dinitz

    inst = dinitz.DinitzInstance.from_labels(rows)
    wall = time.perf_counter() - start
    setup = sample(wall, before, reference_loop())
    if not Path(dinitz.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported dinitz from {dinitz.__file__}, not from {SRC}")
    return dinitz, rows, inst, setup


def solve_library(dinitz, inst, verify_reps: int):
    """Solve once, then verify ``verify_reps`` times.

    Returns (solve sample, mean verify sample, valid, observed digest).
    """
    before = reference_loop()
    start = time.perf_counter()
    try:
        grid = dinitz.solve_dinitz(inst)
        solve_wall = time.perf_counter() - start
        middle = reference_loop()
        verify_start = time.perf_counter()
        for _ in range(verify_reps):
            report = dinitz.verify_generalized_latin(inst, grid)
        verify_wall = (time.perf_counter() - verify_start) / verify_reps
    except Exception:
        traceback.print_exc()
        wall = time.perf_counter() - start
        return [wall, wall], None, False, {}
    after = reference_loop()
    solve, verify = sample(solve_wall, before, middle), sample(verify_wall, middle, after)
    return solve, verify, report.valid, {"digest": grid_digest(grid)}


def solve_cli(out: Path, spans_stem: Path | None = None):
    """``dinitz solve`` then ``dinitz verify`` as processes, traced when
    ``spans_stem`` is given.

    Returns (solve child, solve sample, verify child, verify sample, valid,
    observed digest); the verify entries are None when solve failed.
    """
    instance, solution = out / "instance.json", out / "solution.json"
    solution.unlink(missing_ok=True)

    def command(sub: str) -> list:
        if spans_stem is None:
            return [sys.executable, "-m", "dinitz.cli", sub, instance, solution]
        spans = f"{spans_stem}-{sub}.json"
        return [sys.executable, HERE / "traced_cli.py", spans, sub, instance, solution]

    before = reference_loop()
    solve = run_child(command("solve"), out, "solve")
    middle = reference_loop()
    solve_sample = sample(solve.wall_s, before, middle)
    if solve.code != 0:
        return solve, solve_sample, None, None, False, {}
    verify = run_child(command("verify"), out, "verify")
    verify_sample = sample(verify.wall_s, middle, reference_loop())
    ok = verify.code == 0 and verify.stdout.strip() == "valid"
    observed = {"digest": digest(solution.read_bytes())} if ok else {}
    return solve, solve_sample, verify, verify_sample, ok, observed


def probe_setup(workload: str, n: int, seed: int, out: Path) -> list:
    """Set-up sample of one more fresh process."""
    argv = [sys.executable, __file__, "setup", "--workload", workload, "--seed", seed,
            "--n", n, "--out", out]
    child = run_child(argv, out, "setup")
    if child.code != 0:
        raise SystemExit(f"set-up probe exited with {child.code}")
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def measure(workload: str, n: int, seed: int, seconds: float, out: Path) -> dict:
    """Untraced run: samples of the end-to-end metrics.

    Set-up probes are spread over the run rather than bunched at its
    start, so that they meet the host in the same states the solves do.
    """
    dinitz, rows, inst, setup = set_up(workload, n, seed)
    checks = Checks(workload, n, seed)
    setups, solves, verifies, peaks = [setup], [], [], []
    if workload == "cli_random":
        (out / "instance.json").write_text(instance_json(rows, seed))
    del rows
    gc.collect()
    base_rss = rss_bytes()
    start = time.perf_counter()
    next_probe = start
    while len(solves) < MIN_SOLVES or time.perf_counter() < start + seconds:
        if workload == "cli_random":
            solve_child, solve, verify_child, verify, ok, observed = solve_cli(out)
            if verify_child is not None:
                peaks.append(max(solve_child.maxrss_bytes, verify_child.maxrss_bytes))
        else:
            solve, verify, ok, observed = solve_library(dinitz, inst, VERIFY_REPS)
        solves.append(solve)
        if verify is not None:
            verifies.append(verify)
        checks.record(ok, observed)
        if len(setups) <= SETUP_PROBES and time.perf_counter() >= next_probe:
            setups.append(probe_setup(workload, n, seed, out))
            next_probe += seconds / SETUP_PROBES
    if workload != "cli_random":
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - base_rss)
    return {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "samples": {"setup_s": setups, "solve_s": solves, "verify_s": verifies,
                    "peak_rss_bytes": peaks},
    }


def trace(workload: str, n: int, seed: int, seconds: float, out: Path) -> dict:
    """Traced run: per-layer metrics and counts of every traced request,
    and untraced and traced solve times for the tracing overhead.

    One request is one traced solve: for the library workloads
    ``from_labels``, ``solve_dinitz`` and one verify in this process; for
    ``cli_random`` a traced ``dinitz solve`` and ``dinitz verify`` process.
    """
    dinitz, rows, inst, _ = set_up(workload, n, seed)
    checks = Checks(workload, n, seed)
    if workload == "cli_random":
        (out / "instance.json").write_text(instance_json(rows, seed))
    tracer = Tracer()
    spans = []
    layers = []
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PAIRS or time.perf_counter() < deadline:
        request = len(traced)
        if workload == "cli_random":
            _, solve, _, _, ok, observed = solve_cli(out)
            checks.record(ok, observed)
            untraced.append(solve)
            stem = out / f"spans-{request}"
            _, solve, _, _, ok, observed = solve_cli(out, stem)
            traced.append(solve)
            for sub in ("solve", "verify"):
                path = Path(f"{stem}-{sub}.json")
                if path.exists():
                    doc = json.loads(path.read_text())
                    spans += load_spans(doc, request, len(spans))
                    tracer.graph_bytes[request] = tracer.graph_bytes.get(request, 0) + sum(
                        doc["graph_bytes"].values()
                    )
        else:
            solve, _, ok, observed = solve_library(dinitz, inst, 1)
            checks.record(ok, observed)
            untraced.append(solve)
            tracer.request = request
            tracer.install()
            try:
                traced_inst = dinitz.DinitzInstance.from_labels(rows)
                solve, _, ok, observed = solve_library(dinitz, traced_inst, 1)
            finally:
                tracer.uninstall()
                tracer.end_request()
            traced.append(solve)
            spans = [s for s in tracer.spans if s is not None]
        request_layers = per_layer(
            [s for s in spans if s.request == request], tracer.graph_bytes, n
        )
        if ok and request_layers:
            # layer times in host-normalised seconds, like the solve they belong to
            factor = solve[1] / solve[0]
            layers.append({k: v * factor if k.endswith("_s") else v
                           for k, v in request_layers[request].items()})
            observed.update((k, layers[-1][k]) for k in COUNTS)
        checks.record(ok, observed)
    (out / "spans.json").write_text(
        json.dumps({"spans": [list(s) for s in spans], "graph_bytes": tracer.graph_bytes})
    )
    return {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "layers": layers,
        "samples": {"untraced_solve_s": untraced, "traced_solve_s": traced},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # One CPU for this process and every child, so that the reference loop
    # measures the CPU the timed code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.mode == "setup":
        result = {"setup_s": set_up(args.workload, args.n, args.seed)[3]}
    elif args.trace:
        result = trace(args.workload, args.n, args.seed, args.seconds, args.out)
    else:
        result = measure(args.workload, args.n, args.seed, args.seconds, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

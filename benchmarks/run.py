"""mtmlab benchmark: time from generated inputs to checked verdicts.

    python3 benchmarks/run.py --workload {sweep,stability,scatter} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: one iteration at a time, each in a fresh
process (see worker.py), until the next iteration would overrun ``--seconds``
(at least one runs).  Three set-up-only processes are started first, so
``setup_s`` is a median over at least four samples.

With ``--trace 0`` the end-to-end metrics are reported:

* ``verdict_s``   median wall time of one iteration, inputs to checked verdicts
* ``setup_s``     median time from process start to inputs ready
* ``peak_rss_mb`` median peak resident memory of an iteration's process
* ``pass_frac``   checks passed / checks attempted (an iteration that raises
  a named package error fails all its checks)

With ``--trace 1`` the iterations run with spans around the package's public
functions and the per-layer metrics of layers.py are reported instead (medians
over the traced iterations).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every
check passed, 1 when one failed, 2 when the benchmark itself could not run
(then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_runs"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 2  # capped at nproc below
SETUP_ONLY_PROCESSES = 3
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def spawn(mode: str, args, env: dict, out: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--spawned-at", repr(spawned_at), "--mode", mode, "--trace", str(args.trace),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{mode} process exceeded the run deadline") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(setups: list[float], iterations: list[dict], passed: int, attempted: int) -> dict:
    return {
        "verdict_s": statistics.median(it["verdict_s"] for it in iterations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        "pass_frac": passed / attempted,
    }


def per_layer(iterations: list[dict]) -> dict:
    names = iterations[0]["layers"]
    return {name: statistics.median(it["layers"][name] for it in iterations) for name in names}


def run(args) -> tuple[dict, int, int]:
    if not (ROOT / "src" / "mtmlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no mtmlab package under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + DEADLINE_S
    threads = min(BLAS_THREADS, nproc())
    env = child_env(threads)
    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / f"{args.workload}-{os.getpid()}"

    setups = []
    for _ in range(SETUP_ONLY_PROCESSES):
        result = spawn("setup", args, env, out, deadline)
        setups.append(result["setup_s"])
    prov = result["provenance"] | {"nproc": nproc(), "blas_threads": threads,
                                   "git_sha": git_sha(), "seed": args.seed}
    print("provenance: " + json.dumps(prov, sort_keys=True))

    iterations: list[dict] = []
    passed = attempted = 0
    loop_start = time.monotonic()
    try:
        while True:
            t0 = time.monotonic()
            it = spawn("iterate", args, env, out, deadline)
            last = time.monotonic() - t0
            iterations.append(it)
            setups.append(it["setup_s"])
            attempted += len(it["checks"])
            passed += sum(it["checks"].values())
            failed = sorted(name for name, ok in it["checks"].items() if not ok)
            print(f"iteration {len(iterations)}: verdict_s {it['verdict_s']:.4f} "
                  f"setup_s {it['setup_s']:.4f} failed {failed} {it['error'] or ''}".rstrip())
            elapsed = time.monotonic() - loop_start
            if elapsed + last > args.seconds or time.monotonic() + last > deadline:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(f"iterations: {len(iterations)}; set-up samples: {len(setups)}")
    values = per_layer(iterations) if args.trace else end_to_end(setups, iterations, passed, attempted)
    declared = declared_metrics(args.trace)
    if sorted(values) != sorted(name for name, _ in declared):
        raise BenchmarkError("measured metrics differ from those BENCHMARK.json declares")
    return {name: (values[name], unit) for name, unit in declared}, attempted, attempted - passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        metrics, attempted, failed = run(args)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

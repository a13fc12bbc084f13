"""One benchmark process: import the package, make the inputs, then either
report the set-up time or run one iteration with cold package caches.

Started by run.py, one process per sample, so that every iteration pays the
cache builds a CLI user pays and has its own peak resident memory.  Prints
one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MB = 1e6


def import_package():
    """Import ``mtmlab`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mtmlab

    where = Path(mtmlab.__file__).resolve().parent
    if where != (SRC / "mtmlab").resolve():
        raise SystemExit(f"mtmlab was imported from {where}, not from {SRC}")
    return mtmlab


def provenance() -> dict:
    import numpy
    import scipy

    def blas_version(config) -> str:
        try:
            return str(config["Build Dependencies"]["blas"]["version"])
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(getattr(numpy.__config__, "CONFIG", None)),
        "openblas_scipy": blas_version(scipy.show_config(mode="dicts")),
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--mode", choices=("setup", "iterate"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    mtmlab = import_package()
    cold_caches = [
        sys.modules["mtmlab.spectral"].differentiation_matrices.cache_clear,
        sys.modules["mtmlab.evolve"]._linear_tables.cache_clear,
    ]
    named_errors = (
        mtmlab.BlowUpError,
        mtmlab.PoleEncounterError,
        sys.modules["mtmlab.spectral"].OperatorConstructionError,
    )
    tracer = tracing.Tracer() if args.trace else None

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    if tracer:
        layers.install(tracer)
    try:
        with span("bench.setup"):
            inputs = workloads.make_inputs(args.workload, args.seed)
        setup_s = time.monotonic() - args.spawned_at
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "provenance": provenance()}))
            return 0

        for clear in cold_caches:
            clear()
        args.out.mkdir(parents=True, exist_ok=True)
        error = None
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with span("bench.iteration"):
                checks = workloads.run_iteration(args.workload, inputs, args.out)
        except named_errors as err:
            error = repr(err)
            checks = {name: False for name in workloads.check_names(args.workload)}
        verdict_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    finally:
        if tracer:
            tracer.restore()

    if sorted(checks) != sorted(workloads.check_names(args.workload)):
        raise SystemExit(f"checks {sorted(checks)} differ from the declared ones")
    result = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "checks": {name: bool(ok) for name, ok in checks.items()},
        "error": error,
    }
    if tracer:
        result["layers"] = _trace_metrics(tracer, cpu_s, args)
    print(json.dumps(result))
    return 0


def _trace_metrics(tracer, cpu_s: float, args) -> dict:
    """Per-layer metrics plus the process and trace diagnostics; writes the
    spans beside the run's output directory.

    ``trace.overhead_frac`` is the number of wrapped calls times the cost of
    one wrapper (calibrated on a no-op in this process) over the traced wall
    time: run-to-run noise between a traced and an untraced run is far larger
    than the wrappers' cost.  ``trace.unattributed_frac`` is the share of the
    iteration that no wrapped call covers."""
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    selfs = tracing.self_times(spans)
    iteration = next(i for i in roots if spans[i].name == "bench.iteration")
    traced_wall = sum(spans[i].duration for i in roots)
    wrapped_calls = len(spans) - len(roots)
    metrics = layers.layer_metrics(spans)
    metrics.update({
        "process.cpu_s": cpu_s,
        "process.blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "trace.overhead_frac": wrapped_calls * tracing.per_span_cost() / traced_wall,
        "trace.unattributed_frac": selfs[iteration] / spans[iteration].duration,
    })
    dump = args.out.parent / f"spans-{args.workload}-seed{args.seed}.json"
    with open(dump, "w", encoding="utf-8") as f:
        json.dump([{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "attrs": s.attrs} for s in spans], f)
    return metrics


if __name__ == "__main__":
    sys.exit(main())

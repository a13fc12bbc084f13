"""Which public names the traced run wraps, and the per-layer metrics made
from the recorded spans.

Layers are the package modules.  A name is wrapped where its caller looks
it up: ``experiments`` calls ``evolve``, ``orbital_distance`` and
``eval_profile`` through its own module globals, ``spectral`` calls
``scipy.linalg.eigh`` through its own ``eigh``, and so on.  Third-party
routines (``eigh``, ``null_space``, ``solve_ivp``) count towards the layer
that calls them.

Time metrics named after one function (``build_sector_s``, ``dense_eigh_s``,
``projection_s`` ...) are self times: the function's spans minus their
wrapped children.  ``sigma_index_s``, ``constrained_min_eig_s``,
``splitting_probe_s``, ``observer_s``, ``record_write_s`` and the ``*_ms``
per-call means are inclusive.  ``busy_s`` is the self time of every span of
the layer.  ``projection_s`` is the self time of ``constrained_min_eig``:
after its Hessian build, null-space and eigensolve children, what is left is
the ``basis.T @ H @ basis`` projection.

Figures labelled ``_computed`` come from the formulas below over the array
sizes of the calls, not from hardware counters.
"""

from __future__ import annotations

import importlib
import math
import os
from collections import defaultdict

from tracing import Span, Tracer, self_times

MB = 1e6

# Golub & Van Loan, Matrix Computations, sec. 8.3: symmetric tridiagonal
# reduction costs 4n^3/3 flops, and accumulating the eigenvectors through
# the QR sweeps brings the total to about 9n^3.
EIGH_FLOPS_VALUES_ONLY = 4.0 / 3.0
EIGH_FLOPS_WITH_VECTORS = 9.0


def eigh_flops(n: int, vectors: bool) -> float:
    return (EIGH_FLOPS_WITH_VECTORS if vectors else EIGH_FLOPS_VALUES_ONLY) * n**3


def strang_step_flops(n: int) -> float:
    """Flops of one Strang step on N points: four complex FFTs (forward and
    inverse for u and v) at 5 N log2 N each; two nonlinear half-steps at 28
    flops a point (two moduli squared at 5, two phase arguments at 1, two
    complex exponentials at 2, two complex products at 6); the per-mode 2x2
    linear update at 20 flops a mode.  Transcendentals count as one flop."""
    return 20.0 * n * math.log2(n) + (2 * 28 + 20) * n


def strang_step_bytes(n: int) -> float:
    """Bytes one Strang step must move on N points if each sub-step reads
    and writes both complex128 fields once: two nonlinear half-steps
    (4 x 16 N each), forward and inverse FFT passes (4 x 16 N each), and the
    linear update (reads the two spectra and three real tables of 8 N,
    writes two spectra): 344 N."""
    return (2 * 64 + 2 * 64 + (32 + 24 + 32)) * n


def _note_eigh(span: Span, args, kwargs, result) -> None:
    n = args[0].shape[0]
    vectors = not kwargs.get("eigvals_only", False) and "subset_by_index" not in kwargs
    span.attrs["dim"] = n
    span.attrs["flops"] = eigh_flops(n, vectors)


def _note_operator(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = result.matrix.nbytes


class _CacheNote:
    """Marks each call of an ``lru_cache`` function as a hit or a miss from
    its ``cache_info``; counts the bytes built on a miss."""

    def __init__(self, cached) -> None:
        self._cached = cached
        self._hits = cached.cache_info().hits

    def __call__(self, span: Span, args, kwargs, result) -> None:
        hits = self._cached.cache_info().hits
        span.attrs["hit"] = hits > self._hits
        self._hits = hits
        if not span.attrs["hit"]:
            span.attrs["bytes"] = sum(a.nbytes for a in result)


def _note_evolve(span: Span, args, kwargs, result) -> None:
    state, config = args[0], args[1]
    span.attrs["n"] = state.grid.n
    span.attrs["steps"] = int(round(config.t_end / config.dt))
    span.attrs["snapshots"] = len(result.states)
    span.attrs["snapshot_bytes"] = sum(s.u.nbytes + s.v.nbytes for s in result.states)


def _note_nfev(span: Span, args, kwargs, result) -> None:
    span.attrs["nfev"] = int(result.nfev)


def _note_file(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = os.path.getsize(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every traced name; ``tracer.restore()`` undoes it."""
    m = {name: importlib.import_module(f"mtmlab.{name}")
         for name in ("experiments", "evolve", "soliton", "conserved", "spectral", "scattering")}
    targets = [
        (m["experiments"], "omega_sweep", "experiments.omega_sweep", None),
        (m["experiments"], "stability_experiment", "experiments.stability_experiment", None),
        (m["experiments"], "orbital_distance", "experiments.orbital_distance", None),
        (m["experiments"], "random_h1_perturbation", "experiments.random_h1_perturbation", None),
        (m["experiments"].RunRecord, "to_json", "experiments.record_write", _note_file),
        (m["experiments"], "evolve", "evolve.evolve", _note_evolve),
        (m["evolve"], "evolve", "evolve.evolve", _note_evolve),
        (m["experiments"], "eval_soliton", "soliton.eval_soliton", None),
        (m["experiments"], "eval_profile", "soliton.eval_profile", None),
        (m["soliton"], "eval_soliton", "soliton.eval_soliton", None),
        (m["spectral"], "eval_profile", "soliton.eval_profile", None),
        (m["spectral"], "profile_derivative", "soliton.profile_derivative", None),
        (m["spectral"], "splitting_probe", "spectral.splitting_probe", None),
        (m["spectral"], "sigma_index", "spectral.sigma_index", None),
        (m["spectral"], "constrained_min_eig", "spectral.constrained_min_eig", None),
        (m["spectral"], "build_sector_operator", "spectral.build_sector_operator", _note_operator),
        (m["spectral"], "build_hessian", "spectral.build_hessian", _note_operator),
        (m["spectral"], "differentiation_matrices", "spectral.differentiation_matrices",
         _CacheNote(m["spectral"].differentiation_matrices)),
        (m["spectral"], "eigh", "spectral.eigh", _note_eigh),
        (m["spectral"], "null_space", "spectral.null_space", None),
        (m["scattering"], "riccati_solve", "scattering.riccati_solve", None),
        (m["scattering"], "solve_ivp", "scattering.solve_ivp", _note_nfev),
    ]
    for fn in ("charge", "momentum", "hamiltonian", "higher_charge"):
        targets.append((m["conserved"], fn, f"conserved.{fn}", None))
    for owner, attr, name, note in targets:
        tracer.install(owner, attr, name, note)


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced process (setup and iteration)."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        self_s[span.name] += own
        incl_s[span.name] += span.duration
        calls[span.name] += 1
        busy[span.layer] += own

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    diff = named("spectral.differentiation_matrices")
    eighs = named("spectral.eigh")
    evolves = named("evolve.evolve")
    evolve_idx = {i for i, s in enumerate(spans) if s.name == "evolve.evolve"}
    riccati = named("scattering.riccati_solve")
    steps = int(attr_sum("evolve.evolve", "steps"))
    rhs_evals = int(attr_sum("scattering.solve_ivp", "nfev"))
    conserved_fns = ("charge", "momentum", "hamiltonian", "higher_charge")

    out = {
        "spectral.busy_s": busy["spectral"],
        "spectral.build_sector_s": self_s["spectral.build_sector_operator"],
        "spectral.build_hessian_s": self_s["spectral.build_hessian"],
        "spectral.diffmat_s": self_s["spectral.differentiation_matrices"],
        "spectral.diffmat_cache_hit_ratio": _mean(sum(s.attrs["hit"] for s in diff), len(diff)),
        "spectral.dense_eigh_calls": len(eighs),
        "spectral.dense_eigh_s": self_s["spectral.eigh"],
        "spectral.dense_eigh_dim_max": max((s.attrs["dim"] for s in eighs), default=0),
        "spectral.dense_eigh_flops_computed": sum(s.attrs["flops"] for s in eighs),
        "spectral.null_space_s": self_s["spectral.null_space"],
        "spectral.projection_s": self_s["spectral.constrained_min_eig"],
        "spectral.sigma_index_s": incl_s["spectral.sigma_index"],
        "spectral.constrained_min_eig_s": incl_s["spectral.constrained_min_eig"],
        "spectral.splitting_probe_s": incl_s["spectral.splitting_probe"],
        "spectral.matrix_mb_computed": sum(
            s.attrs.get("bytes", 0) for s in spans if s.layer == "spectral") / MB,
        "evolve.busy_s": busy["evolve"],
        "evolve.steps": steps,
        "evolve.step_us": _mean(busy["evolve"], steps) * 1e6,
        "evolve.snapshots": int(attr_sum("evolve.evolve", "snapshots")),
        "evolve.snapshot_mb": attr_sum("evolve.evolve", "snapshot_bytes") / MB,
        "evolve.step_flops_computed": sum(
            s.attrs["steps"] * strang_step_flops(s.attrs["n"]) for s in evolves),
        "evolve.step_bytes_computed": sum(
            s.attrs["steps"] * strang_step_bytes(s.attrs["n"]) for s in evolves),
        "experiments.orbital_distance_ms": _mean(
            incl_s["experiments.orbital_distance"], calls["experiments.orbital_distance"]) * 1e3,
        "experiments.orbital_distance_calls": calls["experiments.orbital_distance"],
        "experiments.observer_s": sum(s.duration for s in spans if s.parent in evolve_idx),
        "experiments.self_s": busy["experiments"],
        "experiments.record_write_s": incl_s["experiments.record_write"],
        "experiments.record_bytes": int(attr_sum("experiments.record_write", "bytes")),
        "conserved.calls": sum(calls[f"conserved.{fn}"] for fn in conserved_fns),
        "conserved.busy_s": busy["conserved"],
        "scattering.riccati_calls": len(riccati),
        "scattering.riccati_ms": _mean(incl_s["scattering.riccati_solve"], len(riccati)) * 1e3,
        "scattering.riccati_ms_max": max((s.duration for s in riccati), default=0.0) * 1e3,
        "scattering.rhs_evals": rhs_evals,
        "scattering.rhs_evals_per_solve": _mean(rhs_evals, len(riccati)),
        "scattering.us_per_rhs_eval": _mean(incl_s["scattering.riccati_solve"], rhs_evals) * 1e6,
        "scattering.busy_s": busy["scattering"],
        "scattering.pole_errors": sum(
            s.attrs.get("error") == "PoleEncounterError" for s in riccati),
        "soliton.busy_s": busy["soliton"],
    }
    for fn in conserved_fns:
        name = f"conserved.{fn}"
        out[f"{name}_ms"] = _mean(incl_s[name], calls[name]) * 1e3
    return out

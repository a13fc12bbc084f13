"""The three benchmark workloads: inputs made from a seed, one iteration that
calls the same public functions the ``mtmlab`` CLI calls, and the checks of
its results against the paper's verdicts.

Why these three (each leaves the other layers nearly idle, so together they
measure every layer):

* ``sweep``   -- ``omega_sweep([0.3, -0.7])`` with all four checks on the
  spectral grids (N = 640 and 1024: sector matrices up to 2048^2, a Hessian
  up to 4096^2).  The dense spectral layer does nearly all the work; two
  grid sizes expose its N^3 time and N^2 memory.  No random input: the seed
  is recorded only.
* ``stability`` -- the README's ``mtmlab stability --omega 0.3 --delta 1e-3``
  on the CLI grid Grid(40, 1024), dt = 1e-3, stride 200, cut to t_end = 10:
  10k Strang steps and 51 observer snapshots, the README run's proportions.
  Evolution dominates; the observers are a small measured share.  The seed
  draws the perturbation.
* ``scatter`` -- the transmission-invariance pattern: the omega = 0.5
  soliton on Grid(40, 1024) plus a seeded H1 perturbation of size 1e-2,
  evolved to t = 1 with snapshots at t = 0 and 1, and ``riccati_solve`` at
  four lambdas on each snapshot.  The Python-callback RK45 dominates and its
  cost grows with |k(lambda)|, so the lambda spread shows a method whose cost
  does not depend on lambda.

The two dynamic workloads are short (a few seconds an iteration) so that a
run holds many iterations: on a shared host the median of many short
iterations varies less from run to run than one long iteration does.

Modules are looked up through ``importlib`` at call time, so the tracer's
wrappers on module attributes see these calls.
"""

from __future__ import annotations

import importlib
from pathlib import Path

WORKLOADS = ("sweep", "stability", "scatter")

SWEEP_OMEGAS = (0.3, -0.7)
SWEEP_CHECKS = ("minus_sector", "plus_sector", "slope", "constrained")
SIGMA_TOL = 1e-3

STABILITY = {"omega": 0.3, "delta": 1e-3, "t_end": 10.0, "dt": 1e-3, "stride": 200}
CLI_GRID = (40.0, 1024)
DRIFT_Q_TOL = 1e-10

SCATTER = {"omega": 0.5, "delta": 1e-2, "t_end": 1.0, "dt": 1e-3, "stride": 1000}
SCATTER_LAMBDAS = (0.5, 0.8, 1.25, 2.0)
LOG_A_DRIFT_TOL = 1e-5


def _mod(name: str):
    return importlib.import_module(f"mtmlab.{name}")


def check_names(workload: str) -> list[str]:
    """Every check an iteration of ``workload`` attempts."""
    if workload == "sweep":
        per_omega = ("minus_sector", "plus_sector", "sigma_plus", "sigma_minus", "constrained")
        return ["verdicts"] + [f"{o!r}:{c}" for o in sorted(SWEEP_OMEGAS) for c in per_omega]
    if workload == "stability":
        return ["no_blowup", "orbit_bound", "drift_Q"]
    if workload == "scatter":
        return ["reached_t_end"] + [f"log_a_drift:{lam!r}" for lam in SCATTER_LAMBDAS]
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one iteration; the same seed gives the same inputs."""
    grid_mod = _mod("grid")
    if workload == "sweep":
        return {"omegas": sorted(SWEEP_OMEGAS)}
    if workload == "stability":
        return {"grid": grid_mod.Grid(*CLI_GRID), "seed": seed}
    if workload == "scatter":
        g = grid_mod.Grid(*CLI_GRID)
        soliton = _mod("soliton")
        base = soliton.eval_soliton(soliton.SolitonParams(SCATTER["omega"]), g)
        wu, wv = _mod("experiments").random_h1_perturbation(g, seed, SCATTER["delta"])
        return {"state": grid_mod.FieldState(g, base.u + wu, base.v + wv, 0.0)}
    raise ValueError(f"unknown workload {workload!r}")


def _sigma_closed(omega: float, sign: int) -> float:
    # the paper's closed form, restated here so the check does not rest on
    # the package's own copy of it
    beta = (1.0 - omega * omega) ** 0.5
    return -1.0 / (2.0 * omega * beta) if sign > 0 else beta / (2.0 * omega)


def run_iteration(workload: str, inputs: dict, out: Path) -> dict[str, bool]:
    """One iteration from generated inputs to checked verdicts, writing the
    CLI's output files into ``out``.  Returns check name -> passed."""
    if workload == "sweep":
        return _sweep(inputs, out)
    if workload == "stability":
        return _stability(inputs, out)
    if workload == "scatter":
        return _scatter(inputs, out)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep(inputs: dict, out: Path) -> dict[str, bool]:
    record = _mod("experiments").omega_sweep(inputs["omegas"], checks=SWEEP_CHECKS)
    record.to_json(out / "record.json")
    checks = {"verdicts": record.passed}
    rows = {row["omega"]: row for row in record.tables["sweep"]}
    for omega in inputs["omegas"]:
        row = rows.get(omega, {})
        for key in ("minus_sector", "plus_sector", "constrained"):
            checks[f"{omega!r}:{key}"] = row.get(f"{key}_ok") is True
        for sign, tag in ((1, "plus"), (-1, "minus")):
            value = row.get(f"sigma_{tag}")
            checks[f"{omega!r}:sigma_{tag}"] = (
                value is not None and abs(value - _sigma_closed(omega, sign)) < SIGMA_TOL
            )
    return checks


def _stability(inputs: dict, out: Path) -> dict[str, bool]:
    p = STABILITY
    record = _mod("experiments").stability_experiment(
        p["omega"], p["delta"], p["t_end"], inputs["seed"],
        grid=inputs["grid"], dt=p["dt"], stride=p["stride"],
    )
    record.to_json(out / "record.json")
    return {
        "no_blowup": record.verdicts.get("no_blowup") is True,
        "orbit_bound": record.verdicts.get("orbit_bound") is True,
        "drift_Q": record.measurements.get("drift_Q", float("inf")) < DRIFT_Q_TOL,
    }


def _scatter(inputs: dict, out: Path) -> dict[str, bool]:
    evolve, scattering = _mod("evolve"), _mod("scattering")
    p = SCATTER
    config = evolve.EvolverConfig(dt=p["dt"], t_end=p["t_end"], snapshot_stride=p["stride"])
    traj = evolve.evolve(inputs["state"], config)
    checks = {"reached_t_end": abs(traj.times[-1] - p["t_end"]) < 1e-9}
    samples = []
    for lam in SCATTER_LAMBDAS:
        log_a = []
        for state in traj.states:
            sample = scattering.riccati_solve(state, lam)
            samples.append((sample, state.t))
            log_a.append(sample.log_a)
        drift = max(abs(v - log_a[0]) for v in log_a)
        checks[f"log_a_drift:{lam!r}"] = len(log_a) > 1 and drift < LOG_A_DRIFT_TOL
    scattering.write_scan_csv(out / "scatter.csv", samples)
    return checks

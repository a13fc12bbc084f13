"""Top-level experiments: orbital-distance tracking, stability runs,
global-boundedness runs, and consolidated spectral sweeps, each returning a
serializable run record with pass/fail verdicts.

Verdict constants are artifact choices (the underlying statements are
qualitative): a stability run passes when the supremum of the orbital H1
distance stays below ``STABILITY_FACTOR`` times the perturbation size, and a
boundedness run passes when the H1 norm never exceeds twice its early-window
supremum.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import conserved, spectral
from .evolve import BlowUpError, EvolverConfig, Trajectory, evolve
from .grid import FieldState, Grid, differentiate, l2_norm_sq, norms, quadrature
from .soliton import SolitonParams, eval_profile, eval_soliton, recommended_grid

STABILITY_FACTOR = 10.0
ZERO_DISTANCE_FLOOR = 1e-8
PERTURBATION_MODES = 16
BOUNDEDNESS_FACTOR = 2.0
# self-check of the per-sector constrained minimum against the Hessian
# route, two dense (2N - 2)-square subset eigensolves, one per K4 block of
# the Hessian (~6 ms per omega at N = 128 on a 2-core host): the largest
# lattice it runs on and the agreement required (the routes are equal in
# exact arithmetic and agree to ~1e-12 in practice)
SPLIT_CHECK_N = 128
SPLIT_DEFECT_TOL = 1e-10
SWEEP_CHECKS = ("minus_sector", "plus_sector", "slope", "constrained")
# a numeric constraint slope passes when it is within this of its closed form
SLOPE_TOL = 1e-3


@dataclass
class RunRecord:
    """Serialized diagnostics of one experiment."""

    kind: str
    config: dict
    seed: int | None
    series: dict[str, list] = field(default_factory=dict)
    tables: dict[str, list] = field(default_factory=dict)
    measurements: dict[str, float] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def validate(self) -> None:
        for name, values in self.series.items():
            arr = np.asarray(values, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"series {name!r} contains non-finite entries")

    def to_json(self, path: str | Path) -> None:
        """Write the record; the text is built first, so a value that does
        not serialize leaves no partial file behind."""
        payload = asdict(self)
        payload["passed"] = self.passed
        text = json.dumps(payload, indent=2, default=_jsonify)
        Path(path).write_text(text, encoding="utf-8")


def _jsonify(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)}")


# ---------------------------------------------------------------------------
# orbital distance


def orbital_distance(state: FieldState, omega: float) -> tuple[float, float, float]:
    """Minimal H1 distance from a state to the soliton orbit, with the
    minimizing gauge phase and shift.

    Everything is done on the spectra of the state and of the profile pair,
    each transformed once, under the inner product of ``Grid.h1_weights``.
    For a fixed shift the optimal phase is the argument of the H1 cross
    inner product (closed form); the shift is located by scan + Newton: a
    full-grid correlation scan picks the best grid shift, and a Newton
    ascent on |C|^2 refines it off the grid.  The distance is then evaluated
    directly on the residual spectrum so that an exact orbit point reports a
    roundoff-level distance instead of a cancellation artifact.
    """
    g = state.grid
    phi_u = eval_profile(omega, g)
    f_hat = np.fft.fft(np.stack([state.u, state.v]))
    phi_hat = np.fft.fft(np.stack([phi_u, np.conj(phi_u)]))
    k = g.wavenumbers

    cross = (g.dx / g.n) * g.h1_weights * np.sum(f_hat * np.conj(phi_hat), axis=0)
    corr = np.fft.fft(cross)  # corr[m] = <state, phi(. + m dx)>_{H1}
    m_best = int(np.argmax(np.abs(corr)))
    beta0 = m_best * g.dx
    beta0 = (beta0 + g.half_length) % (2.0 * g.half_length) - g.half_length

    def cross_at(beta: float) -> complex:
        return complex(np.sum(cross * np.exp(-1j * k * beta)))

    # Newton ascent on the stationarity of |C|^2, using the exact spectral
    # derivatives of C: a value-based search stalls at beta ~ 1e-8 because
    # the correlation is flat at its maximum, while an exact orbit point must
    # report a roundoff-level residual distance
    beta_star = beta0
    for _ in range(60):
        phase = np.exp(-1j * k * beta_star)
        c0 = np.sum(cross * phase)
        c1d = np.sum(-1j * k * cross * phase)
        c2d = np.sum(-(k**2) * cross * phase)
        grad = 2.0 * np.real(c1d * np.conj(c0))
        curv = 2.0 * np.real(c2d * np.conj(c0)) + 2.0 * abs(c1d) ** 2
        if curv >= 0.0:  # not locally a maximum of |C|^2; keep the last iterate
            break
        stp = grad / curv
        if abs(stp) > g.dx:
            break
        beta_star -= stp
        if abs(stp) < 1e-13:
            break
    if abs(cross_at(beta_star)) < abs(cross_at(beta0)):
        beta_star = beta0
    alpha_star = float(np.angle(cross_at(beta_star)))

    residual = f_hat - np.exp(1j * (alpha_star + k * beta_star)) * phi_hat
    power = (g.dx / g.n) * np.abs(residual) ** 2
    return float(np.sqrt(np.sum(g.h1_weights * power))), alpha_star, beta_star


# ---------------------------------------------------------------------------
# random perturbations


def random_h1_perturbation(grid: Grid, seed: int, size: float) -> tuple[np.ndarray, np.ndarray]:
    """Band-limited complex Gaussian pair, H1-normalized then scaled.

    Fourier coefficients are drawn for the lowest modes (|index| <=
    PERTURBATION_MODES) of both components, which keeps the field smooth.
    A flat-topped super-Gaussian window crushes the samples below 1e-12 at
    the grid edges so that perturbed states still satisfy the decaying
    truncated-line reading that the scattering solver requires.
    """
    rng = np.random.default_rng(seed)
    window = np.exp(-((grid.x / (0.6 * grid.half_length)) ** 8))
    fields = []
    for _ in range(2):
        coeffs = np.zeros(grid.n, dtype=complex)
        for m in range(-PERTURBATION_MODES, PERTURBATION_MODES + 1):
            coeffs[m % grid.n] = rng.standard_normal() + 1j * rng.standard_normal()
        fields.append(np.fft.ifft(coeffs) * grid.n * window)
    # the scale keeps the rectangle-rule form of ||f||^2 + ||f'||^2 (equal to
    # h1_norm_sq up to roundoff), so a seed keeps drawing the same bits
    total = sum(l2_norm_sq(f, grid) + l2_norm_sq(df, grid)
                for f, df in zip(fields, differentiate(fields, grid)))
    scale = size / np.sqrt(total)
    return fields[0] * scale, fields[1] * scale


# ---------------------------------------------------------------------------
# drift bookkeeping


def relative_drift(series: Sequence[float], scale_floor: float) -> float:
    """sup_t |X(t) - X(0)| normalized by max(|X(0)|, scale_floor).

    The floor (the initial charge is the natural choice) keeps the measure
    meaningful for quantities whose initial value is itself near zero, such
    as the momentum of a stationary soliton.
    """
    arr = np.asarray(series, dtype=float)
    sup = float(np.max(np.abs(arr - arr[0])))
    denom = float(max(abs(arr[0]), scale_floor))
    if denom == 0.0:
        return 0.0 if sup == 0.0 else float("inf")
    return sup / denom


# ---------------------------------------------------------------------------
# experiments


def perturbed_soliton(omega: float, grid: Grid, seed: int, delta: float) -> FieldState:
    """The resting omega soliton plus a seeded random H1 field of size delta
    (the bare soliton when delta = 0)."""
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"perturbation size must be nonnegative and finite, got {delta!r}")
    state = eval_soliton(SolitonParams(omega), grid)
    if delta > 0:
        wu, wv = random_h1_perturbation(grid, seed, delta)
        state = FieldState(grid, state.u + wu, state.v + wv, 0.0)
    return state


def evolution_run(
    kind: str,
    state: FieldState,
    config: EvolverConfig,
    seed: int | None,
    settings: dict,
) -> tuple[RunRecord, Trajectory | None]:
    """Evolve ``state`` and record the run; its series are computed from
    the snapshots after the run.

    The record's config is ``settings`` plus the step, grid and stride of the
    run, and ``duration_s`` is the wall time of this call.  A blow-up is
    recorded as ``blowup_t`` with ``no_blowup`` False and no trajectory.
    Otherwise the record carries the t, Q, P, H, R series, the relative
    drifts ``drift_{Q,P,H,R}`` (sup over snapshots, normalized by Q(0)),
    ``no_blowup`` and ``charge_conserved`` (drift_Q < 1e-10).
    """
    t_start = time.perf_counter()
    g = state.grid
    record = RunRecord(
        kind=kind,
        config=settings | {
            "t_end": config.t_end, "dt": config.dt,
            "grid_L": g.half_length, "grid_N": g.n, "stride": config.snapshot_stride,
        },
        seed=seed,
    )
    try:
        traj = evolve(state, config)
    except BlowUpError as err:
        record.measurements["blowup_t"] = err.t
        record.verdicts["no_blowup"] = False
        record.duration_s = time.perf_counter() - t_start
        return record, None

    values = [conserved.evaluate_all(s) for s in traj.states]
    record.series = {"t": traj.times.tolist()}
    for name in ("Q", "P", "H", "R"):
        record.series[name] = series = [getattr(v, name) for v in values]
        record.measurements[f"drift_{name}"] = relative_drift(series, values[0].Q)
    record.verdicts["no_blowup"] = True
    record.verdicts["charge_conserved"] = record.measurements["drift_Q"] < 1e-10
    record.validate()
    record.duration_s = time.perf_counter() - t_start
    return record, traj


def stability_experiment(
    omega: float,
    delta: float,
    t_end: float,
    seed: int,
    grid: Grid | None = None,
    dt: float = 1e-3,
    stride: int = 200,
) -> RunRecord:
    """Perturb the soliton by a seeded random H1 field of size delta, evolve,
    and track the orbital distance and conserved drifts.

    Passes when sup_t distance <= STABILITY_FACTOR * delta (floored at
    ZERO_DISTANCE_FLOOR so the delta = 0 run is held to roundoff level).
    """
    t_start = time.perf_counter()
    g = grid if grid is not None else recommended_grid(omega)
    state = perturbed_soliton(omega, g, seed, delta)
    config = EvolverConfig(dt=dt, t_end=t_end, snapshot_stride=stride)
    record, traj = evolution_run(
        "stability", state, config, seed, {"omega": omega, "delta": delta})
    if traj is not None:
        record.series["distance"] = [orbital_distance(s, omega)[0] for s in traj.states]
        record.validate()
        sup_dist = float(np.max(record.series["distance"]))
        record.measurements["sup_distance"] = sup_dist
        record.verdicts["orbit_bound"] = sup_dist <= max(
            STABILITY_FACTOR * delta, ZERO_DISTANCE_FLOOR)
    record.duration_s = time.perf_counter() - t_start
    return record


def gaussian_data(grid: Grid, q_target: float, seed: int) -> FieldState:
    """Gaussian initial data with the requested charge and a seeded
    momentum kick on each component; a negative or non-finite charge is
    refused."""
    if not 0.0 <= q_target < np.inf:
        raise ValueError(f"charge must be nonnegative and finite, got {q_target!r}")
    rng = np.random.default_rng(seed)
    ku, kv = rng.uniform(-1.0, 1.0, size=2)
    env = np.exp(-grid.x**2)
    u = env * np.exp(1j * ku * grid.x)
    v = env * np.exp(1j * kv * grid.x)
    q_raw = float(np.real(quadrature(np.abs(u) ** 2 + np.abs(v) ** 2, grid)))
    amp = np.sqrt(q_target / q_raw)
    return FieldState(grid, amp * u, amp * v, 0.0)


def h1_bound_experiment(
    q_target: float,
    t_end: float,
    seed: int,
    grid: Grid | None = None,
    dt: float = 1e-3,
    stride: int = 500,
) -> RunRecord:
    """Evolve small Gaussian data and test empirical H1 boundedness.

    Passes when H1(t) <= BOUNDEDNESS_FACTOR * sup over the first tenth of
    the run, with a roundoff-level charge drift confirming the mechanism.
    The coercivity diagnostic (a lower bound for the higher charge in terms
    of measured interpolation constants) is recorded, not asserted.
    """
    t_start = time.perf_counter()
    g = grid if grid is not None else Grid(30.0, 512)
    state = gaussian_data(g, q_target, seed)
    config = EvolverConfig(dt=dt, t_end=t_end, snapshot_stride=stride)
    record, traj = evolution_run("h1_bound", state, config, seed, {"Q": q_target})
    if traj is not None:
        snapshot_norms = [norms(s) for s in traj.states]
        for key in ("H1_sq", "L4", "L6"):
            record.series[key] = [n[key] for n in snapshot_norms]
        record.validate()
        times = traj.times
        h1 = np.asarray(record.series["H1_sq"])
        early = h1[times <= max(t_end / 10.0, times[1] if len(times) > 1 else 0.0)]
        ceiling = BOUNDEDNESS_FACTOR * float(np.max(early))
        record.measurements["h1_ceiling"] = ceiling
        record.measurements["h1_sup"] = float(np.max(h1))

        # coercivity diagnostic with empirically measured interpolation constants
        nf = snapshot_norms[-1]
        grad_sq = nf["H1_sq"] - nf["L2_sq"]
        cp = max(n["interp_ratio"] for n in snapshot_norms)
        r_final = record.series["R"][-1]
        q_final = record.series["Q"][-1]
        record.measurements["interp_constant"] = cp
        record.measurements["coercivity_gap"] = (
            r_final + cp * (q_final + q_final**3) - 0.5 * grad_sq
        )
        record.verdicts["h1_bounded"] = bool(np.all(h1 <= ceiling))
    record.duration_s = time.perf_counter() - t_start
    return record


def omega_sweep(
    omegas: Sequence[float],
    grid_n: int | None = None,
    checks: Sequence[str] = SWEEP_CHECKS,
) -> RunRecord:
    """Run the spectral battery per omega and consolidate verdicts.

    * ``minus_sector``: exactly two isolated eigenvalues, one kernel, the
      other with the sign of omega (asserted for all omega).
    * ``plus_sector``: exactly two isolated, the non-kernel one with the
      sign of -omega (asserted for |omega| <= 0.5, reported beyond).
    * ``slope``: constraint slopes match their closed forms within
      ``SLOPE_TOL`` (asserted for |omega| >= 0.1).
    * ``constrained``: projected curvature minimum (per-sector route) is
      strictly positive, and the per-sector route agrees with the
      full-Hessian route within SPLIT_DEFECT_TOL on the verdict's own
      mapped lattice, or on ``spectral_grid(omega, SPLIT_CHECK_N)`` when
      that lattice has more than SPLIT_CHECK_N points, which bounds the
      Hessian's two dense 2N x 2N K4 blocks, each projected off its two
      constraint rows and given one subset eigensolve.  The check so
      exercises the J^(1/2) weights, S(g/J) and the mapped kinetic part
      behind the verdicts, and on the verdict's lattice it reads the sector
      analyses the verdicts left in the cache.

    Failures during the analysis are isolated per omega and recorded; the
    sweep continues.  An unknown check name, and an omega or ``grid_n``
    that ``spectral_grid`` rejects, raise a ``ValueError`` before any work.
    """
    unknown = [name for name in checks if name not in SWEEP_CHECKS]
    if unknown:
        raise ValueError(f"unknown sweep checks {unknown}; choose from {list(SWEEP_CHECKS)}")
    grids = [spectral.spectral_grid(omega, grid_n) for omega in omegas]
    t_start = time.perf_counter()
    record = RunRecord(
        kind="omega_sweep",
        config={"omegas": list(map(float, omegas)), "grid_N": grid_n, "checks": list(checks)},
        seed=None,
    )
    rows = []
    for omega, g in zip(omegas, grids):
        row: dict = {"omega": float(omega)}
        try:
            probe = spectral.splitting_probe(omega, g)
            row.update(probe)
            if "minus_sector" in checks:
                ok = probe["count_minus"] == 2 and abs(probe["kernel_minus"]) < 1e-6
                if omega != 0.0:
                    ok = ok and np.sign(probe["second_minus"]) == np.sign(omega)
                row["minus_sector_ok"] = bool(ok)
            if "plus_sector" in checks:
                ok = probe["count_plus"] == 2 and abs(probe["kernel_plus"]) < 1e-6
                if omega != 0.0:
                    sign_ok = np.sign(probe["second_plus"]) == -np.sign(omega)
                    if abs(omega) <= 0.5:
                        ok = ok and sign_ok
                    row["plus_sector_sign_reported"] = bool(sign_ok)
                row["plus_sector_ok"] = bool(ok)
            if "slope" in checks and abs(omega) >= 0.1:
                for sign, tag in ((1, "plus"), (-1, "minus")):
                    num = spectral.sigma_index(omega, g, sign)
                    closed = spectral.sigma_closed_form(omega, sign)
                    row[f"sigma_{tag}"] = num
                    row[f"sigma_{tag}_closed"] = closed
                    row[f"sigma_{tag}_residual"] = spectral.sector_analysis(
                        omega, g, sign).sigma.residual
                    row[f"sigma_{tag}_ok"] = bool(abs(num - closed) < SLOPE_TOL)
            if "constrained" in checks:
                lam_min = spectral.constrained_min_eig(omega, g)
                check_grid = (g if g.n <= SPLIT_CHECK_N
                              else spectral.spectral_grid(omega, SPLIT_CHECK_N))
                defect = spectral.constrained_split_defect(omega, check_grid)
                row["constrained_min"] = lam_min
                row["constrained_split_defect"] = defect
                row["constrained_ok"] = bool(lam_min > 0.0 and defect <= SPLIT_DEFECT_TOL)
        except Exception as err:  # noqa: BLE001 - isolate per-omega failures
            row["error"] = repr(err)
        rows.append(row)
    record.tables["sweep"] = rows
    for key in ("minus_sector_ok", "plus_sector_ok", "constrained_ok"):
        flags = [r[key] for r in rows if key in r]
        if flags:
            record.verdicts[key.replace("_ok", "")] = all(flags)
    slope_flags = [
        r[k] for r in rows for k in ("sigma_plus_ok", "sigma_minus_ok") if k in r
    ]
    if slope_flags:
        record.verdicts["slope"] = all(slope_flags)
    record.verdicts["no_errors"] = not any("error" in r for r in rows)
    record.duration_s = time.perf_counter() - t_start
    return record

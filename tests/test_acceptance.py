"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

The shared trajectory (criteria 2-4) is the omega = 0.5 soliton plus a
seeded size-1e-2 perturbation on the pinned grid (N = 1024, L = 40),
evolved to t = 20 at dt = 1e-3, with a half-step twin for the convergence
clauses.
"""

import numpy as np
import pytest

from mtmlab.conserved import (
    balance_residual,
    charge,
    hamiltonian,
    higher_charge,
    momentum,
)
from mtmlab.evolve import EvolverConfig, evolve, step
from mtmlab.experiments import (
    h1_bound_experiment,
    random_h1_perturbation,
    relative_drift,
    stability_experiment,
)
from mtmlab.grid import FieldState, Grid, quadrature
from mtmlab.scattering import explicit_In, hierarchy_relations, riccati_solve
from mtmlab.soliton import (
    SolitonParams,
    eval_profile,
    eval_soliton,
    profile_absq,
    profile_derivative,
    recommended_grid,
    residual_first_order,
    residual_second_order,
    zero_mode_fields,
)
from mtmlab.spectral import (
    SchrodingerProblem,
    build_hessian,
    build_schrodinger,
    build_sector_operator,
    constrained_min_eig,
    embed_conjugate_pair,
    isolated_spectrum,
    sector_analysis,
    sigma_closed_form,
    sigma_index,
    spectral_grid,
    stretched_grid,
    sturm_eigenvalues,
)
from conftest import random_decaying_state
from oracles import (
    block_diagonalize_check,
    full_matrix,
    generalized_mode_residual,
    half_density,
    hessian_quadratic_form,
    uniform_spectral_grid,
)

SEED = 123
ROUNDOFF_DRIFT_FLOOR = 1e-10
CONSTRAINED_MARGIN_ZERO = 0.7350832488511114


def report(num: int, name: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    for label, flag in checks.items():
        print(f"    {'ok ' if flag else 'BAD'} {label}")
    assert ok, f"criterion {num} failed: " + ", ".join(k for k, v in checks.items() if not v)


# ---------------------------------------------------------------------------
# shared trajectory (criteria 2, 3, 4)


@pytest.fixture(scope="module")
def pinned_trajectory():
    grid = Grid(40.0, 1024)
    base = eval_soliton(SolitonParams(0.5), grid)
    wu, wv = random_h1_perturbation(grid, SEED, 1e-2)
    state = FieldState(grid, base.u + wu, base.v + wv, 0.0)
    full = evolve(state, EvolverConfig(dt=1e-3, t_end=20.0, snapshot_stride=500))
    half = evolve(state, EvolverConfig(dt=5e-4, t_end=20.0, snapshot_stride=1000))
    return state, full, half


def test_criterion_01_soliton_identities():
    checks = {}
    for omega in (-0.9, -0.5, 0.0, 0.5, 0.9):
        g = recommended_grid(omega)
        u = eval_profile(omega, g)
        mass = float(np.real(quadrature(np.abs(u) ** 2, g)))
        checks[f"mass(omega={omega})"] = abs(mass - np.arccos(omega)) < 1e-8
        checks[f"modulus(omega={omega})"] = (
            np.max(np.abs(np.abs(u) ** 2 - profile_absq(omega, g.x))) < 1e-12
        )
        checks[f"first_order(omega={omega})"] = residual_first_order(u, omega, g) < 1e-6
        checks[f"second_order(omega={omega})"] = (
            residual_second_order(u, np.conj(u), 1.0 - omega**2, g) < 1e-6
        )
    report(1, "soliton identities", checks)


def test_criterion_02_conservation(pinned_trajectory):
    _, full, half = pinned_trajectory
    functionals = {"Q": charge, "P": momentum, "H": hamiltonian, "R": higher_charge}
    q0 = charge(full.states[0])
    drifts, drifts_half = (
        {k: relative_drift([fn(s) for s in traj.states], q0) for k, fn in functionals.items()}
        for traj in (full, half)
    )
    checks = {f"drift Q = {drifts['Q']:.2e} < 1e-10": drifts["Q"] < 1e-10}
    for name in ("P", "H", "R"):
        checks[f"drift {name} = {drifts[name]:.2e} < 1e-6"] = drifts[name] < 1e-6
        # second-order shrink, except where both drifts sit at the roundoff
        # floor and the ratio carries no information
        if max(drifts[name], drifts_half[name]) < ROUNDOFF_DRIFT_FLOOR:
            checks[f"{name} halving: below roundoff floor"] = True
        else:
            ratio = drifts[name] / drifts_half[name]
            checks[f"{name} halving ratio = {ratio:.2f} >= 3.5"] = ratio >= 3.5
    report(2, "conservation drifts", checks)


def _fourier_upsample(state: FieldState) -> FieldState:
    """Double the grid resolution by zero-padding the spectrum."""
    g = state.grid
    n = g.n
    fine = Grid(g.half_length, 2 * n)

    def up(f: np.ndarray) -> np.ndarray:
        coeffs = np.fft.fft(f)
        padded = np.zeros(2 * n, dtype=complex)
        padded[: n // 2] = coeffs[: n // 2]
        padded[-(n // 2) + 1 :] = coeffs[n // 2 + 1 :]
        padded[n // 2] = 0.5 * coeffs[n // 2]
        padded[-(n // 2)] = 0.5 * coeffs[n // 2]
        return np.fft.ifft(padded) * 2.0

    return FieldState(fine, up(state.u), up(state.v), state.t)


def test_criterion_03_balance_law(pinned_trajectory):
    _, full, _ = pinned_trajectory
    snap = full.states[4]  # t = 2.0
    residues = []
    for dt, state in ((1e-3, snap), (5e-4, _fourier_upsample(snap))):
        s1 = step(state, dt)
        s2 = step(s1, dt)
        residues.append(balance_residual([state, s1, s2]))
    checks = {
        f"residual = {residues[0]:.2e} < 1e-4": residues[0] < 1e-4,
        f"(dt, dx) refinement ratio = {residues[0] / residues[1]:.2f} >= 3.5":
            residues[0] / residues[1] >= 3.5,
    }
    report(3, "balance law", checks)


def test_criterion_04_transmission_invariance(pinned_trajectory):
    _, full, _ = pinned_trajectory
    snaps = [full.states[i] for i in (0, 5, 10, 15, 20)]  # t = 0 .. 10
    assert snaps[-1].t == pytest.approx(10.0)
    checks = {}
    for lam in (0.5, 0.8, 1.25):
        vals = [riccati_solve(s, lam).log_a for s in snaps]
        drift = max(abs(v - vals[0]) for v in vals)
        checks[f"log a drift (lambda={lam}) = {drift:.2e} < 1e-5"] = drift < 1e-5
    report(4, "transmission coefficient invariance", checks)


def test_criterion_05_charge_hierarchy():
    grid = Grid(30.0, 2048)
    sol = eval_soliton(SolitonParams(0.0), grid)
    checks = {"I0 equals Q on the soliton": abs(explicit_In(sol, 0) - charge(sol)) < 1e-13}
    worst = {"momentum": 0.0, "hamiltonian": 0.0, "higher": 0.0}
    for seed in range(10):
        state = random_decaying_state(grid, seed=seed)
        rep = hierarchy_relations(state)
        worst["momentum"] = max(worst["momentum"], rep.momentum_residual)
        worst["hamiltonian"] = max(worst["hamiltonian"], rep.hamiltonian_residual)
        worst["higher"] = max(worst["higher"], rep.higher_residual)
    for name, val in worst.items():
        checks[f"{name} pairing residual = {val:.2e} < 1e-6"] = val < 1e-6
    report(5, "charge hierarchy", checks)


def test_criterion_06_kernel_and_block_structure():
    # the Hessian's quadratic form along the zero modes needs one spacing dx,
    # so it runs on a uniform grid, the strip rule's
    # (``oracles.uniform_spectral_grid``); the sector kernels are checked on
    # the sinh-mapped spectral grid, where the blocks act on J^(1/2) w, and
    # on that uniform grid (the similarity identity on the mapped lattice is
    # ``test_spectral.py::TestMappedSplitCheck``)
    omega = 0.5
    g = uniform_spectral_grid(omega)
    hess = build_hessian(omega, g)
    modes = zero_mode_fields(omega, g)
    checks = {}
    for name in ("gauge", "translation"):
        a, b = modes[name][0], modes[name][1]
        val = abs(hessian_quadratic_form(hess, g, a, b))
        checks[f"<L F, F> ({name}) = {val:.2e} < 1e-6"] = val < 1e-6
    for rule in (spectral_grid, uniform_spectral_grid):
        # at omega = 0 each sector also holds the other's kernel vector
        for w, label in ((omega, "kernel"), (0.0, "extra kernel at omega=0")):
            grid = rule(w)
            u = half_density(grid) * eval_profile(w, grid)
            up = half_density(grid) * profile_derivative(w, grid.x)
            k_plus, k_minus = (up, 1j * u) if w else (1j * up, u)
            for sector, sign, k in (("plus", 1, k_plus), ("minus", -1, k_minus)):
                m = full_matrix(build_sector_operator(w, grid, sign))
                val = np.max(np.abs(m @ embed_conjugate_pair(k)))
                checks[f"{sector}-sector {label} ({rule.__name__}) = {val:.2e} < 1e-6"] = val < 1e-6

    defect = block_diagonalize_check(omega, Grid(26.0, 512))
    checks[f"similarity defect = {defect:.2e} < 1e-8"] = defect < 1e-8

    g0 = uniform_spectral_grid(0.0)
    u0 = eval_profile(0.0, g0)
    up0 = profile_derivative(0.0, g0.x)
    overlap = quadrature(np.conj(u0) * up0 - u0 * np.conj(up0), g0)
    checks[f"exclusion overlap = -2i within 1e-8"] = abs(overlap - (-2j)) < 1e-8

    val = generalized_mode_residual(omega, g)
    checks[f"generalized mode identity = {val:.2e} < 1e-5"] = val < 1e-5
    report(6, "kernel and block structure", checks)


OMEGA_SWEEP = (0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7, 0.9, -0.9)


def _isolated(omega, sign):
    # the isolated spectrum as `mtmlab sweep` and `mtmlab spectrum` compute it
    g = spectral_grid(omega)
    vals = sector_analysis(omega, g, sign).isolated
    kernel_idx = int(np.argmin(np.abs(vals))) if len(vals) else -1
    others = np.delete(vals, kernel_idx) if len(vals) else vals
    return g, vals, (vals[kernel_idx] if len(vals) else np.nan), others


def test_criterion_07_minus_sector_spectrum():
    checks = {}
    for omega in OMEGA_SWEEP:
        g, vals, kernel, others = _isolated(omega, -1)
        ok = len(vals) == 2 and abs(kernel) < 1e-6 and np.sign(others[0]) == np.sign(omega)
        checks[f"count/kernel/sign at omega={omega:+.1f}"] = bool(ok)

        zg = stretched_grid(omega, g)
        scaled = []
        for kind in ("sum_sector", "difference_sector"):
            op = build_schrodinger(SchrodingerProblem(kind, omega), zg)
            scaled += [(1.0 - omega**2) * v for v in isolated_spectrum(op)]
        agree = np.max(np.abs(np.sort(vals) - np.sort(scaled))) if len(scaled) == len(vals) else np.inf
        checks[f"scalar-form agreement at omega={omega:+.1f} ({agree:.1e})"] = agree < 1e-5

    # shooting cross-check against a converged dense reference (the shoot
    # side widens its own domain for slowly decaying near-edge modes)
    for omega in OMEGA_SWEEP:
        beta = np.sqrt(1.0 - omega**2)
        for kind in ("sum_sector", "difference_sector"):
            pr = SchrodingerProblem(kind, omega)
            shot = sturm_eigenvalues(pr)
            kappa = min(np.sqrt(np.maximum(1.0 - np.asarray(shot), 1e-4)))
            half = float(min(max(24.0, 9.0 / kappa), 120.0))
            dz = min(0.08 * beta, 0.12 * np.arccos(-omega) / 2.0)
            n = 128 * int(np.ceil(2.0 * half / dz / 128.0))
            dense = isolated_spectrum(build_schrodinger(pr, Grid(half, n)))
            agree = (
                np.max(np.abs(np.sort(shot) - np.sort(dense)))
                if len(dense) == len(shot)
                else np.inf
            )
            checks[f"shooting {kind} at omega={omega:+.1f} ({agree:.1e})"] = agree < 1e-5

    zg0 = stretched_grid(0.0, spectral_grid(0.0))
    vals0 = isolated_spectrum(build_schrodinger(SchrodingerProblem("sum_sector", 0.0), zg0))
    checks["zero-frequency ground state at 0 (1e-6)"] = (
        len(vals0) == 1 and abs(vals0[0]) < 1e-6
    )
    report(7, "minus-sector spectrum", checks)


def test_criterion_08_plus_sector_spectrum():
    checks = {}
    reported = []
    for omega in OMEGA_SWEEP:
        _, vals, kernel, others = _isolated(omega, +1)
        ok = len(vals) == 2 and abs(kernel) < 1e-6 and np.sign(others[0]) == -np.sign(omega)
        if abs(omega) <= 0.5:
            checks[f"count/kernel/sign at omega={omega:+.1f}"] = bool(ok)
        else:
            reported.append((omega, len(vals), bool(ok)))
    for omega, count, ok in reported:
        print(f"    reported (not asserted) omega={omega:+.1f}: "
              f"isolated count={count}, sign pattern={'ok' if ok else 'off'}")
    extra = {0.2: None, -0.2: None}
    for omega in extra:
        _, vals, kernel, others = _isolated(omega, +1)
        ok = len(vals) == 2 and abs(kernel) < 1e-6 and np.sign(others[0]) == -np.sign(omega)
        checks[f"count/kernel/sign at omega={omega:+.1f}"] = bool(ok)
    report(8, "plus-sector spectrum", checks)


def test_criterion_09_constraint_slopes():
    checks = {}
    for omega in (0.3, -0.3, 0.5, -0.5, 0.7, -0.7):
        g = spectral_grid(omega)
        for sign, tag in ((1, "plus"), (-1, "minus")):
            num = sigma_index(omega, g, sign)
            closed = sigma_closed_form(omega, sign)
            checks[f"sigma_{tag}(omega={omega:+.1f}) within 1e-3"] = abs(num - closed) < 1e-3
        checks[f"sign pattern at omega={omega:+.1f}"] = (
            np.sign(sigma_index(omega, g, +1)) == -np.sign(omega)
            and np.sign(sigma_index(omega, g, -1)) == np.sign(omega)
        )
    report(9, "constraint slopes", checks)


def test_criterion_10_constrained_positivity():
    checks = {}
    for omega in (0.0, 0.1, -0.1, 0.3, -0.3, 0.5, -0.5):
        val = constrained_min_eig(omega, spectral_grid(omega))
        checks[f"projected minimum at omega={omega:+.1f} = {val:.4f} > 0"] = val > 0.0
        if omega == 0.0:
            checks["zero-frequency margin regression"] = (
                abs(val - CONSTRAINED_MARGIN_ZERO) < 1e-8
            )
    report(10, "constrained positivity", checks)


def test_criterion_11_orbital_stability():
    checks = {}
    for omega in (0.0, 0.3, -0.3):
        sups = {}
        for delta in (1e-3, 1e-2):
            rec = stability_experiment(omega, delta, 50.0, seed=SEED, dt=1e-3, stride=500)
            sup = rec.measurements["sup_distance"]
            sups[delta] = sup
            checks[
                f"omega={omega:+.1f} delta={delta:.0e}: sup = {sup:.2e} <= {10 * delta:.0e}"
            ] = rec.verdicts["orbit_bound"] and sup <= 10.0 * delta
        ratio = sups[1e-2] / sups[1e-3]
        checks[f"omega={omega:+.1f}: linear response ratio = {ratio:.1f} in [5, 20]"] = (
            5.0 <= ratio <= 20.0
        )
    report(11, "orbital stability", checks)


def test_criterion_12_h1_boundedness():
    checks = {}
    for q_target in (0.05, 0.1, 0.2):
        rec = h1_bound_experiment(q_target, 100.0, seed=SEED, dt=1e-3, stride=2000)
        checks[f"Q={q_target}: bounded"] = rec.verdicts["h1_bounded"]
        checks[f"Q={q_target}: charge conserved"] = rec.verdicts["charge_conserved"]
    report(12, "global H1 boundedness", checks)

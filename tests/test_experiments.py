"""Orbital distance, stability and boundedness experiments, sweeps, records."""

import json

import numpy as np
import pytest

from mtmlab.conserved import charge, higher_charge
from mtmlab.evolve import EvolverConfig, evolve
from mtmlab.grid import FieldState, Grid, h1_norm_sq, l2_norm_sq, norms, quadrature
from mtmlab.soliton import SolitonParams, eval_profile, eval_soliton, recommended_grid
from mtmlab.experiments import (
    RunRecord,
    evolution_run,
    gaussian_data,
    h1_bound_experiment,
    omega_sweep,
    orbital_distance,
    random_h1_perturbation,
    stability_experiment,
)
from conftest import random_decaying_state, roll_state
from oracles import h1_norm_sq_physical, measured_interpolation_constant


class TestOrbitalDistance:
    def test_exact_orbit_point(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.3), soliton_grid)
        dist, alpha, beta = orbital_distance(state, 0.3)
        assert dist < 1e-10
        assert abs((alpha + np.pi) % (2.0 * np.pi) - np.pi) < 1e-8
        assert abs(beta) < 1e-5

    def test_shift_recovery(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.3, shift=1.0), soliton_grid)
        dist, _, beta = orbital_distance(state, 0.3)
        assert dist < 1e-8
        assert beta == pytest.approx(1.0, abs=1e-5)

    def test_phase_and_time_recovery(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.3, shift=-2.5, phase=0.7), soliton_grid, t=1.3)
        dist, alpha, beta = orbital_distance(state, 0.3)
        assert dist < 1e-8
        assert alpha == pytest.approx(0.7 + 0.3 * 1.3, abs=1e-6)
        assert beta == pytest.approx(-2.5, abs=1e-6)

    def test_orthogonal_perturbation_scaling(self, soliton_grid):
        g = soliton_grid
        omega = 0.3
        sol = eval_soliton(SolitonParams(omega), g)
        u = eval_profile(omega, g)
        from mtmlab.grid import differentiate

        up = differentiate(u, g)
        tangents = [(1j * u, 1j * np.conj(u)), (up, np.conj(up))]
        wu, wv = random_h1_perturbation(g, seed=11, size=1.0)
        weights = 1.0 + g.wavenumbers**2

        def h1ip(a, b, c, d):
            val = 0.0j
            for f, h in ((a, c), (b, d)):
                val += (g.dx / g.n) * np.sum(weights * np.fft.fft(f) * np.conj(np.fft.fft(h)))
            return val

        for ta, tb in tangents:
            coef = h1ip(wu, wv, ta, tb) / h1ip(ta, tb, ta, tb)
            wu = wu - coef.real * ta
            wv = wv - coef.real * tb
        nrm = np.sqrt(h1_norm_sq(wu, g) + h1_norm_sq(wv, g))
        wu, wv = wu / nrm, wv / nrm
        delta = 1e-3
        state = FieldState(g, sol.u + delta * wu, sol.v + delta * wv, 0.0)
        dist, _, _ = orbital_distance(state, omega)
        assert dist == pytest.approx(delta, rel=0.05)

    @pytest.mark.parametrize(
        "omega, grid",
        [
            (0.3, Grid(40.0, 1024)),
            (0.9, recommended_grid(0.9)),
            (-0.9, recommended_grid(-0.9)),
        ],
    )
    def test_sub_cell_shift_sweep(self, omega, grid):
        # the Newton ascent starts from the best grid shift, so every shift
        # inside one cell must be recovered to roundoff
        for j in range(41):
            shift = 1.0 + j * grid.dx / 40.0
            state = eval_soliton(SolitonParams(omega, shift=shift, phase=0.4), grid)
            dist, alpha, beta = orbital_distance(state, omega)
            assert abs(beta - shift) < 1e-12
            assert abs(alpha - 0.4) < 1e-12
            assert dist < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_distance_matches_physical_oracle(self, soliton_grid, seed):
        # the distance is the rectangle-rule H1 norm of the residual at the
        # returned phase and shift, the orbit point shifted by a Fourier phase
        g = soliton_grid
        sol = eval_soliton(SolitonParams(0.3, shift=0.7, phase=-1.1), g)
        noise = random_decaying_state(g, seed, amplitude=0.05)
        state = FieldState(g, sol.u + noise.u, sol.v + noise.v, 0.0)
        dist, alpha, beta = orbital_distance(state, 0.3)
        phi = eval_profile(0.3, g)
        shift = np.exp(1j * (alpha + g.wavenumbers * beta))
        orbit = np.fft.ifft(np.fft.fft(np.stack([phi, np.conj(phi)])) * shift)
        ref = h1_norm_sq_physical((state.u - orbit[0], state.v - orbit[1]), g)
        assert dist == pytest.approx(np.sqrt(ref), rel=1e-13, abs=0.0)

    def test_no_inverse_transform(self, soliton_grid, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("orbital_distance called np.fft.ifft")

        state = eval_soliton(SolitonParams(0.3, shift=1.0, phase=0.4), soliton_grid)
        monkeypatch.setattr(np.fft, "ifft", refuse)
        dist, alpha, beta = orbital_distance(state, 0.3)
        assert dist < 1e-10
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_three_transforms(self, soliton_grid, fft_calls):
        # the state, the profile pair and the correlation scan
        state = eval_soliton(SolitonParams(0.3, shift=1.0), soliton_grid)
        fft_calls.clear()
        orbital_distance(state, 0.3)
        assert fft_calls == {"fft": 3}

    def test_pseudometric_orbit_invariance(self, soliton_grid):
        sol = eval_soliton(SolitonParams(0.3), soliton_grid)
        bump = np.exp(-(soliton_grid.x**2))
        state = FieldState(soliton_grid, sol.u + 1e-2 * bump, sol.v - 2e-2j * bump, 0.0)
        moved = roll_state(state, cells=37, phase=0.9)
        d0 = orbital_distance(state, 0.3)[0]
        d1 = orbital_distance(moved, 0.3)[0]
        assert abs(d0 - d1) < 1e-8


class TestPerturbation:
    def test_h1_normalization_and_decay(self, soliton_grid):
        wu, wv = random_h1_perturbation(soliton_grid, seed=4, size=1e-2)
        total = h1_norm_sq(wu, soliton_grid) + h1_norm_sq(wv, soliton_grid)
        assert np.sqrt(total) == pytest.approx(1e-2, rel=1e-12)
        assert abs(wu[0]) < 1e-12
        assert abs(wv[0]) < 1e-12

    def test_seed_determinism(self, soliton_grid):
        a = random_h1_perturbation(soliton_grid, seed=4, size=1e-2)
        b = random_h1_perturbation(soliton_grid, seed=4, size=1e-2)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestStability:
    def test_unperturbed_soliton_stays_on_orbit(self):
        # at delta = 0 the distance floor is the integrator error, which at
        # this step size sits below the 1e-8 verdict line
        record = stability_experiment(0.3, 0.0, 2.0, seed=1, dt=1e-4, stride=2000)
        assert record.verdicts["orbit_bound"]
        assert record.measurements["sup_distance"] < 1e-8

    def test_small_perturbation_passes(self):
        record = stability_experiment(0.3, 1e-3, 5.0, seed=2, dt=1e-3, stride=500)
        assert record.passed
        assert record.measurements["sup_distance"] <= 1e-2
        assert record.measurements["drift_Q"] < 1e-10

    def test_reproducibility(self):
        a = stability_experiment(0.3, 1e-3, 1.0, seed=5, dt=1e-3, stride=500)
        b = stability_experiment(0.3, 1e-3, 1.0, seed=5, dt=1e-3, stride=500)
        assert a.series == b.series

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            stability_experiment(0.3, -1.0, 1.0, seed=0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="perturbation size must be nonnegative and finite"):
            stability_experiment(0.3, delta, 1.0, seed=0)


class TestEvolutionRun:
    def test_record_keys(self):
        g = Grid(35.0, 512)
        state = eval_soliton(SolitonParams(0.5), g)
        record, traj = evolution_run(
            "demo", state, EvolverConfig(dt=1e-3, t_end=0.2, snapshot_stride=50), 4, {"omega": 0.5},
        )
        assert list(record.series) == ["t", "Q", "P", "H", "R"]
        assert len(record.series["t"]) == len(traj.states) == 5
        assert record.config == {
            "omega": 0.5, "t_end": 0.2, "dt": 1e-3, "grid_L": 35.0, "grid_N": 512, "stride": 50,
        }
        assert record.verdicts == {"no_blowup": True, "charge_conserved": True}
        assert all(record.measurements[f"drift_{n}"] < 1e-8 for n in "QPHR")

    def test_blowup_branch(self):
        # overflow of the huge samples makes the first step non-finite
        g = Grid(10.0, 64)
        huge = np.full(g.n, 1e200, dtype=complex)
        state = FieldState(g, huge, huge.copy())
        config = EvolverConfig(dt=1e-3, t_end=1.0)
        record, traj = evolution_run("demo", state, config, None, {})
        assert traj is None
        assert record.verdicts == {"no_blowup": False}
        assert record.measurements["blowup_t"] == config.dt
        assert not record.passed


class TestH1Bound:
    def test_zero_data(self):
        record = h1_bound_experiment(0.0, 1.0, seed=0, dt=1e-3, stride=500)
        assert record.measurements["h1_sup"] == 0.0
        assert record.verdicts["h1_bounded"]

    def test_small_gaussian_data(self):
        record = h1_bound_experiment(0.1, 10.0, seed=3, dt=1e-3, stride=1000)
        assert record.passed
        assert record.measurements["h1_sup"] <= record.measurements["h1_ceiling"]
        assert "coercivity_gap" in record.measurements

    def test_norms_and_interpolation_constant_match_oracle(self):
        # the series are the per-snapshot sums of the component norms bit for
        # bit, and the interpolation constant and coercivity gap equal the
        # oracle's, which recomputes every component norm and derivative
        g = Grid(30.0, 512)
        record = h1_bound_experiment(0.1, 2.0, seed=3, grid=g, dt=1e-3, stride=500)
        config = EvolverConfig(dt=1e-3, t_end=2.0, snapshot_stride=500)
        states = evolve(gaussian_data(g, 0.1, 3), config).states
        assert record.series["H1_sq"] == [h1_norm_sq(s.u, g) + h1_norm_sq(s.v, g) for s in states]
        for p in (4, 6):
            assert record.series[f"L{p}"] == [
                float(np.real(quadrature(np.abs(s.u) ** p + np.abs(s.v) ** p, g))) for s in states
            ]
        cp = measured_interpolation_constant(states)
        q, r = charge(states[-1]), higher_charge(states[-1])
        u, v = states[-1].u, states[-1].v
        grad_sq = (h1_norm_sq(u, g) + h1_norm_sq(v, g)) - (l2_norm_sq(u, g) + l2_norm_sq(v, g))
        gap = r + cp * (q + q**3) - 0.5 * grad_sq
        # the record keeps the largest measured ratio itself, which is below 1
        assert record.measurements["interp_constant"] == max(
            norms(s)["interp_ratio"] for s in states)
        assert 0.0 < record.measurements["interp_constant"] < 1.0
        assert record.measurements["interp_constant"] == pytest.approx(cp, rel=1e-14, abs=0.0)
        assert record.measurements["coercivity_gap"] == pytest.approx(gap, rel=1e-14, abs=0.0)

    def test_charge_targeting(self):
        g = Grid(30.0, 512)

        state = gaussian_data(g, 0.2, seed=7)
        assert charge(state) == pytest.approx(0.2, rel=1e-10)

    @pytest.mark.parametrize("q_target", [np.nan, np.inf, -0.1])
    def test_bad_charge_refused_by_name(self, q_target):
        with pytest.raises(ValueError, match="charge must be nonnegative and finite"):
            gaussian_data(Grid(30.0, 512), q_target, seed=7)


class TestOmegaSweep:
    def test_small_sweep_all_checks(self):
        record = omega_sweep([0.3, -0.3], checks=("minus_sector", "plus_sector", "slope"))
        assert record.verdicts["minus_sector"]
        assert record.verdicts["plus_sector"]
        assert record.verdicts["slope"]
        assert record.verdicts["no_errors"]
        rows = record.tables["sweep"]
        assert {row["omega"] for row in rows} == {0.3, -0.3}

    def test_sweep_row_diagnostics(self):
        record = omega_sweep([0.3], grid_n=256, checks=("slope", "constrained"))
        assert record.verdicts["constrained"] and record.verdicts["slope"]
        row = record.tables["sweep"][0]
        assert 0.0 <= row["constrained_split_defect"] <= 1e-10
        for tag in ("plus", "minus"):
            assert 0.0 < row[f"parity_defect_{tag}"] < 1e-9
            assert row[f"sigma_{tag}_residual"] < 1e-10

    def test_near_edge_frequency_on_a_refined_lattice(self):
        # at omega = -0.999 the default 128-point lattice shows a negative
        # constrained minimum, a discretization failure (see CHANGES.md);
        # 256 points pass every check
        record = omega_sweep([-0.999], grid_n=256)
        checks = ("minus_sector", "plus_sector", "constrained", "slope", "no_errors")
        assert record.verdicts == dict.fromkeys(checks, True)
        row = record.tables["sweep"][0]
        assert row["constrained_min"] > 0.0 and row["constrained_split_defect"] <= 1e-10

    def test_check_selection(self):
        record = omega_sweep([0.3], checks=("minus_sector",))
        assert "slope" not in record.verdicts
        assert record.verdicts["minus_sector"]

    def test_unknown_check_refused(self):
        with pytest.raises(ValueError, match="minus_secotr"):
            omega_sweep([0.3], checks=("minus_sector", "minus_secotr"))

    def test_refused_frequency_stops_the_sweep_before_any_analysis(self, monkeypatch):
        from mtmlab import spectral

        analysed = []
        monkeypatch.setattr(spectral, "splitting_probe", lambda omega, g: analysed.append(omega))
        with pytest.raises(ValueError, match="omega"):
            omega_sweep([0.3, 1.5])
        assert analysed == []

    def test_failure_is_isolated_per_frequency(self, monkeypatch, tmp_path):
        from mtmlab import spectral
        from mtmlab.cli import main

        probe = spectral.splitting_probe

        def failing(omega, g):
            if omega == -0.7:
                raise spectral.OperatorConstructionError("parity defect (injected)")
            return probe(omega, g)

        complete = omega_sweep([0.3]).tables["sweep"][0]
        monkeypatch.setattr(spectral, "splitting_probe", failing)
        record = omega_sweep([-0.7, 0.3])
        failed, passed = record.tables["sweep"]
        assert set(failed) == {"omega", "error"}
        assert failed["omega"] == -0.7 and "injected" in failed["error"]
        assert passed == complete
        assert record.verdicts["no_errors"] is False
        assert record.passed is False

        out = tmp_path / "sweep"
        assert main(["sweep", "--omegas", "-0.7,0.3", "--out", str(out)]) == 1
        written = json.loads((out / "record.json").read_text())
        assert written["verdicts"]["no_errors"] is False
        assert written["tables"]["sweep"][0]["omega"] == -0.7


class TestRunRecord:
    def test_json_round_trip(self, tmp_path):
        record = RunRecord(
            kind="demo",
            config={"omega": 0.3},
            seed=1,
            series={"t": [0.0, 1.0], "Q": [2.0, 2.0]},
            measurements={"sup": 0.5},
            verdicts={"ok": True},
        )
        path = tmp_path / "record.json"
        record.to_json(path)
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert data["series"]["Q"] == [2.0, 2.0]

    def test_numpy_scalars_serialize(self, tmp_path):
        record = RunRecord(
            kind="demo", config={"n": np.int64(3)}, seed=None,
            measurements={"x": np.float64(0.5)}, verdicts={"ok": np.bool_(True)},
        )
        path = tmp_path / "record.json"
        record.to_json(path)
        data = json.loads(path.read_text())
        assert data["verdicts"]["ok"] is True and data["config"]["n"] == 3

    def test_failed_dump_leaves_no_file(self, tmp_path):
        record = RunRecord(kind="demo", config={"bad": object()}, seed=None)
        path = tmp_path / "record.json"
        with pytest.raises(TypeError):
            record.to_json(path)
        assert not path.exists()

    def test_series_validation(self):
        record = RunRecord(kind="demo", config={}, seed=None, series={"x": [np.nan]})
        with pytest.raises(ValueError):
            record.validate()

    def test_default_grid_rule(self):
        g = recommended_grid(0.9)
        beta = np.sqrt(1.0 - 0.81)
        assert g.half_length >= 30.0 / beta
        assert g.n % 2 == 0

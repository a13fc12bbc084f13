"""Riccati transmission coefficient and the explicit charge hierarchy."""

from dataclasses import astuple

import numpy as np
import pytest

from conftest import random_decaying_state, roll_state
from mtmlab.conserved import momentum
from mtmlab.evolve import EvolverConfig, evolve
from mtmlab.experiments import random_h1_perturbation
from mtmlab import scattering
from mtmlab.grid import FieldState, Grid, zero_state
from mtmlab.scattering import (
    HIERARCHY_Q_COEFF,
    HIERARCHY_R_COEFF,
    PoleEncounterError,
    explicit_In,
    hierarchy_relations,
    riccati_solve,
    write_scan_csv,
)
from mtmlab.soliton import SolitonParams, eval_soliton
from oracles import (
    FourierInterpolant,
    calibrate_hierarchy_constants,
    explicit_In_displayed,
    riccati_adaptive_start,
    riccati_oracle,
    sweep_sequential,
)


@pytest.fixture(scope="module")
def perturbed_trajectory(soliton_grid):
    """The omega = 0.5 soliton plus a seeded 1e-2 H1 perturbation, evolved to
    t = 1 with snapshots at t = 0 and 1."""
    base = eval_soliton(SolitonParams(0.5), soliton_grid)
    wu, wv = random_h1_perturbation(soliton_grid, 0, 1e-2)
    state = FieldState(soliton_grid, base.u + wu, base.v + wv, 0.0)
    return evolve(state, EvolverConfig(dt=1e-3, t_end=1.0, snapshot_stride=1000)).states


class TestFieldSampler:
    @pytest.mark.parametrize("n", [8, 640, 1024])
    def test_matches_direct_sum(self, n):
        g = Grid(40.0, n)
        nyquist = (-1.0) ** np.arange(n)
        u = np.exp(-g.x**2) * (1.0 + 0.3j) + 0.5 * nyquist
        v = 1.0 / np.cosh(g.x) + 0.2j * np.exp(-((g.x - 3.0) ** 2)) - 0.25j * nyquist
        at = scattering._field_sampler(u, v, g)
        assert np.max(np.abs(at(0.0) - np.stack([u, v]))) <= 1e-15 * n * np.max(np.abs(u))
        u_of, v_of = FourierInterpolant(u, g), FourierInterpolant(v, g)
        rng = np.random.default_rng(n)
        for s in rng.uniform(0.0, g.dx, 5):
            pu, pv = at(s)
            for j in rng.choice(n, size=min(n, 40), replace=False):
                assert abs(pu[j] - u_of(g.x[j] + s)) <= 1e-13 * np.max(np.abs(u))
                assert abs(pv[j] - v_of(g.x[j] + s)) <= 1e-13 * np.max(np.abs(v))


def _displayed_lax(u, v, lam):
    """A at every node as a (N, 2, 2) array, entry by entry from the module
    docstring's display."""
    k = 0.25 * (lam**-2 - lam**2)
    a = np.empty(u.shape + (2, 2), dtype=complex)
    a[:, 0, 0] = 1j * k + 0.5j * (np.abs(v) ** 2 - np.abs(u) ** 2)
    a[:, 0, 1] = -(1j / np.sqrt(2.0)) * (lam * np.conj(v) + np.conj(u) / lam)
    a[:, 1, 0] = -(1j / np.sqrt(2.0)) * (lam * v + u / lam)
    a[:, 1, 1] = -1j * k - 0.5j * (np.abs(v) ** 2 - np.abs(u) ** 2)
    return a


class TestLaxMatrix:
    @pytest.mark.parametrize("lam", [0.05, 0.8, 20.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_entries_match_displayed_matrix(self, monkeypatch, seed, lam):
        g = Grid(30.0, 512)
        state = random_decaying_state(g, seed=seed)
        u, v = state.u, state.v
        a = _displayed_lax(u, v, lam)
        scale = np.max(np.abs(a))
        diag, low = scattering._lax(u, v, lam)
        assert np.max(np.abs(diag - a[:, 0, 0])) <= 1e-15 * scale
        assert np.max(np.abs(low - a[:, 1, 0])) <= 1e-15 * scale
        # traceless and skew-Hermitian, the upper entry -conj(low)
        assert np.max(np.abs(a[:, 0, 0] + a[:, 1, 1])) <= 1e-15 * scale
        assert np.max(np.abs(a + np.conj(np.swapaxes(a, 1, 2)))) <= 1e-15 * scale
        assert np.max(np.abs(a[:, 0, 1] + np.conj(low))) <= 1e-15 * scale

        # the Riccati right-hand side of _refine_cell, caught at solve_ivp
        class Caught(Exception):
            pass

        def catch(fun, *args, **kwargs):
            raise Caught(fun)

        monkeypatch.setattr(scattering, "solve_ivp", catch)
        fields = np.stack([u, v])
        rng = np.random.default_rng(seed)
        for j in rng.choice(g.n, size=16, replace=False):
            with pytest.raises(Caught) as caught:
                scattering._refine_cell(lambda s: fields, lam, g, j, 0.0)
            rhs = caught.value.args[0]
            nu = complex(*rng.standard_normal(2))
            (a11, a12), (a21, a22) = a[j]
            expected = a21 + (a22 - a11) * nu - a12 * nu * nu
            assert abs(rhs(0.0, [nu])[0] - expected) <= 1e-14 * scale * (1.0 + abs(nu)) ** 2

        # the screen's Lipschitz constant sum |fft(low)| / N is the former
        # sum |fft(lam v + u/lam)| / (N sqrt 2)
        lip = np.sum(np.abs(np.fft.fft(low))) / g.n
        former = np.sum(np.abs(np.fft.fft(lam * v + u / lam))) / (g.n * np.sqrt(2.0))
        assert abs(lip - former) <= 1e-15 * former
        # and _pole_candidates reads it: with |phi_1| = m on every node, a
        # cell is flagged iff m - lip dx / 2 <= 1 / NU_BLOWUP
        edge = 0.5 * lip * g.dx + 1.0 / scattering.NU_BLOWUP
        for m, count in ((edge * (1.0 - 1e-12), g.n - 1), (edge * (1.0 + 1e-12), 0)):
            flagged = scattering._pole_candidates(low, g, np.full(g.n, m))
            assert flagged.size == count


class TestRiccati:
    def test_zero_field(self):
        sample = riccati_solve(zero_state(Grid(20.0, 256)), 0.7)
        assert np.max(np.abs(sample.nu)) == 0.0
        assert np.max(np.abs(sample.chi)) == 0.0
        assert sample.log_a == 0.0
        assert sample.k == pytest.approx(0.25 * (0.7**-2 - 0.7**2))

    def test_lambda_window(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        with pytest.raises(ValueError):
            riccati_solve(state, 0.01)
        with pytest.raises(ValueError):
            riccati_solve(state, 25.0)

    def test_boundary_decay(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        sample = riccati_solve(state, 0.7)
        assert abs(sample.nu[0]) < 1e-8
        assert abs(sample.chi[0]) < 1e-8

    def test_small_field_quadratic_scaling(self, soliton_grid):
        base = eval_soliton(SolitonParams(0.5), soliton_grid)
        vals = []
        for eps in (1e-3, 2e-3):
            state = FieldState(soliton_grid, eps * base.u, eps * base.v, 0.0)
            vals.append(abs(riccati_solve(state, 0.7).log_a))
        assert 3.5 < vals[1] / vals[0] < 4.5

    def test_invariance_along_trajectory(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        traj = evolve(state, EvolverConfig(dt=1e-3, t_end=2.0, snapshot_stride=1000))
        vals = [riccati_solve(s, 0.7).log_a for s in traj.states]
        assert max(abs(v - vals[0]) for v in vals) < 1e-5

    @pytest.mark.parametrize("lam", [0.7, 0.05, 20.0])
    def test_tolerance_independence(self, soliton_grid, monkeypatch, lam):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        s1 = riccati_solve(state, lam)
        monkeypatch.setattr(scattering, "RICCATI_RTOL", 1e-12)
        monkeypatch.setattr(scattering, "RICCATI_ATOL", 1e-14)
        s2 = riccati_solve(state, lam)
        assert abs(s1.log_a - s2.log_a) < 1e-8
        assert np.max(np.abs(s1.nu - s2.nu)) <= 1e-9

    def test_pole_encounter(self):
        g = Grid(30.0, 1024)
        strong = 2.0 / np.cosh(g.x)
        state = FieldState(g, strong, strong.copy())
        with pytest.raises(PoleEncounterError) as err:
            riccati_solve(state, 1.0)
        assert np.isfinite(err.value.position)
        with pytest.raises(PoleEncounterError) as ref:
            riccati_oracle(state, 1.0)
        assert abs(err.value.position - ref.value.position) <= 1e-7
        # the Lipschitz screen sends the cell holding the pole to the Riccati solve
        sample = scattering._field_sampler(state.u, state.v, g)
        alpha, gamma, _ = scattering._cell_propagators(sample, 1.0, g)
        phi1, _ = scattering._sweep(alpha, gamma)
        pole_cell = int(np.searchsorted(g.x, ref.value.position)) - 1
        low = scattering._lax(state.u, state.v, 1.0)[1]
        assert pole_cell in scattering._pole_candidates(low, g, phi1)

    def test_flagged_cells_without_pole(self, monkeypatch):
        # next to the pole at lam = 1, |phi_1| dips low enough that the screen
        # flags cells, and the Riccati re-solve crosses them without an event
        g = Grid(30.0, 1024)
        strong = 2.0 / np.cosh(g.x)
        state = FieldState(g, strong, strong.copy())
        lam = 0.98
        sample = scattering._field_sampler(state.u, state.v, g)
        alpha, gamma, screen_nfev = scattering._cell_propagators(sample, lam, g)
        phi1, _ = scattering._sweep(alpha, gamma)
        flagged = scattering._pole_candidates(scattering._lax(state.u, state.v, lam)[1], g, phi1)
        assert flagged.size > 0
        refined = []
        refine = scattering._refine_cell

        def recording(sample, lam, grid, j, nu0):
            refined.append(j)
            return refine(sample, lam, grid, j, nu0)

        monkeypatch.setattr(scattering, "_refine_cell", recording)
        fast = riccati_solve(state, lam)
        assert refined == flagged.tolist()
        assert fast.nfev > screen_nfev
        # the default oracle tolerances leave ~1e-8 here, where |nu| reaches 24
        ref = riccati_oracle(state, lam, rtol=1e-12, atol=1e-14)
        assert abs(fast.log_a - ref.log_a) <= 1e-9
        assert np.max(np.abs(fast.nu - ref.nu)) <= 1e-8

    # the window edges turn k dx = 7.8 rad per cell, where the propagators
    # are unitary to the solve's tolerance rather than to roundoff
    @pytest.mark.parametrize(
        "lam, defect",
        [(0.5, 1e-12), (0.8, 1e-12), (1.25, 1e-12), (2.0, 1e-12),
         (0.05, scattering.RICCATI_RTOL), (20.0, scattering.RICCATI_RTOL)],
    )
    def test_cell_propagators_unitary_and_screen_clear(self, perturbed_trajectory, lam, defect):
        g = perturbed_trajectory[0].grid
        for state in perturbed_trajectory:
            sample = scattering._field_sampler(state.u, state.v, g)
            alpha, gamma, _ = scattering._cell_propagators(sample, lam, g)
            assert alpha.shape == gamma.shape == (g.n - 1,)
            assert np.max(np.abs(np.abs(alpha) ** 2 + np.abs(gamma) ** 2 - 1.0)) <= defect
            phi1, _ = scattering._sweep(alpha, gamma)
            low = scattering._lax(state.u, state.v, lam)[1]
            assert scattering._pole_candidates(low, g, phi1).size == 0

    def test_nfev_does_not_depend_on_lambda(self, perturbed_trajectory):
        # one DOP853 step over the cell: its 12 evaluations and the initial one
        counts = {
            riccati_solve(state, lam).nfev
            for lam in (0.5, 0.8, 1.25, 2.0)
            for state in perturbed_trajectory
        }
        assert counts == {13}

    @pytest.mark.parametrize("cells", [1, 2, 3, 1023])
    def test_sweep_matches_sequential(self, cells):
        z = np.random.default_rng(cells).standard_normal((4, cells))
        alpha, gamma = z[0] + 1j * z[1], z[2] + 1j * z[3]
        norm = np.sqrt(np.abs(alpha) ** 2 + np.abs(gamma) ** 2)
        alpha, gamma = alpha / norm, gamma / norm
        for fast, ref in zip(scattering._sweep(alpha, gamma), sweep_sequential(alpha, gamma)):
            assert fast.shape == (cells + 1,)
            assert np.max(np.abs(fast - ref)) <= 1e-13

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.8, 1.25, 2.0, 20.0])
    def test_matches_adaptive_start_route(self, perturbed_trajectory, lam):
        for state in perturbed_trajectory:
            fast = riccati_solve(state, lam)
            ref = riccati_adaptive_start(state, lam)
            assert abs(fast.log_a - ref.log_a) <= 1e-12
            assert np.max(np.abs(fast.nu - ref.nu)) <= 1e-12

    def test_matches_rk45_oracle(self, perturbed_trajectory):
        for lam in (0.5, 0.8, 1.25, 2.0):
            for state in perturbed_trajectory:
                fast = riccati_solve(state, lam)
                ref = riccati_oracle(state, lam)
                assert abs(fast.log_a - ref.log_a) <= 1e-9
                assert np.max(np.abs(fast.nu - ref.nu)) <= 1e-8

    def test_scan_csv(self, tmp_path, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        sample = riccati_solve(state, 0.8)
        path = tmp_path / "scan.csv"
        # a numpy float is written as a plain number, like a Python float
        write_scan_csv(path, [(sample, 0.0), (sample, np.float64(0.0))])
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,re_log_a,im_log_a,t"
        assert len(lines) == 3 and lines[1] == lines[2] and lines[2].endswith(",0.0")


class TestHierarchy:
    def test_zero_field(self):
        state = zero_state(Grid(20.0, 256))
        for n in (0, 2, -2, 4, -4):
            assert explicit_In(state, n) == 0.0
        report = hierarchy_relations(state)
        assert max(astuple(report)) == 0.0

    def test_unsupported_index(self):
        with pytest.raises(ValueError):
            explicit_In(zero_state(Grid(20.0, 256)), 3)

    def test_matches_displayed_formulas(self):
        # I_-2 and I_-4 come from the I_2 and I_4 densities by reflection
        g = Grid(30.0, 1024)
        for seed in range(12):
            state = random_decaying_state(g, seed=seed)
            for n in scattering._SUPPORTED_N:
                ref = explicit_In_displayed(state, n)
                assert abs(explicit_In(state, n) - ref) <= 1e-15 * abs(ref)

    def test_charge_equivalence_on_soliton(self):
        g = Grid(30.0, 1024)
        state = eval_soliton(SolitonParams(0.0), g)
        assert abs(explicit_In(state, 0) - np.pi) < 1e-8

    def test_momentum_pairing_random_fields(self):
        g = Grid(30.0, 2048)
        for seed in range(4):
            state = random_decaying_state(g, seed=seed)
            i2 = explicit_In(state, 2)
            im2 = explicit_In(state, -2)
            assert abs(i2 + im2 + 2j * momentum(state)) < 1e-8

    def test_relations_random_fields(self):
        g = Grid(30.0, 2048)
        for seed in range(6):
            report = hierarchy_relations(random_decaying_state(g, seed=seed))
            assert max(astuple(report)) < 1e-6

    def test_relations_on_soliton(self):
        g = Grid(30.0, 2048)
        report = hierarchy_relations(eval_soliton(SolitonParams(0.5), g))
        assert max(astuple(report)) < 1e-6

    def test_gauge_invariance_of_residuals(self):
        g = Grid(30.0, 1024)
        state = random_decaying_state(g, seed=9)
        moved = roll_state(state, 41, 1.1)
        a = hierarchy_relations(state)
        b = hierarchy_relations(moved)
        assert abs(a.higher_residual - b.higher_residual) < 1e-10
        assert abs(a.momentum_residual - b.momentum_residual) < 1e-10

    def test_calibration_matches_frozen_constants(self):
        g = Grid(30.0, 1024)
        states = [random_decaying_state(g, seed=s) for s in range(10, 16)]
        c_r, c_q, resid = calibrate_hierarchy_constants(states)
        assert abs(c_r - HIERARCHY_R_COEFF) < 1e-10
        assert abs(c_q - HIERARCHY_Q_COEFF) < 1e-10
        assert resid < 1e-10

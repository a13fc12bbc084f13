"""Conserved functionals: closed-form anchors, frozen oracle regressions,
symmetry invariances, and the local balance law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_decaying_state, roll_state
from mtmlab.conserved import (
    balance_residual,
    charge,
    density_flux,
    evaluate_all,
    hamiltonian,
    higher_charge,
    lyapunov,
    momentum,
    write_series_csv,
)
from mtmlab.evolve import EvolverConfig, evolve, step
from mtmlab.grid import FieldState, Grid, quadrature, zero_state
from mtmlab.soliton import SolitonParams, eval_soliton, residual_second_order
from oracles import hermitian_densities

# high-resolution quadrature oracle values (N = 4096, L = 40)
SOLITON_H_HALF = -1.7320508075688779  # omega = 0.5; equals -2 sqrt(1 - omega^2)
SOLITON_R_HALF = -0.6141848493043784  # omega = 0.5
SOLITON_R_ZERO = -1.5707963267948966  # omega = 0; equals -pi/2


@pytest.fixture(scope="module")
def soliton_half(soliton_grid):
    return eval_soliton(SolitonParams(0.5), soliton_grid)


class TestCharge:
    def test_soliton_values(self, soliton_grid, soliton_half):
        zero = eval_soliton(SolitonParams(0.0), Grid(30.0, 1024))
        assert charge(zero) == pytest.approx(np.pi, abs=1e-8)
        assert charge(soliton_half) == pytest.approx(2.0 * np.pi / 3.0, abs=1e-8)

    def test_zero_field(self):
        assert charge(zero_state(Grid(10.0, 64))) == 0.0


class TestMomentum:
    def test_stationary_soliton(self, soliton_half):
        assert abs(momentum(soliton_half)) < 1e-10

    def test_plane_wave_envelope(self):
        g = Grid(20.0, 1024)
        k = 2.0 * np.pi / g.half_length
        state = FieldState(g, np.exp(1j * k * g.x) * np.exp(-(g.x**2)), np.zeros(g.n))
        assert momentum(state) == pytest.approx(k * np.sqrt(np.pi / 2.0), abs=1e-8)

    def test_zero_field(self):
        assert momentum(zero_state(Grid(10.0, 64))) == 0.0

    def test_reflection_swap_flips_sign(self, soliton_grid):
        state = random_decaying_state(soliton_grid, seed=8)
        reflect = lambda f: np.roll(f[::-1], 1)
        mirrored = FieldState(soliton_grid, reflect(state.v), reflect(state.u), 0.0)
        assert momentum(mirrored) == pytest.approx(-momentum(state), abs=1e-10)


class TestHamiltonian:
    def test_zero_field(self):
        assert hamiltonian(zero_state(Grid(10.0, 64))) == 0.0

    def test_equal_real_components(self):
        # u = v = g real: transport terms cancel pointwise, leaving
        # integral of (-2 g^2 + 2 g^4)
        g = Grid(20.0, 1024)
        gauss = np.exp(-(g.x**2))
        state = FieldState(g, gauss, gauss.copy())
        expected = -2.0 * np.sqrt(np.pi / 2.0) + 2.0 * np.sqrt(np.pi / 4.0)
        assert hamiltonian(state) == pytest.approx(expected, abs=1e-8)

    def test_soliton_regression(self, soliton_half):
        assert hamiltonian(soliton_half) == pytest.approx(SOLITON_H_HALF, abs=1e-8)
        assert SOLITON_H_HALF == pytest.approx(-2.0 * np.sqrt(0.75), abs=1e-12)


class TestHigherCharge:
    def test_zero_field(self):
        assert higher_charge(zero_state(Grid(10.0, 64))) == 0.0

    def test_real_gaussian_single_component(self):
        # real u, v = 0: only the |u_x|^2 term survives
        g = Grid(20.0, 1024)
        state = FieldState(g, np.exp(-(g.x**2)), np.zeros(g.n))
        assert higher_charge(state) == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-8)

    def test_soliton_regressions(self, soliton_half):
        assert higher_charge(soliton_half) == pytest.approx(SOLITON_R_HALF, abs=1e-8)
        zero = eval_soliton(SolitonParams(0.0), Grid(30.0, 1024))
        assert higher_charge(zero) == pytest.approx(SOLITON_R_ZERO, abs=1e-8)
        assert SOLITON_R_ZERO == pytest.approx(-np.pi / 2.0, abs=1e-12)


class TestLyapunov:
    def test_zero_field(self):
        assert lyapunov(zero_state(Grid(10.0, 64)), 0.4) == 0.0

    def test_additivity(self, soliton_half):
        val = lyapunov(soliton_half, 0.5)
        assert val == higher_charge(soliton_half) + 0.75 * charge(soliton_half)

    def test_criticality_via_stationary_system(self, soliton_grid):
        # the Euler-Lagrange system of the combination is the second-order
        # stationary system, which the exact pair satisfies
        from mtmlab.soliton import eval_profile

        u = eval_profile(0.5, soliton_grid)
        assert residual_second_order(u, np.conj(u), 0.75, soliton_grid) < 1e-6


class TestDensityFlux:
    def test_density_integrates_to_charge(self, soliton_grid):
        state = random_decaying_state(soliton_grid, seed=3)
        rho, _ = density_flux(state)
        assert quadrature(rho, soliton_grid).real == pytest.approx(
            higher_charge(state), abs=1e-12
        )

    def test_stationary_soliton_flux_vanishes(self, soliton_half):
        _, flux = density_flux(soliton_half)
        assert np.max(np.abs(flux)) < 1e-10

    def test_zero_field(self):
        rho, flux = density_flux(zero_state(Grid(10.0, 64)))
        assert np.max(np.abs(rho)) == 0.0
        assert np.max(np.abs(flux)) == 0.0

    def test_pair_is_differentiated_once(self, soliton_half, fft_calls):
        fft_calls.clear()
        density_flux(soliton_half)
        assert fft_calls == {"fft": 1, "ifft": 1}


class TestEvaluateAll:
    def test_one_transform_pair_per_derivative_functional(self, soliton_half, fft_calls):
        # P, H and R each differentiate (u, v) as one stack; Q needs none
        fft_calls.clear()
        values = evaluate_all(soliton_half)
        assert fft_calls == {"fft": 3, "ifft": 3}
        assert (values.Q, values.P, values.H, values.R) == (
            charge(soliton_half), momentum(soliton_half),
            hamiltonian(soliton_half), higher_charge(soliton_half))


def _oracle_states():
    g = Grid(40.0, 1024)
    solitons = [eval_soliton(SolitonParams(omega), g) for omega in (0.0, 0.5, -0.7)]
    return solitons + [random_decaying_state(g, seed=seed) for seed in range(6)]


class TestHermitianOracle:
    """The real-current densities against the complex Hermitian ones they
    replace.  Integrals compare relative to max(1, |value|), the scale of
    roundoff in a sum of O(1) terms (H of a random state is ~1e-3 from
    terms ~1e-1)."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(state, hermitian_densities(state)) for state in _oracle_states()]

    def test_oracle_imaginary_residue_vanishes(self, cases):
        # each Hermitian combination is real up to roundoff
        for state, dens in cases:
            for key in ("P", "H", "rho"):
                val = quadrature(dens[key], state.grid)
                assert abs(val.imag) <= 1e-10 * max(1.0, abs(val.real))
            bound = max(1.0, *(float(np.max(np.abs(dens[k]))) for k in ("rho", "flux")))
            for key in ("rho", "flux"):
                assert np.max(np.abs(dens[key].imag)) <= 1e-10 * bound

    def test_functionals_match_oracle(self, cases):
        for state, dens in cases:
            assert charge(state) == quadrature(dens["Q"], state.grid).real
            for fn, key in ((momentum, "P"), (hamiltonian, "H"), (higher_charge, "rho")):
                ref = quadrature(dens[key], state.grid).real
                assert abs(fn(state) - ref) <= 1e-15 * max(1.0, abs(ref))

    def test_density_and_flux_match_oracle(self, cases):
        for state, dens in cases:
            rho, flux = density_flux(state)
            assert rho.dtype == flux.dtype == np.float64
            assert np.max(np.abs(rho - dens["rho"].real)) <= 1e-14
            assert np.max(np.abs(flux - dens["flux"].real)) <= 1e-14


@pytest.fixture(scope="module")
def evolved_state(soliton_grid):
        # a perturbed soliton: the pure soliton has a static density and a
    # vanishing flux, which makes the residual degenerate at roundoff
    from mtmlab.experiments import random_h1_perturbation

    base = eval_soliton(SolitonParams(0.5), soliton_grid)
    wu, wv = random_h1_perturbation(soliton_grid, seed=123, size=1e-2)
    state = FieldState(soliton_grid, base.u + wu, base.v + wv, 0.0)
    return evolve(state, EvolverConfig(dt=1e-3, t_end=0.5, snapshot_stride=500)).final


class TestBalanceLaw:

    def test_residual_small_and_second_order(self, evolved_state):
        residues = []
        for dt in (1e-3, 5e-4):
            s1 = step(evolved_state, dt)
            s2 = step(s1, dt)
            residues.append(balance_residual([evolved_state, s1, s2]))
        assert residues[0] < 1e-4
        assert residues[0] / residues[1] > 3.5

    def test_static_zero_field(self):
        g = Grid(10.0, 64)
        snaps = [zero_state(g, t) for t in (0.0, 0.1, 0.2)]
        assert balance_residual(snaps) == 0.0

    def test_argument_errors(self, soliton_grid):
        g2 = Grid(10.0, 64)
        a = zero_state(soliton_grid, 0.0)
        b = zero_state(soliton_grid, 0.1)
        with pytest.raises(ValueError):
            balance_residual([a, b])
        with pytest.raises(ValueError):
            balance_residual([a, b, zero_state(g2, 0.2)])
        with pytest.raises(ValueError):
            balance_residual([a, b, zero_state(soliton_grid, 0.35)])


class TestSymmetryInvariance:
    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.integers(-200, 200),
        phase=st.floats(-np.pi, np.pi, allow_nan=False),
    )
    def test_gauge_translation_invariance(self, cells, phase):
        g = Grid(30.0, 512)
        state = random_decaying_state(g, seed=17)
        moved = roll_state(state, cells, phase)
        for fn in (charge, momentum, hamiltonian, higher_charge):
            assert fn(moved) == pytest.approx(fn(state), abs=1e-10)


class TestSeriesOutput:
    def test_csv_header_and_rows(self, tmp_path, soliton_half):
        sets = [evaluate_all(soliton_half)]
        path = tmp_path / "series.csv"
        write_series_csv(path, sets, omega=0.5)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,Q,P,H,R,Lambda"
        row = [float(tok) for tok in lines[1].split(",")]
        assert row[1] == pytest.approx(2.0 * np.pi / 3.0, abs=1e-8)
        assert row[5] == pytest.approx(row[4] + 0.75 * row[1], abs=1e-12)

"""Soliton profiles, transforms, residuals, kernel fields."""

import numpy as np
import pytest

from mtmlab.grid import Grid, differentiate, quadrature
from mtmlab.soliton import (
    SolitonParams,
    eval_profile,
    eval_soliton,
    profile,
    profile_absq,
    profile_derivative,
    recommended_grid,
    residual_first_order,
    residual_second_order,
    zero_mode_fields,
)

from oracles import omega_derivative

# boosted-soliton invariants have no closed forms here; frozen from the
# N = 4096, L = 40 quadrature oracle
BOOSTED_Q = 2.094395102393196
BOOSTED_P = -0.5447047794019223
BOOSTED_H = -1.8156825980064073


class TestProfile:
    def test_peak_values(self):
        # closed form at the origin reduces to sqrt(1 - omega)
        assert profile(0.0, np.array([0.0]))[0] == pytest.approx(1.0)
        assert profile(0.5, np.array([0.0]))[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("omega", [-0.8, 0.0, 0.8])
    def test_modulus_closed_form(self, omega):
        g = recommended_grid(omega)
        u = eval_profile(omega, g)
        assert np.max(np.abs(np.abs(u) ** 2 - profile_absq(omega, g.x))) < 1e-12

    @pytest.mark.parametrize("omega", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_l2_mass(self, omega):
        g = recommended_grid(omega)
        u = eval_profile(omega, g)
        val = float(np.real(quadrature(np.abs(u) ** 2, g)))
        assert val == pytest.approx(np.arccos(omega), abs=1e-8)

    def test_analytic_derivative(self):
        g = Grid(30.0, 1024)
        u = eval_profile(0.4, g)
        assert np.max(np.abs(profile_derivative(0.4, g.x) - differentiate(u, g))) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            profile(1.0, np.zeros(4))


class TestResiduals:
    def test_first_order_on_exact_profile(self):
        g = Grid(30.0, 1024)
        assert residual_first_order(eval_profile(0.3, g), 0.3, g) < 1e-8

    def test_first_order_zero_profile(self):
        g = Grid(30.0, 256)
        assert residual_first_order(np.zeros(g.n), 0.3, g) == 0.0

    def test_first_order_perturbation_scale(self):
        g = Grid(30.0, 1024)
        u = eval_profile(0.3, g) + 1e-3 / np.cosh(g.x)
        assert 1e-4 < residual_first_order(u, 0.3, g) < 1e-2

    def test_second_order_on_exact_pair(self):
        g = Grid(30.0, 1024)
        u = eval_profile(0.3, g)
        assert residual_second_order(u, np.conj(u), 1.0 - 0.09, g) < 1e-6

    def test_second_order_parameter_offset(self):
        g = Grid(30.0, 1024)
        u = eval_profile(0.3, g)
        res = residual_second_order(u, np.conj(u), 1.0 - 0.09 + 0.1, g)
        expected = 0.1 * np.max(np.abs(u))
        assert expected / 2.0 < res < expected * 2.0

    def test_second_order_zero_fields(self):
        g = Grid(30.0, 256)
        z = np.zeros(g.n)
        assert residual_second_order(z, z, 0.75, g) == 0.0


class TestSolitonOrbit:
    def test_stationary_identity_transform(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        u = eval_profile(0.5, soliton_grid)
        assert np.max(np.abs(state.u - u)) == 0.0
        assert np.max(np.abs(state.v - np.conj(u))) == 0.0

    def test_half_turn_phase_negates(self, soliton_grid):
        base = eval_soliton(SolitonParams(0.5), soliton_grid)
        flipped = eval_soliton(SolitonParams(0.5, phase=np.pi), soliton_grid)
        assert np.max(np.abs(flipped.u + base.u)) < 1e-14
        assert np.max(np.abs(flipped.v + base.v)) < 1e-14

    def test_transform_group_composition(self, soliton_grid):
        # applying (shift, phase) then (shift', phase') equals applying the sums
        direct = eval_soliton(SolitonParams(0.4, shift=1.3 + 0.9, phase=0.7 - 0.4), soliton_grid)
        via = profile(0.4, soliton_grid.x + 1.3 + 0.9) * np.exp(1j * (0.7 - 0.4))
        assert np.max(np.abs(direct.u - via)) < 1e-14

    def test_boosted_charges_regression(self, soliton_grid):
        import mtmlab.conserved as C

        g = Grid(40.0, 4096)
        state = eval_soliton(SolitonParams(0.5, speed=0.3), g)
        assert C.charge(state) == pytest.approx(BOOSTED_Q, abs=1e-10)
        assert C.momentum(state) == pytest.approx(BOOSTED_P, abs=1e-10)
        assert C.hamiltonian(state) == pytest.approx(BOOSTED_H, abs=1e-10)

    def test_speed_bound(self):
        with pytest.raises(ValueError):
            SolitonParams(0.5, speed=1.0)
        with pytest.raises(ValueError):
            SolitonParams(1.1)


class TestZeroModes:
    def test_gauge_mode_at_origin(self):
        g = Grid(30.0, 1024)
        modes = zero_mode_fields(0.0, g)
        mid = g.n // 2
        assert g.x[mid] == pytest.approx(0.0)
        expected = np.array([1j, 1j, -1j, -1j])
        assert np.max(np.abs(modes["gauge"][:, mid] - expected)) < 1e-12

    def test_translation_mode_is_derivative(self):
        g = Grid(30.0, 1024)
        modes = zero_mode_fields(0.4, g)
        up = differentiate(eval_profile(0.4, g), g)
        assert np.max(np.abs(modes["translation"][0] - up)) == 0.0

    def test_kernel_overlap_value(self):
        g = Grid(30.0, 1024)
        u0 = eval_profile(0.0, g)
        up0 = differentiate(u0, g)
        overlap = quadrature(np.conj(u0) * up0 - u0 * np.conj(up0), g)
        assert abs(overlap - (-2j)) < 1e-8


class TestOmegaDerivative:
    def test_mass_slope_consistency(self):
        # chain rule check: -2 omega converts the Omega-derivative back to
        # the omega-derivative, and the profile mass is arccos(omega); the
        # doubled two-component mass then slopes at -2 / sqrt(1 - omega^2)
        omega = 0.5
        g = Grid(35.0, 1024)
        du = omega_derivative(omega, g)
        u = eval_profile(omega, g)
        single = -2.0 * omega * 2.0 * float(np.real(quadrature(np.conj(u) * du, g)))
        assert single == pytest.approx(-1.0 / np.sqrt(1 - omega**2), abs=1e-4)
        assert 2.0 * single == pytest.approx(-2.0 / np.sqrt(1 - omega**2), abs=2e-4)

    def test_richardson_residual_second_order(self):
        g = Grid(35.0, 512)
        _, r1 = omega_derivative(0.5, g, step=4e-2, return_residual=True)
        _, r2 = omega_derivative(0.5, g, step=2e-2, return_residual=True)
        assert r1 / r2 > 3.9

    def test_degenerate_parameter(self):
        g = Grid(30.0, 256)
        with pytest.raises(ValueError):
            omega_derivative(0.0, g)
        with pytest.raises(ValueError):
            omega_derivative(5e-4, g)

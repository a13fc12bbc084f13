"""Split-step evolver: exactness properties, convergence order, invariants."""

import numpy as np
import pytest

from mtmlab.conserved import charge, higher_charge
from mtmlab.evolve import BlowUpError, EvolverConfig, Trajectory, _linear_tables, evolve, step
from mtmlab.experiments import perturbed_soliton
from mtmlab.grid import FieldState, Grid, zero_state
from mtmlab.soliton import SolitonParams, eval_soliton

from oracles import strang_oracle


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            EvolverConfig(dt=1e-3, t_end=-1.0)
        with pytest.raises(ValueError):
            EvolverConfig(dt=1e-3, t_end=1.0, snapshot_stride=0)
        with pytest.raises(ValueError, match="t_end"):
            EvolverConfig(dt=0.3, t_end=1.0)  # not a whole number of steps
        for t_end in (np.inf, np.nan):
            with pytest.raises(ValueError, match="t_end must be nonnegative and finite"):
                EvolverConfig(dt=1e-3, t_end=t_end)

    @pytest.mark.parametrize("dt", [np.inf, np.nan, -np.inf])
    def test_non_finite_step_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            EvolverConfig(dt=dt, t_end=1.0)

    @pytest.mark.parametrize("dt", [1e300, 3.0])
    def test_step_longer_than_the_run_refused(self, dt):
        # t_end / dt rounds to 0 steps, which would end the run at t = 0
        with pytest.raises(ValueError, match="takes no step"):
            EvolverConfig(dt=dt, t_end=1.0)
        assert EvolverConfig(dt=dt, t_end=0.0).t_end == 0.0  # a zero-length run stays valid

    def test_uncountable_step_count_refused(self):
        # a subnormal dt makes t_end / dt overflow to inf
        with pytest.raises(ValueError, match="takes too many steps"):
            EvolverConfig(dt=1e-320, t_end=1.0)

    @pytest.mark.parametrize("stride", [1.5, 2.0, "2"])
    def test_non_integer_stride_refused(self, stride):
        with pytest.raises(ValueError, match="snapshot stride must be an integer"):
            EvolverConfig(dt=1e-3, t_end=1.0, snapshot_stride=stride)
        assert EvolverConfig(dt=1e-3, t_end=1.0, snapshot_stride=np.int64(2)).snapshot_stride == 2


class TestStep:
    def test_zero_field_fixed_point(self):
        out = step(zero_state(Grid(10.0, 64)), 1e-2)
        assert np.max(np.abs(out.u)) == 0.0
        assert np.max(np.abs(out.v)) == 0.0
        assert out.t == pytest.approx(1e-2)

    def test_linear_dispersion_relation(self):
        # a single Fourier mode prepared on an eigenvector of the linear
        # symbol rotates at frequency sqrt(1 + k^2)
        g = Grid(20.0, 256)
        k = 2.0 * np.pi * 4 / (2.0 * g.half_length)
        freq = np.sqrt(1.0 + k * k)
        weight = np.array([1.0, k + freq])
        weight = weight / np.linalg.norm(weight)
        mode = np.exp(1j * k * g.x)
        state = FieldState(g, weight[0] * mode, weight[1] * mode)
        t = 0.37
        a, b, _ = _linear_tables(g, t)  # the production propagator's first row
        out_u = np.fft.ifft(a * np.fft.fft(state.u) + b * np.fft.fft(state.v))
        assert abs(out_u[0] / state.u[0] - np.exp(1j * freq * t)) < 1e-6

    def test_soliton_propagation_accuracy(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        traj = evolve(state, EvolverConfig(dt=1e-3, t_end=1.0, snapshot_stride=1000))
        ref = eval_soliton(SolitonParams(0.5), soliton_grid, t=1.0)
        err = max(
            np.max(np.abs(traj.final.u - ref.u)), np.max(np.abs(traj.final.v - ref.v))
        )
        assert err < 1e-6

    def test_second_order_step_convergence(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        ref = eval_soliton(SolitonParams(0.5), soliton_grid, t=1.0)
        errs = []
        for dt in (2e-3, 1e-3):
            final = evolve(state, EvolverConfig(dt=dt, t_end=1.0, snapshot_stride=10**9)).final
            errs.append(np.max(np.abs(final.u - ref.u)))
        assert errs[0] / errs[1] > 3.5

    def test_substeps_preserve_charge_exactly(self, soliton_grid):
        # both substeps are unitary, so even a crude dt conserves charge
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        q0 = charge(state)
        out = step(state, 0.1)
        assert abs(charge(out) - q0) < 1e-12 * q0

    def test_matches_one_oracle_step(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        out = step(state, 1e-3)
        u, v = strang_oracle(soliton_grid, state.u, state.v, 1e-3, 1)
        assert np.max(np.abs(out.u - u)) <= 1e-15
        assert np.max(np.abs(out.v - v)) <= 1e-15

    def test_time_reversibility(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        back = step(step(state, 1e-3), -1e-3)
        assert np.max(np.abs(back.u - state.u)) < 1e-12
        assert np.max(np.abs(back.v - state.v)) < 1e-12


class TestEvolve:
    def test_short_horizon_conservation(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        traj = evolve(state, EvolverConfig(dt=1e-3, t_end=2.0, snapshot_stride=500))
        q = np.array([charge(s) for s in traj.states])
        r = np.array([higher_charge(s) for s in traj.states])
        assert np.max(np.abs(q - q[0])) / q[0] < 1e-10
        assert np.max(np.abs(r - r[0])) / q[0] < 1e-6

    def test_boosted_soliton_transport_speed(self):
        g = Grid(40.0, 1024)
        state = eval_soliton(SolitonParams(0.5, speed=0.3), g)

        def center(s: FieldState) -> float:
            dens = np.abs(s.u) ** 2 + np.abs(s.v) ** 2
            return float(np.sum(g.x * dens) / np.sum(dens))

        traj = evolve(state, EvolverConfig(dt=1e-3, t_end=10.0, snapshot_stride=10000))
        speed = (center(traj.final) - center(traj.states[0])) / 10.0
        assert speed == pytest.approx(0.3, abs=0.01)

    def test_matches_unmerged_oracle(self):
        # merging adjacent half-steps changes only roundoff: every snapshot
        # of a long perturbed-soliton run agrees with the step-by-step oracle
        g = Grid(40.0, 1024)
        state = perturbed_soliton(0.3, g, seed=0, delta=1e-3)
        dt, stride = 1e-3, 200
        traj = evolve(state, EvolverConfig(dt=dt, t_end=3.0, snapshot_stride=stride))
        assert len(traj.states) == 16
        u, v = state.u, state.v
        for snap in traj.states[1:]:
            u, v = strang_oracle(g, u, v, dt, stride)
            assert np.max(np.abs(snap.u - u)) <= 1e-13
            assert np.max(np.abs(snap.v - v)) <= 1e-13

    def test_final_state_independent_of_stride(self, soliton_grid):
        # snapshots close a copy of the running state, never the state itself
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        finals = [
            evolve(state, EvolverConfig(dt=1e-3, t_end=0.05, snapshot_stride=stride)).final
            for stride in (1, 7, 10**9)
        ]
        for final in finals[1:]:
            assert np.array_equal(final.u, finals[0].u)
            assert np.array_equal(final.v, finals[0].v)

    def test_zero_horizon_returns_initial_state(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid, t=0.25)
        traj = evolve(state, EvolverConfig(dt=1e-3, t_end=0.0))
        assert len(traj.states) == 1 and traj.final.t == state.t
        assert np.array_equal(traj.final.u, state.u)
        assert np.array_equal(traj.final.v, state.v)
        # samples whose squared moduli overflow blow up in the first
        # half-step, which a zero horizon never takes
        huge = np.full(soliton_grid.n, 1e200, dtype=complex)
        state = FieldState(soliton_grid, huge, huge.copy())
        assert evolve(state, EvolverConfig(dt=1e-3, t_end=0.0)).final.u[0] == 1e200

    def test_snapshot_cadence(self, soliton_grid):
        state = eval_soliton(SolitonParams(0.5), soliton_grid)
        traj = evolve(state, EvolverConfig(dt=1e-2, t_end=0.1, snapshot_stride=5))
        assert isinstance(traj, Trajectory)
        assert list(traj.times) == pytest.approx([0.0, 0.05, 0.1])

    def test_blowup_detection(self):
        # overflow of the huge samples is the mechanism producing the
        # non-finite values the scan must catch; it raises BlowUpError, not
        # numpy's RuntimeWarning, although the suite makes warnings errors
        g = Grid(10.0, 64)
        huge = np.full(g.n, 1e200, dtype=complex)
        state = FieldState(g, huge, huge.copy())
        with pytest.raises(BlowUpError) as err:
            evolve(state, EvolverConfig(dt=1e-3, t_end=1.0))
        assert err.value.t == pytest.approx(1e-3)
        with pytest.raises(BlowUpError):
            step(state, 1e-3)

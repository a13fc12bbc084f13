"""Curvature operators, sector reductions, Sturm counts, constraint slopes,
and constrained positivity."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, eigvalsh_tridiagonal, null_space

from mtmlab.conserved import lyapunov
from mtmlab.experiments import SPLIT_CHECK_N, omega_sweep, random_h1_perturbation
from mtmlab.grid import FieldState, Grid, quadrature
from mtmlab.soliton import (
    SolitonParams,
    eval_profile,
    eval_soliton,
    profile_derivative,
    singularity_distance,
    zero_mode_fields,
)
from mtmlab import spectral
from mtmlab.spectral import (
    OperatorConstructionError,
    SchrodingerProblem,
    _constrained_min_eig_hessian,
    _constraint_rows,
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
    splitting_probe,
    stretched_grid,
    sturm_eigenvalues,
)

from oracles import (
    SECTOR_SIMILARITY,
    block_diagonalize_check,
    build_hessian_blocked,
    constrained_min_2n,
    constrained_min_eig_nullspace,
    coupled_kernel_mode,
    difference_sector_kernel_mode,
    differentiation_matrices_fft,
    full_matrix,
    generalized_mode_residual,
    hessian_quadratic_form,
    parity_bases,
    parity_blocks_assembled,
    prufer_zero_count,
    realified_similarity,
    realify_conjugate_pair,
    scalar_full_matrix,
    scalar_parity_bases,
    schrodinger_matrix,
    sector_analysis_stacked,
    sector_matrix,
    sigma_deflated,
    sigma_index_eigh,
    sigma_profile_path,
    spectral_grid_capped,
)

# smallest projected curvature eigenvalue at omega = 0, frozen on the
# spectral grid of the capped rule (L = 22, N = 640); the strip rule's
# N = 512 grid gives it to 5.5e-14
CONSTRAINED_MARGIN_ZERO = 0.7350832488511114
# grid size of the dense-oracle comparisons
ORACLE_N = 256


class TestSectorOperators:
    def test_builders_are_exactly_symmetric(self):
        # the reductions read one triangle only, so every builder must
        # assemble its blocks exactly symmetric
        assert build_sector_operator(0.5, spectral_grid(0.5, ORACLE_N), +1).continuum_edge == 0.75
        for omega in (0.0, 0.3, -0.7, 0.9):
            g = spectral_grid(omega, ORACLE_N)
            zg = stretched_grid(omega, g)
            ops = [build_sector_operator(omega, g, sign) for sign in (1, -1)]
            ops += [build_schrodinger(SchrodingerProblem(kind, omega), zg)
                    for kind in spectral.ALL_KINDS]
            ops.append(build_hessian(omega, g))
            for op in ops:
                assert np.array_equal(op.matrix, op.matrix.swapaxes(-1, -2))

    @pytest.mark.parametrize("omega", [0.3, 0.5])
    def test_kernel_vectors(self, omega):
        g = spectral_grid(omega)
        up = profile_derivative(omega, g.x)
        u = eval_profile(omega, g)
        plus = full_matrix(build_sector_operator(omega, g, +1))
        minus = full_matrix(build_sector_operator(omega, g, -1))
        assert np.max(np.abs(plus @ embed_conjugate_pair(up))) < 1e-6
        assert np.max(np.abs(minus @ embed_conjugate_pair(1j * u))) < 1e-6

    def test_extra_kernels_at_zero_frequency(self):
        g = spectral_grid(0.0)
        u = eval_profile(0.0, g)
        up = profile_derivative(0.0, g.x)
        plus = full_matrix(build_sector_operator(0.0, g, +1))
        minus = full_matrix(build_sector_operator(0.0, g, -1))
        assert np.max(np.abs(plus @ embed_conjugate_pair(1j * up))) < 1e-6
        assert np.max(np.abs(minus @ embed_conjugate_pair(u))) < 1e-6

    def test_sign_argument(self):
        with pytest.raises(ValueError):
            build_sector_operator(0.3, spectral_grid(0.3), 0)

    @pytest.mark.parametrize("n", [640, 1024, 2048])
    def test_differentiation_matrices_match_fft_build(self, n):
        g = Grid(30.0, n)
        # uncached call: a 2048-point pair would evict the operators' grids
        built = spectral.differentiation_matrices.__wrapped__(g)
        for d, ref in zip(built, differentiation_matrices_fft(g)):
            assert np.max(np.abs(d - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestIsolatedSpectrum:
    def test_operator_left_intact(self):
        # the reduction consumes its block, so each block is reduced in a copy
        g = spectral_grid(0.5, ORACLE_N)
        for op in (build_sector_operator(0.5, g, -1),
                   build_schrodinger(SchrodingerProblem("sum_sector", 0.5), stretched_grid(0.5, g))):
            before = op.matrix.copy()
            isolated_spectrum(op)
            assert np.array_equal(op.matrix, before)

    def test_minus_sector_at_positive_omega(self):
        g = spectral_grid(0.5)
        vals = isolated_spectrum(build_sector_operator(0.5, g, -1))
        assert len(vals) == 2
        assert abs(vals[0]) < 1e-6
        assert vals[1] > 0.0

    def test_minus_sector_at_negative_omega(self):
        g = spectral_grid(-0.5)
        vals = isolated_spectrum(build_sector_operator(-0.5, g, -1))
        assert len(vals) == 2
        assert vals[0] < 0.0
        assert abs(vals[1]) < 1e-6

    def test_plus_sector_small_positive_omega(self):
        g = spectral_grid(0.2)
        vals = isolated_spectrum(build_sector_operator(0.2, g, +1))
        assert len(vals) == 2
        assert vals[0] < 0.0
        assert abs(vals[1]) < 1e-6


@pytest.fixture(scope="module")
def hessian_setup():
    omega = 0.4
    g = spectral_grid(omega)
    return omega, g, build_hessian(omega, g)


class TestHessian:

    def test_kernel_quadratic_forms(self, hessian_setup):
        omega, g, op = hessian_setup
        modes = zero_mode_fields(omega, g)
        for name in ("gauge", "translation"):
            a, b = modes[name][0], modes[name][1]
            assert abs(hessian_quadratic_form(op, g, a, b)) < 1e-6
            assert np.max(np.abs(op.matrix @ embed_conjugate_pair(np.concatenate([a, b])))) < 1e-6

    def test_quadratic_form_matches_second_difference(self, hessian_setup):
        omega, g, op = hessian_setup
        wu, wv = random_h1_perturbation(g, seed=5, size=1.0)
        form = hessian_quadratic_form(op, g, wu, wv)
        base = eval_soliton(SolitonParams(omega), g)

        def lam(eps: float) -> float:
            state = FieldState(g, base.u + eps * wu, base.v + eps * wv, 0.0)
            return lyapunov(state, omega)

        l0 = lam(0.0)

        def second(eps: float) -> float:
            return (lam(eps) - 2.0 * l0 + lam(-eps)) / eps**2

        rich = (4.0 * second(5e-4) - second(1e-3)) / 3.0
        assert abs(form - rich) / abs(rich) < 1e-4

    def test_block_diagonalization(self):
        assert block_diagonalize_check(0.3, Grid(25.0, 512)) < 1e-8
        s = SECTOR_SIMILARITY
        assert np.max(np.abs(s.T @ s - np.eye(4))) < 1e-12

    def test_block_defect_grid_independent(self):
        # the similarity identity is exact, not asymptotic
        defects = [block_diagonalize_check(0.3, Grid(25.0, n)) for n in (256, 384)]
        assert all(d < 1e-8 for d in defects)

    def test_block_check_detects_swapped_sectors(self, monkeypatch):
        # negative control: with the two sectors exchanged the identity fails
        build = spectral.build_sector_operator
        monkeypatch.setattr(
            spectral, "build_sector_operator", lambda omega, grid, sign: build(omega, grid, -sign)
        )
        assert block_diagonalize_check(0.3, Grid(25.0, 256)) > 1e-3


class TestSchrodingerForms:
    def test_kernel_mode_difference_sector(self):
        pr = SchrodingerProblem("difference_sector", 0.5)
        zg = stretched_grid(0.5, spectral_grid(0.5))
        op = build_schrodinger(pr, zg)
        psi0 = difference_sector_kernel_mode(0.5, zg.x)
        assert np.max(np.abs(scalar_full_matrix(op) @ psi0)) < 1e-6

    def test_zero_frequency_ground_state(self):
        # the stretched sum-sector well at omega = 0 is the classic
        # -(3/4) sech^2 well with its single bound state exactly at the edge
        # value mapping to zero
        zg = stretched_grid(0.0, spectral_grid(0.0))
        op = build_schrodinger(SchrodingerProblem("sum_sector", 0.0), zg)
        vals = isolated_spectrum(op)
        assert len(vals) == 1
        assert abs(vals[0]) < 1e-6

    def test_coupled_kernel_mode(self):
        pr = SchrodingerProblem("coupled_system", 0.3)
        zg = stretched_grid(0.3, spectral_grid(0.3))
        op = build_schrodinger(pr, zg)
        phi0 = coupled_kernel_mode(0.3, zg.x)
        assert np.max(np.abs(full_matrix(op) @ embed_conjugate_pair(phi0))) < 1e-6

    def test_minus_sector_matches_scalar_problems(self):
        omega = 0.5
        g = spectral_grid(omega)
        zg = stretched_grid(omega, g)
        sector = isolated_spectrum(build_sector_operator(omega, g, -1))
        scalars = []
        for kind in ("sum_sector", "difference_sector"):
            op = build_schrodinger(SchrodingerProblem(kind, omega), zg)
            scalars += [(1.0 - omega**2) * v for v in isolated_spectrum(op)]
        assert np.allclose(sorted(sector), sorted(scalars), atol=1e-5)

    def test_plus_sector_matches_coupled_problem(self):
        omega = 0.3
        g = spectral_grid(omega)
        zg = stretched_grid(omega, g)
        sector = isolated_spectrum(build_sector_operator(omega, g, +1))
        coupled = (1.0 - omega**2) * isolated_spectrum(
            build_schrodinger(SchrodingerProblem("coupled_system", omega), zg)
        )
        assert np.allclose(sorted(sector), sorted(coupled), atol=1e-5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SchrodingerProblem("mystery", 0.3)

    @pytest.mark.parametrize("omega", [0.5, -0.7, 0.9])
    def test_coupled_potentials_do_not_overflow(self, omega):
        # the direct cosh(2z)^3 form overflows to NaN beyond |z| ~ 178
        pr = SchrodingerProblem("coupled_system", omega)
        z = np.linspace(-400.0, 400.0, 8001)
        v1, v2 = pr.coupled_potentials(z)
        assert np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))
        with np.errstate(over="ignore", invalid="ignore"):
            ch, sh = np.cosh(2.0 * z), np.sinh(2.0 * z)
            den = omega + ch
            ref1 = -3.0 * (1.0 - omega**2) / den**2 - 6.0 * omega / den
            ref2 = -6.0 * omega * (1.0 + omega * ch + 1j * np.sqrt(1.0 - omega**2) * sh) ** 2 / den**3
        finite = np.isfinite(ref2)
        assert 0 < np.count_nonzero(finite) < len(z)
        assert np.max(np.abs(v1[finite] - ref1[finite])) <= 1e-12
        assert np.max(np.abs(v2[finite] - ref2[finite])) <= 1e-12

    def test_coupled_operator_on_a_wide_domain(self):
        op = build_schrodinger(SchrodingerProblem("coupled_system", 0.5), Grid(200.0, 1024))
        assert np.all(np.isfinite(op.matrix))
        assert op.parity_defect <= 1e-12

    def test_non_finite_parity_defect_refused(self):
        with pytest.raises(OperatorConstructionError, match="parity defect nan"):
            spectral.DiscreteOperator(np.zeros((2, 5, 5)), 1.0, parity_defect=np.nan)


SCALAR_SPLIT_OMEGAS = (0.0, 0.5, -0.7, 0.9)


class TestScalarSplit:
    """The scalar Schrodinger operators' even/odd blocks against the dense
    circulant matrix -D2 + diag(1 + V) (``oracles.schrodinger_matrix``)."""

    @staticmethod
    def grid(omega, n):
        return stretched_grid(omega, spectral_grid(omega, n))

    @pytest.mark.parametrize("n", [None, 8], ids=["spectral_grid", "n8"])
    @pytest.mark.parametrize("omega", SCALAR_SPLIT_OMEGAS)
    @pytest.mark.parametrize("kind", spectral.SCALAR_KINDS)
    def test_isolated_spectrum_matches_circulant_oracle(self, kind, omega, n):
        pr = SchrodingerProblem(kind, omega)
        zg = self.grid(omega, n)
        vals = isolated_spectrum(build_schrodinger(pr, zg))
        ref = isolated_spectrum(spectral.DiscreteOperator(schrodinger_matrix(pr, zg), 1.0))
        assert len(vals) == len(ref)
        assert len(vals) or n == 8
        assert np.max(np.abs(vals - ref), initial=0.0) <= 1e-11

    @pytest.mark.parametrize("n", [ORACLE_N, 8])
    @pytest.mark.parametrize("omega", SCALAR_SPLIT_OMEGAS)
    @pytest.mark.parametrize("kind", spectral.SCALAR_KINDS)
    def test_blocks_are_oracle_projections(self, kind, omega, n):
        pr = SchrodingerProblem(kind, omega)
        zg = self.grid(omega, n)
        op = build_schrodinger(pr, zg)
        h = zg.n // 2
        assert op.matrix.shape == (2, h + 1, h + 1) and op.continuum_edge == 1.0
        assert op.parity_defect <= 1e-12
        even, odd = scalar_parity_bases(zg.n)
        m = schrodinger_matrix(pr, zg)
        assert np.max(np.abs(even.T @ m @ even - op.matrix[0])) <= 1e-12
        assert np.max(np.abs(odd.T @ m @ odd - op.matrix[1, : h - 1, : h - 1])) <= 1e-12
        assert np.max(np.abs(even.T @ m @ odd)) <= 1e-12
        padding = np.zeros((2, h + 1))
        padding[:, h - 1 :] = np.eye(2)
        assert np.array_equal(op.matrix[1, h - 1 :], padding)
        assert np.array_equal(op.matrix[1, :, h - 1 :], padding.T)

    def test_no_schrodinger_kind_builds_a_dense_circulant(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense circulant on the Schrodinger path")

        monkeypatch.setattr(spectral, "differentiation_matrices", refuse)
        monkeypatch.setattr(spectral, "circulant", refuse)
        zg = self.grid(0.5, ORACLE_N)
        for kind in spectral.ALL_KINDS:
            assert len(isolated_spectrum(build_schrodinger(SchrodingerProblem(kind, 0.5), zg)))

    def test_scalar_build_holds_half_a_dense_matrix(self):
        # the two blocks are 2 (N/2 + 1)^2 doubles; a dense N x N matrix, and
        # its circulant D2 beside it, would exceed the bound
        n = 2048
        zg = Grid(37.0, n)
        tracemalloc.start()
        try:
            build_schrodinger(SchrodingerProblem("sum_sector", 0.5), zg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8


class TestShooting:
    def test_resonance_well_has_one_zero(self):
        # deeper comparison well with an explicit edge resonance sinh(2z)/(w + cosh 2z)
        w = 0.5

        def well(z):
            inv = 1.0 / (w + np.cosh(2.0 * z))
            return -8.0 * (1.0 - w * w) * inv**2 - 4.0 * w * inv

        assert prufer_zero_count(well, 16.0, 1.0) == 1

    def test_difference_sector_edge_count(self):
        pr = SchrodingerProblem("difference_sector", 0.5)
        assert prufer_zero_count(pr.potential, 16.0, 1.0) == 1

    def test_algebraic_reference_resonance(self):
        # algebraic well with the explicit edge resonance z / sqrt(1 + z^2)
        assert prufer_zero_count(lambda z: -3.0 / (1.0 + z * z) ** 2, 420.0, 1.0) == 1

    def test_zero_potential_has_no_zeros(self):
        assert prufer_zero_count(lambda z: 0.0 * z, 15.0, 0.0) == 0

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            sturm_eigenvalues(SchrodingerProblem("coupled_system", 0.5))

    @pytest.mark.parametrize("omega", [0.5, -0.5, 0.9, -0.9])
    @pytest.mark.parametrize("kind", ["sum_sector", "difference_sector"])
    def test_prufer_counts_bracket_eigenvalues(self, kind, omega):
        # the finite-difference Sturm count against the continuous Pruefer
        # zero count on the half-width each eigenvalue was resolved on
        pr = SchrodingerProblem(kind, omega)
        vals = sturm_eigenvalues(pr)
        assert vals
        for m, lam in enumerate(vals):
            half = spectral._sturm_half_width(lam)
            assert prufer_zero_count(pr.potential, half, lam - 1e-6) == m
            assert prufer_zero_count(pr.potential, half, min(lam + 1e-6, 1.0)) == m + 1

    def test_count_mismatch_between_steps_raises(self, monkeypatch):
        # negative control: a fine-step solve that loses an eigenvalue
        solve = spectral._fd_eigenvalues
        coarse_cells = round(2.0 * spectral.STURM_HALF_WIDTH / spectral.STURM_STEP)

        def lossy(problem, half, cells):
            vals = solve(problem, half, cells)
            return vals[1:] if cells > coarse_cells else vals

        monkeypatch.setattr(spectral, "_fd_eigenvalues", lossy)
        with pytest.raises(RuntimeError, match="sum_sector"):
            sturm_eigenvalues(SchrodingerProblem("sum_sector", 0.5))

    def test_eigenvalues_match_dense_solve(self):
        pr = SchrodingerProblem("sum_sector", 0.5)
        shot = sturm_eigenvalues(pr)
        zg = stretched_grid(0.5, spectral_grid(0.5))
        dense = isolated_spectrum(build_schrodinger(pr, zg))
        assert len(shot) == len(dense) == 1
        assert abs(shot[0] - dense[0]) < 1e-5


class TestSigma:
    @pytest.mark.parametrize("omega", [0.3, 0.5, 0.7, -0.3, -0.5, -0.7])
    def test_closed_forms(self, omega):
        g = spectral_grid(omega)
        for sign in (1, -1):
            assert sigma_index(omega, g, sign) == pytest.approx(
                sigma_closed_form(omega, sign), abs=1e-3
            )

    @pytest.mark.parametrize("omega", [0.3, -0.3, 0.5, -0.5, 0.7, -0.7])
    def test_solve_and_profile_paths_agree(self, omega):
        g = spectral_grid(omega)
        for sign in (1, -1):
            assert abs(sigma_index(omega, g, sign) - sigma_profile_path(omega, g, sign)) < 1e-4

    def test_sign_pattern_across_zero(self):
        for omega in (0.5, -0.5):
            assert np.sign(sigma_closed_form(omega, +1)) == -np.sign(omega)
            assert np.sign(sigma_closed_form(omega, -1)) == np.sign(omega)

    def test_degenerate_frequency(self):
        g = spectral_grid(0.3)
        with pytest.raises(ValueError):
            sigma_index(5e-4, g, +1)


class TestGeneralizedMode:
    def test_minus_sector_identity(self):
        g = spectral_grid(0.5)
        assert generalized_mode_residual(0.5, g) < 1e-5


class TestConstrainedPositivity:
    def test_zero_frequency_margin_regression(self):
        g = spectral_grid(0.0)
        val = constrained_min_eig(0.0, g)
        assert val > 0.05
        assert val == pytest.approx(CONSTRAINED_MARGIN_ZERO, abs=1e-8)

    def test_unprojected_operator_is_not_positive(self):
        g = spectral_grid(0.0)
        vals = isolated_spectrum(build_hessian(0.0, g))
        assert np.sum(np.abs(vals) < 1e-6) >= 4
        assert np.min(vals) < 1e-6
        g3 = spectral_grid(0.3)
        vals3 = isolated_spectrum(build_hessian(0.3, g3))
        assert np.min(vals3) < -1e-3

    def test_excluded_direction_overlap(self):
        # the extra zero-frequency kernel pair has overlap -2i with the
        # charge-type constraint vector, so the constraint removes it
        g = spectral_grid(0.0)
        u0 = eval_profile(0.0, g)
        up0 = profile_derivative(0.0, g.x)
        overlap = quadrature(np.conj(u0) * up0 - u0 * np.conj(up0), g)
        assert abs(overlap - (-2j)) < 1e-8


class TestSplittingProbe:
    def test_eigenvalue_signs_near_zero(self):
        g = spectral_grid(0.1)
        rows = [splitting_probe(omega, g) for omega in (0.1, -0.1)]
        by_omega = {row["omega"]: row for row in rows}
        assert by_omega[0.1]["second_plus"] < 0.0
        assert by_omega[-0.1]["second_plus"] > 0.0
        assert by_omega[0.1]["second_minus"] > 0.0
        assert by_omega[-0.1]["second_minus"] < 0.0
        for row in rows:
            assert row["count_plus"] == 2
            assert row["count_minus"] == 2

    def test_degenerate_splitting_integral_value(self):
        # quadrature check of the displayed integral at omega -> 0; its sign
        # is recorded alongside the directly measured eigenvalue signs
        g = spectral_grid(0.01)
        row = splitting_probe(0.01, g)
        assert row["splitting_integral"] == pytest.approx(-2.0 / 3.0, abs=0.05)



class TestSectorRoute:
    """The per-sector spectral route against the full-spectrum and
    full-Hessian references on small grids."""

    @pytest.mark.parametrize("omega", [0.0, 0.3, -0.3, 0.5, 0.9, -0.9])
    def test_constrained_min_matches_hessian_oracle(self, omega):
        g = spectral_grid(omega, ORACLE_N)
        sector = constrained_min_eig(omega, g)
        assert abs(sector - _constrained_min_eig_hessian(omega, g)) <= 1e-12

    @pytest.mark.parametrize("omega", [0.3, 0.5, 0.9])
    def test_deflated_sigma_matches_eigen_sum(self, omega):
        # the +1 block solve against the kernel-deflated solve and the
        # eigen-sum, both on the 2N x 2N oracle matrix
        g = spectral_grid(omega, ORACLE_N)
        for sign in (1, -1):
            solve = sector_analysis(omega, g, sign).sigma
            assert abs(solve.value - sigma_deflated(omega, g, sign)) <= 1e-10
            assert abs(solve.value - sigma_index_eigh(omega, g, sign)) <= 1e-10
            assert solve.residual < 1e-10

    @pytest.mark.parametrize("omega", [0.0, 0.5, -0.9])
    def test_subset_matches_full_eigh(self, omega):
        g = spectral_grid(omega, ORACLE_N)
        for sign in (1, -1):
            analysis = sector_analysis(omega, g, sign)
            vals = analysis.isolated
            full = np.linalg.eigvalsh(sector_matrix(omega, g, sign))
            full = full[full < analysis.cutoff]
            assert len(vals) == len(full)
            assert np.max(np.abs(vals - full)) <= 1e-12

    def test_constraint_rows_split_by_similarity(self):
        omega, n = 0.4, 64
        g = Grid(20.0, n)
        u = eval_profile(omega, g)
        up = profile_derivative(omega, g.x)
        q = realified_similarity(n)
        assert np.max(np.abs(q.T @ q - np.eye(4 * n))) < 1e-14
        # the realified Hessian splits into the two realified sector matrices
        split = q.T @ build_hessian(omega, g).matrix @ q
        plus = sector_matrix(omega, g, +1)
        minus = sector_matrix(omega, g, -1)
        assert np.max(np.abs(split[: 2 * n, : 2 * n] - plus)) < 1e-8
        assert np.max(np.abs(split[2 * n :, 2 * n :] - minus)) < 1e-8
        assert np.max(np.abs(split[: 2 * n, 2 * n :])) < 1e-8
        # Re/Im of the U and U' constraints land on {U, U'} in the plus
        # sector and on {iU, iU'} in the minus sector, scaled by sqrt(2)
        mapped = _constraint_rows(omega, g) @ q / np.sqrt(2.0)
        zero = np.zeros(2 * n)
        expected = np.array([
            np.concatenate([embed_conjugate_pair(u), zero]),
            np.concatenate([zero, -embed_conjugate_pair(1j * u)]),
            np.concatenate([embed_conjugate_pair(up), zero]),
            np.concatenate([zero, -embed_conjugate_pair(1j * up)]),
        ])
        assert np.max(np.abs(mapped - expected)) < 1e-14 * np.max(np.abs(expected))

    def test_cached_analysis_is_shared_and_keeps_no_matrix(self):
        sector_analysis.cache_clear()
        g = spectral_grid(0.5, ORACLE_N)
        tracemalloc.start()
        try:
            splitting_probe(0.5, g)
            assert sector_analysis.cache_info().misses == 2
            sigma_index(0.5, g, -1)
            constrained_min_eig(0.5, g)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sector_analysis.cache_info().hits >= 1
        assert sector_analysis.cache_info().misses == 2
        # both cached analyses together hold less than one N x N block
        assert retained < g.n * g.n * 8
        before = sector_analysis.cache_info()
        spectral.constrained_split_defect(0.5, spectral_grid(0.5, 64))
        assert sector_analysis.cache_info() == before

    def test_sigma_needs_no_resolved_kernel(self):
        # on this coarse grid the plus-sector kernel eigenvalue is ~1e-5: the
        # sector check still fails on it, while the +1 block solve, which
        # the kernel does not enter, gives sigma near its closed form
        omega = -0.3
        record = omega_sweep([omega], grid_n=ORACLE_N, checks=("plus_sector", "slope"))
        row = record.tables["sweep"][0]
        assert 1e-6 < abs(row["kernel_plus"]) < 1e-4
        assert record.verdicts["plus_sector"] is False
        assert record.verdicts["slope"] and record.verdicts["no_errors"]
        for tag in ("plus", "minus"):
            assert abs(row[f"sigma_{tag}"] - row[f"sigma_{tag}_closed"]) < 1e-4


# the 11 default omega of `mtmlab sweep`: N of the capped rule and of the strip rule
SWEEP_GRID_N = {
    0.0: (640, 512), 0.1: (640, 512), -0.1: (640, 576), 0.3: (640, 448), -0.3: (640, 640),
    0.5: (768, 384), -0.5: (768, 768), 0.7: (896, 320), -0.7: (1024, 960),
    0.9: (1280, 320), -0.9: (1664, 1664),
}
# the sweep omega whose grid the strip rule changes, and 0.95 (N 1792 -> 320)
# above the sweep's range
CHANGED_GRID_OMEGAS = [w for w, (capped, strip) in SWEEP_GRID_N.items() if capped != strip] + [0.95]


class TestSpectralGrid:
    @pytest.mark.parametrize("omega", SWEEP_GRID_N)
    def test_strip_rule_sizes(self, omega):
        capped, grid = spectral_grid_capped(omega), spectral_grid(omega)
        assert (capped.n, grid.n) == SWEEP_GRID_N[omega]
        assert grid.half_length == capped.half_length
        # the smallest multiple of 64 with dx <= 0.12 d
        assert grid.n % 64 == 0
        assert grid.dx <= 0.12 * singularity_distance(omega) < 2.0 * grid.half_length / (grid.n - 64)
        assert spectral_grid(omega, 200) == Grid(grid.half_length, 200)

    @pytest.mark.parametrize("omega", CHANGED_GRID_OMEGAS)
    def test_sweep_matches_capped_grid(self, omega):
        capped_n = spectral_grid_capped(omega).n
        assert spectral_grid(omega).n < capped_n
        record = omega_sweep([omega])
        reference = omega_sweep([omega], grid_n=capped_n)
        assert record.verdicts == reference.verdicts
        (row,), (ref,) = record.tables["sweep"], reference.tables["sweep"]
        assert "error" not in row and row.keys() == ref.keys()
        for key, value in ref.items():
            if isinstance(value, float):
                assert abs(row[key] - value) <= 1e-10, key
            else:  # counts, verdicts and *_ok flags
                assert row[key] == value, key


# every omega of the spectral criteria (7-10)
CRITERION_OMEGAS = (0.0, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.5, -0.5, 0.7, -0.7, 0.9, -0.9)
# one full spectral grid per sign of omega
FULL_GRID_OMEGAS = (0.5, -0.7)


class TestHessianRoutes:
    """The in-place Hessian assembly and the Householder projection of the
    split self-check against their block and null-space oracles."""

    @pytest.mark.parametrize(
        "omega, n",
        [(w, ORACLE_N) for w in CRITERION_OMEGAS] + [(w, None) for w in (0.0, 0.4, 0.5)],
    )
    def test_in_place_build_matches_block_oracle(self, omega, n):
        g = spectral_grid(omega, n)
        assert np.array_equal(build_hessian(omega, g).matrix, build_hessian_blocked(omega, g))

    def test_build_peak_is_the_matrix(self):
        # the 4N x 4N result and the two N x N circulants, plus one N x N
        # temporary; the np.block route peaked at 3.5 matrices
        g = spectral_grid(0.5)
        spectral.differentiation_matrices.cache_clear()
        tracemalloc.start()
        try:
            build_hessian(0.5, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * (4 * g.n) ** 2 * 8

    @pytest.mark.parametrize("omega", SWEEP_GRID_N)
    def test_householder_projection_matches_null_space_oracle(self, omega, monkeypatch):
        g = spectral_grid(omega, SPLIT_CHECK_N)
        expected = constrained_min_eig_nullspace(omega, g)

        def refuse(*args, **kwargs):
            raise AssertionError("null-space basis on the Householder route")

        monkeypatch.setattr(spectral, "null_space", refuse)
        assert abs(_constrained_min_eig_hessian(omega, g) - expected) <= 1e-12

    def test_split_check_peak(self):
        # the Hessian projected in place, and the copy of its trailing block
        # that the eigensolver takes; the null-space route peaked at 5.1 matrices
        g = spectral_grid(-0.7, SPLIT_CHECK_N)
        tracemalloc.start()
        try:
            spectral.constrained_split_defect(-0.7, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * (4 * g.n) ** 2 * 8


class TestParityBlocks:
    """The directly assembled K = +1 / -1 blocks against the 2N x 2N oracle
    matrix and the projections onto the eigenspaces of K = diag(R, -R)."""

    @pytest.mark.parametrize(
        "omega, n",
        [(w, ORACLE_N) for w in CRITERION_OMEGAS] + [(w, None) for w in FULL_GRID_OMEGAS],
    )
    def test_reflection_commutes_with_oracle_matrix(self, omega, n):
        # K M K - M, with K = diag(R, -R) applied as a signed permutation,
        # has the entries of K M - M K up to order and sign
        g = spectral_grid(omega, n)
        mirror = -np.arange(2 * g.n) % g.n + np.repeat([0, g.n], g.n)
        signs = np.repeat([1.0, -1.0], g.n)
        for sign in (1, -1):
            m = sector_matrix(omega, g, sign)
            kmk = signs[:, None] * m[np.ix_(mirror, mirror)] * signs
            assert np.max(np.abs(kmk - m)) <= 1e-11

    @pytest.mark.parametrize("omega", CRITERION_OMEGAS)
    def test_blocks_equal_projections(self, omega):
        g = spectral_grid(omega, ORACLE_N)
        plus, minus = parity_bases(g.n)
        for sign in (1, -1):
            m = sector_matrix(omega, g, sign)
            blocks = build_sector_operator(omega, g, sign).matrix
            assert np.max(np.abs(plus.T @ m @ plus - blocks[0])) <= 1e-12
            assert np.max(np.abs(minus.T @ m @ minus - blocks[1])) <= 1e-12
            assert np.max(np.abs(plus.T @ m @ minus)) <= 1e-12

    def test_coupled_schrodinger_blocks(self):
        zg = stretched_grid(0.3, spectral_grid(0.3, ORACLE_N))
        op = build_schrodinger(SchrodingerProblem("coupled_system", 0.3), zg)
        v1, v2 = SchrodingerProblem("coupled_system", 0.3).coupled_potentials(zg.x)
        _, d2 = spectral.differentiation_matrices(zg)
        m = realify_conjugate_pair((-d2 + np.diag(1.0 + v1)).astype(complex), np.diag(v2))
        assert op.matrix.shape == (2, zg.n, zg.n)
        assert np.max(np.abs(full_matrix(op) - m)) <= 1e-12

    @pytest.mark.parametrize("full", [False, True], ids=["oracle_n", "full_grid"])
    @pytest.mark.parametrize("omega", FULL_GRID_OMEGAS)
    def test_route_matches_oracles(self, omega, full):
        g = spectral_grid(omega, None if full else ORACLE_N)
        for sign in (1, -1):
            analysis = sector_analysis(omega, g, sign)
            m = sector_matrix(omega, g, sign)
            ref = eigh(m, eigvals_only=True, subset_by_value=(-np.inf, analysis.cutoff))
            vals = analysis.isolated
            assert len(vals) == len(ref)
            assert np.max(np.abs(vals - ref)) <= 1e-10
            assert abs(analysis.constrained_min - constrained_min_2n(omega, g, sign)) <= 1e-10
            if full:  # the deflated oracle needs a resolved kernel
                assert abs(analysis.sigma.value - sigma_deflated(omega, g, sign)) <= 1e-10

    @pytest.mark.parametrize(
        "omega, n",
        [(w, ORACLE_N) for w in CRITERION_OMEGAS] + [(w, None) for w in FULL_GRID_OMEGAS],
    )
    def test_in_place_analysis_matches_stacked_route(self, omega, n):
        # same blocks, same reductions: only the sigma residual's products
        # sum in another order
        g = spectral_grid(omega, n)
        for sign in (1, -1):
            analysis = sector_analysis.__wrapped__(omega, g, sign)
            ref = sector_analysis_stacked(omega, g, sign)
            assert np.array_equal(analysis.isolated, ref.isolated)
            assert analysis.constrained_min == ref.constrained_min
            assert (analysis.parity_defect, analysis.cutoff) == (ref.parity_defect, ref.cutoff)
            assert (analysis.sigma is None) == (ref.sigma is None) == (omega == 0.0)
            if analysis.sigma is not None:
                assert analysis.sigma.value == ref.sigma.value
                assert abs(analysis.sigma.residual - ref.sigma.residual) <= 1e-13

    @pytest.mark.parametrize("sign", [1, -1])
    def test_analysis_peak_is_one_block(self, sign):
        # one N x N buffer, plus O(N) vectors, LAPACK's workspace and the
        # assembly's 64-row strip of weights (about 0.11 N x N at N = 960);
        # the stack route peaked near 4 blocks, a quarter-block temporary of
        # weights would add 0.25, and a copy of the stored reflectors for
        # dormqr one more
        g = spectral_grid(-0.7)
        assert g.n >= 512
        tracemalloc.start()
        try:
            sector_analysis.__wrapped__(-0.7, g, sign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * g.n * g.n * 8

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sector_path_makes_no_dense_eigensolve(self, sign, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on the sector path")

        monkeypatch.setattr(spectral, "eigh", refuse)
        assert not hasattr(spectral, "solve")
        analysis = sector_analysis.__wrapped__(0.5, spectral_grid(0.5, ORACLE_N), sign)
        assert len(analysis.isolated) == 2
        assert analysis.sigma.residual < 1e-10
        assert analysis.constrained_min > 0.0

    @pytest.mark.parametrize("omega", [0.0, 0.3, -0.7, 0.9])
    def test_in_place_assembly_matches_block_oracle(self, omega, monkeypatch):
        built = []

        def recording(grid, g, pa, pd, q, parity, out):
            write(grid, g, pa, pd, q, parity, out)
            built.append((grid, (g, pa, pd, q), parity, out.copy()))

        write = spectral._parity_block
        monkeypatch.setattr(spectral, "_parity_block", recording)
        g = spectral_grid(omega)
        for sign in (1, -1):
            build_sector_operator(omega, g, sign)
            sector_analysis.__wrapped__(omega, g, sign)
        build_schrodinger(SchrodingerProblem("coupled_system", omega), stretched_grid(omega, g))
        assert [parity for *_, parity, _ in built] == [1, -1] * 5
        for grid, coefficients, parity, block in built:
            ref_blocks, ref_defect = parity_blocks_assembled(grid, *coefficients)
            assert np.array_equal(block, ref_blocks[0 if parity > 0 else 1])
            assert spectral._wrong_parity(*coefficients) == ref_defect

    def test_sector_path_makes_no_numpy_matmul(self, monkeypatch):
        # the sector path's products go through scipy's BLAS, the runtime of
        # its LAPACK calls, so numpy's separate BLAS thread pool stays idle
        class NoMatmul(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    raise AssertionError("numpy matmul on the sector path")
                inputs = [x.view(np.ndarray) if isinstance(x, NoMatmul) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        g = spectral_grid(0.5, ORACLE_N)
        (s, _), _ = spectral._sector_constraints(0.5, g, 1)
        block = build_sector_operator(0.5, g, 1).matrix[0]
        d, e, solved = spectral._reduce_block(block.copy().view(NoMatmul), s, solve=True)
        ref_d, ref_e, ref_solved = spectral._reduce_block(block.copy(), s, solve=True)
        assert np.array_equal(d, ref_d) and np.array_equal(e, ref_e)
        assert solved == ref_solved and solved.residual < 1e-10

        small = spectral_grid(0.5, 64)
        expected = _constrained_min_eig_hessian(0.5, small)
        hessian = build_hessian(0.5, small)
        monkeypatch.setattr(spectral, "build_hessian", lambda omega, grid: spectral.DiscreteOperator(
            hessian.matrix.view(NoMatmul), hessian.continuum_edge))
        assert _constrained_min_eig_hessian(0.5, small) == expected

    def test_short_domain_refused(self, monkeypatch):
        with pytest.raises(OperatorConstructionError, match="parity defect"):
            build_sector_operator(0.5, Grid(3.0, 128), +1)

        def refuse(*args):
            raise AssertionError("a block was written before the parity check")

        monkeypatch.setattr(spectral, "_parity_block", refuse)
        with pytest.raises(OperatorConstructionError, match="parity defect"):
            sector_analysis.__wrapped__(0.5, Grid(3.0, 128), +1)


class TestReduction:
    """``_reduce_block`` on random symmetric matrices with eigenvalues of
    both signs and modulus in [1, 4], against dense references."""

    @staticmethod
    def random_symmetric(rng, n):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * (rng.uniform(1.0, 4.0, n) * rng.choice([-1.0, 1.0], n))) @ q.T
        return 0.5 * (m + m.T)

    @pytest.mark.parametrize("first", ["negative", "zero", "axis"])
    @pytest.mark.parametrize("n", [7, 64])
    def test_matches_dense_references(self, n, first):
        rng = np.random.default_rng(n)
        m = self.random_symmetric(rng, n)
        v = rng.standard_normal(n)
        if first == "axis":
            v = -1.7 * np.eye(n)[0]
        else:
            v[0] = -abs(v[0]) if first == "negative" else 0.0
        d, e, solved = spectral._reduce_block(m.copy(), v, solve=True)
        full = np.linalg.eigvalsh(m)
        cutoff = 0.5 * (full[n // 2] + full[n // 2 + 1])
        below = spectral._eigenvalues_below([(d, e)], cutoff)
        assert len(below) == n // 2 + 1
        assert np.max(np.abs(below - full[: n // 2 + 1])) <= 1e-12 * 4.0
        basis = null_space(v[None, :])
        complement = np.linalg.eigvalsh(basis.T @ m @ basis)[0]
        lowest = eigvalsh_tridiagonal(d[1:], e[1:], select="i", select_range=(0, 0))[0]
        assert abs(lowest - complement) <= 1e-12 * 4.0
        quadratic = v @ np.linalg.solve(m, v)
        assert abs(solved.value - quadratic) <= 1e-12 * (v @ v)
        assert solved.residual <= 1e-12 * 4.0 * np.linalg.norm(v)

    def test_reduction_keeps_one_triangle(self):
        # the reduction overwrites the upper triangle of the C-ordered block
        # (the lower one of its Fortran view); the strict lower triangle and
        # the diagonal still hold M
        rng = np.random.default_rng(5)
        m = self.random_symmetric(rng, 64)
        block = m.copy()
        spectral._reduce_block(block, rng.standard_normal(64), solve=True)
        assert np.array_equal(np.tril(block), np.tril(m))
        assert not np.array_equal(block, m)

    @pytest.mark.parametrize("n", [2, 3])  # one and two stored reflectors
    def test_small_blocks_solve(self, n):
        rng = np.random.default_rng(n)
        m = self.random_symmetric(rng, n)
        v = rng.standard_normal(n)
        _, e, solved = spectral._reduce_block(m.copy(), v, solve=True)
        assert len(e) == n - 1
        quadratic = v @ np.linalg.solve(m, v)
        assert abs(solved.value - quadratic) <= 1e-12 * (v @ v)
        assert solved.residual <= 1e-12 * 4.0 * np.linalg.norm(v)

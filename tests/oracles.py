"""Reference implementations that the tests compare production paths against."""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag, eigh, eigvalsh_tridiagonal, null_space, solve
from scipy.linalg.blas import dgemm, dsymm, dsymv, dsyr2
from scipy.linalg.lapack import dgtsv, dormqr, dsytrd, dsytrd_lwork

from mtmlab import spectral
from mtmlab.conserved import charge, higher_charge
from mtmlab.grid import FieldState, Grid, differentiate, l2_norm_sq, quadrature
from mtmlab.scattering import NU_BLOWUP, PoleEncounterError, ScatteringSample, explicit_In
from mtmlab.soliton import (
    OMEGA_DEGENERATE,
    _check_omega,
    eval_profile,
    profile,
    profile_derivative,
    singularity_distance,
    tail_half_length,
)


def prufer_zero_count(potential, half: float, lam: float) -> int:
    """Zeros on (-half, half] of the left-normalized solution of
    -psi'' + (1 + V(z)) psi = lam psi, counted through the phase
    representation psi = r sin(theta), psi' = r cos(theta).  The phase
    increases through every multiple of pi, so the count is
    floor(theta_end / pi); the phase form avoids the overflow of the growing
    solution on wide domains.  By the oscillation theorem it equals the
    number of eigenvalues below ``lam`` <= 1."""
    kappa = np.sqrt(max(1.0 - lam, 0.0))
    theta0 = np.arctan2(1.0, kappa)  # tan(theta) = psi / psi' = 1 / kappa

    def rhs(z, y):
        s = np.sin(y[0])
        c = np.cos(y[0])
        return [c * c - (1.0 + potential(np.asarray(z)) - lam) * s * s]

    sol = solve_ivp(
        rhs,
        (-half, half),
        [theta0],
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        max_step=2.0 * half / 50.0,
    )
    if not sol.success:
        raise RuntimeError(f"shooting integration failed: {sol.message}")
    return int(np.floor(sol.y[0, -1] / np.pi))


def _linear_tables(grid: Grid, dt: float):
    """cos / sinc tables for exp(i dt M(k)) on each Fourier mode."""
    k = grid.wavenumbers
    freq = np.sqrt(1.0 + k * k)
    return k, np.cos(freq * dt), np.sin(freq * dt) / freq


def _apply_linear(u: np.ndarray, v: np.ndarray, k, cos_t, sinc_t):
    uh = np.fft.fft(u)
    vh = np.fft.fft(v)
    un = cos_t * uh + 1j * sinc_t * (-k * uh + vh)
    vn = cos_t * vh + 1j * sinc_t * (uh + k * vh)
    return np.fft.ifft(un), np.fft.ifft(vn)


def _apply_nonlinear(u: np.ndarray, v: np.ndarray, tau: float):
    # moduli are invariants of this flow, so the pre-step values are exact
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    return u * np.exp(-2j * tau * av), v * np.exp(-2j * tau * au)


def strang_oracle(grid: Grid, u: np.ndarray, v: np.ndarray, dt: float, n: int):
    """``n`` unmerged Strang steps N(dt/2) L(dt) N(dt/2) of the fields (u, v)
    on ``grid``, each step closing its own half-steps."""
    tables = _linear_tables(grid, dt)
    for _ in range(n):
        u, v = _apply_nonlinear(u, v, 0.5 * dt)
        u, v = _apply_linear(u, v, *tables)
        u, v = _apply_nonlinear(u, v, 0.5 * dt)
    return u, v


class FourierInterpolant:
    """Trigonometric interpolation of periodic grid samples, one direct
    N-term sum per call (exact for the grid's Fourier representation).

    Mode m turns m (x + L) / 2L times between -L and x; the turns are
    reduced to [-1/2, 1/2] in long double, so the phase error stays at
    roundoff instead of growing with m (x + L)."""

    def __init__(self, samples: np.ndarray, grid: Grid):
        self._coeff = np.fft.fft(np.asarray(samples, dtype=complex)) / grid.n
        self._modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(np.longdouble)
        self._L = np.longdouble(grid.half_length)

    def __call__(self, x: float) -> complex:
        turns = self._modes * ((np.longdouble(x) + self._L) / (2 * self._L))
        turns -= np.rint(turns)
        return complex(np.sum(self._coeff * np.exp(2j * np.pi * turns.astype(float))))


def riccati_oracle(
    state: FieldState, lam: float, rtol: float = 1e-10, atol: float = 1e-12
) -> ScatteringSample:
    """``riccati_solve`` as one scalar Riccati sweep: RK45 on nu from the left
    edge with each field interpolated by its own direct Fourier sum, nu read
    at the nodes through t_eval, the |nu| = NU_BLOWUP event, and the same
    chi and log a quadrature."""
    lam = float(lam)
    g = state.grid
    u_of = FourierInterpolant(state.u, g)
    v_of = FourierInterpolant(state.v, g)
    k = 0.25 * (lam**-2 - lam**2)
    c = 1j / np.sqrt(2.0)

    def rhs(x, y):
        nu = y[0]
        u = u_of(x)
        v = v_of(x)
        co = lam * np.conj(v) + np.conj(u) / lam
        return [
            -1j * (2.0 * k + abs(v) ** 2 - abs(u) ** 2) * nu
            + c * co * nu * nu
            - c * (lam * v + u / lam)
        ]

    def blowup(x, y):
        return NU_BLOWUP - abs(y[0])

    blowup.terminal = True

    sol = solve_ivp(
        rhs,
        (g.x[0], g.x[-1]),
        [0.0 + 0.0j],
        method="RK45",
        t_eval=g.x,
        rtol=rtol,
        atol=atol,
        events=blowup,
    )
    if sol.status == 1:
        raise PoleEncounterError(lam, float(sol.t_events[0][0]))
    if not sol.success:
        raise RuntimeError(f"Riccati integration failed: {sol.message}")
    nu = sol.y[0]
    co = lam * np.conj(state.v) + np.conj(state.u) / lam
    chi = 0.5j * (np.abs(state.v) ** 2 - np.abs(state.u) ** 2) - c * co * nu
    return ScatteringSample(
        lam=lam, nu=nu, chi=chi, log_a=quadrature(chi, g), nfev=sol.nfev
    )


def calibrate_hierarchy_constants(states) -> tuple[complex, complex, float]:
    """Least-squares fit of (c_R, c_Q) in I_4 - I_-4 = c_R R + c_Q Q over a
    batch of states; returns the coefficients and the fit residual.  The
    calibration that froze ``HIERARCHY_R_COEFF`` and ``HIERARCHY_Q_COEFF``."""
    rows = []
    rhs = []
    for s in states:
        rows.append([higher_charge(s), charge(s)])
        rhs.append(explicit_In(s, 4) - explicit_In(s, -4))
    a = np.asarray(rows, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.max(np.abs(a @ coef - b))) if len(rhs) else 0.0
    return complex(coef[0]), complex(coef[1]), resid


def measured_interpolation_constant(states) -> float:
    """Largest observed ratio of the L4/L6 integrals to the interpolation
    bound ||f'||^(p-1) ||f||^(p+1) across snapshots and components; each
    norm and derivative is computed afresh."""
    best = 0.0
    for s in states:
        g = s.grid
        for f in (s.u, s.v):
            l2 = np.sqrt(max(l2_norm_sq(f, g), 1e-300))
            dl2 = np.sqrt(max(l2_norm_sq(differentiate(f, g), g), 1e-300))
            for p in (2, 3):
                lp = float(np.real(quadrature(np.abs(f) ** (2 * p), g)))
                bound = dl2 ** (p - 1) * l2 ** (p + 1)
                if bound > 0:
                    best = max(best, lp / bound)
    return best


def h1_norm_sq_physical(fields, grid: Grid) -> float:
    """Squared H1 norm ||f||^2 + ||f'||^2 summed over a stack of fields, by
    the rectangle rule on the samples and on their spectral derivative: the
    physical-space reference for the Parseval form of ``grid.h1_norm_sq``."""
    return sum(l2_norm_sq(f, grid) + l2_norm_sq(differentiate(f, grid), grid)
               for f in np.atleast_2d(fields))


def differentiation_matrices_fft(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Dense first/second derivative matrices by FFTs of the identity's
    columns, cleaned to exact (anti)symmetry."""
    f = np.fft.fft(np.eye(grid.n), axis=0)
    d1 = np.real(np.fft.ifft(1j * grid.wavenumbers_odd[:, None] * f, axis=0))
    d2 = np.real(np.fft.ifft(-(grid.wavenumbers[:, None] ** 2) * f, axis=0))
    return 0.5 * (d1 - d1.T), 0.5 * (d2 + d2.T)


def omega_derivative(
    omega: float,
    grid: Grid,
    step: float | None = None,
    return_residual: bool = False,
):
    """d U / d Omega via Richardson-extrapolated central differences in omega.

    Omega = 1 - omega^2, so dU/dOmega = -(1 / 2 omega) dU/domega.  Rejected
    near omega = 0 where the 1/(2 omega) factor blows up.
    """
    _check_omega(omega)
    if abs(omega) < OMEGA_DEGENERATE:
        raise ValueError("Omega-derivative degenerates near omega = 0")
    h = step if step is not None else min(5e-3, 0.2 * (1.0 - abs(omega)))

    def central(hh: float) -> np.ndarray:
        return (profile(omega + hh, grid.x) - profile(omega - hh, grid.x)) / (2.0 * hh)

    d_h = central(h)
    d_h2 = central(h / 2.0)
    d_omega = (4.0 * d_h2 - d_h) / 3.0
    d_big = -d_omega / (2.0 * omega)
    if return_residual:
        return d_big, float(np.max(np.abs(d_h2 - d_h)))
    return d_big


# ---------------------------------------------------------------------------
# spectral layer: the sector similarity, the second variation, and the
# independent routes to sigma

# Constant orthogonal similarity (per grid point) from the plus/minus sector
# pairs (w+, conj w+, w-, conj w-) to the stack (u, v, conj u, conj v).
SECTOR_SIMILARITY = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, -1.0],
        [1.0, 0.0, 1.0, 0.0],
    ]
) / np.sqrt(2.0)
SECTOR_SIMILARITY.setflags(write=False)


def realified_similarity(n: int) -> np.ndarray:
    """Real orthogonal 4N x 4N map from the sector coordinates
    (Re w+, Im w+, Re w-, Im w-) to the Hessian coordinates
    (Re u, Re v, Im u, Im v), read off ``SECTOR_SIMILARITY``: a component
    alpha w + gamma conj(w) has real part (alpha + gamma) Re w and imaginary
    part (alpha - gamma) Im w."""
    small = np.zeros((4, 4))
    for comp in range(2):  # u, v rows of the similarity
        for sector in range(2):  # plus, minus column pairs
            alpha, gamma = SECTOR_SIMILARITY[comp, 2 * sector : 2 * sector + 2]
            small[comp, 2 * sector] = alpha + gamma
            small[2 + comp, 2 * sector + 1] = alpha - gamma
    return np.kron(small, np.eye(n))


def spectral_grid_capped(omega: float) -> Grid:
    """The spectral grid of the earlier rule: the exponent-22 tail, dx <=
    min(0.08, 0.12 d) and N a multiple of 128."""
    half_length = tail_half_length(omega, 22.0)
    dx_target = min(0.08, 0.12 * singularity_distance(omega))
    return Grid(half_length, 128 * int(np.ceil(2.0 * half_length / dx_target / 128.0)))


def sector_vectors(omega: float, grid: Grid, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The sector's realified constraint vector s and kernel vector k:
    (U, U') for plus, (iU', iU) for minus."""
    u = eval_profile(omega, grid)
    up = profile_derivative(omega, grid.x)
    if sign > 0:
        return spectral.embed_conjugate_pair(u), spectral.embed_conjugate_pair(up)
    return (spectral.embed_conjugate_pair(1j * up),
            spectral.embed_conjugate_pair(1j * u))


def symmetric_first_order(g: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """i (g D + D g)/2 for a real coefficient g: Hermitian by construction."""
    return 0.5j * (g[:, None] * d1 + d1 * g[None, :])


def realify_conjugate_pair(linear: np.ndarray, conj_part: np.ndarray) -> np.ndarray:
    """Real matrix for w -> linear @ w + conj_part @ conj(w) acting on the
    stacked coordinates (Re w, Im w).  Symmetric whenever ``linear`` is
    Hermitian and ``conj_part`` is complex symmetric."""
    ar, ai = linear.real, linear.imag
    br, bi = conj_part.real, conj_part.imag
    return np.block([[ar + br, -ai + bi], [ai + bi, ar - br]])


def build_hessian_blocked(omega: float, grid: Grid) -> np.ndarray:
    """``spectral.build_hessian``'s matrix assembled from the four displayed
    complex N x N entries l1, l2, l3 with ``np.block`` and
    ``realify_conjugate_pair``, not written block by block in place."""
    d1, d2 = spectral.differentiation_matrices(grid)
    u = eval_profile(omega, grid)
    up = profile_derivative(omega, grid.x)
    absq = np.abs(u) ** 2
    im_uup = np.imag(np.conj(u) * up)
    re_u2 = np.real(u * u)
    big = 1.0 - omega * omega
    l1 = (
        -d2
        + symmetric_first_order(-4.0 * absq, d1)
        + np.diag(4.0 * im_uup + 10.0 * absq**2 - 4.0 * re_u2 + big)
    )
    l2 = np.diag(-2j * u * up + 4.0 * u**2 * absq - 2.0 * absq)
    l3 = symmetric_first_order(-2.0 * absq, d1) + np.diag(
        2.0 * im_uup + 8.0 * absq**2 - 2.0 * re_u2
    )
    linear = np.block([[l1, 2.0 * l2], [2.0 * np.conj(l2), np.conj(l1)]])
    conj_part = np.block([[l2, l3], [np.conj(l3), np.conj(l2)]])
    return realify_conjugate_pair(linear, conj_part)


def constrained_min_eig_nullspace(omega: float, grid: Grid) -> float:
    """``spectral._constrained_min_eig_hessian`` through an orthonormal
    null-space basis B of the four constraint rows (``null_space``, an SVD)
    and the product B^T H B (``dsymm``, ``dgemm``) instead of Householder
    reflectors applied in place."""
    hessian = spectral.build_hessian(omega, grid).matrix
    basis = null_space(spectral._constraint_rows(omega, grid))
    projected = dgemm(1.0, basis, dsymm(1.0, hessian.T, basis, lower=1), trans_a=1)
    return float(eigh(projected, eigvals_only=True, subset_by_index=[0, 0])[0])


def sector_matrix(omega: float, grid: Grid, sign: int) -> np.ndarray:
    """The realified 2N x 2N sector matrix assembled from its complex
    (linear, conjugate) N x N blocks, without the parity split."""
    d1, d2 = spectral.differentiation_matrices(grid)
    u = eval_profile(omega, grid)
    absq = np.abs(u) ** 2
    big = 1.0 - omega * omega
    if sign > 0:
        g = -6.0 * absq
        pot = 6.0 * absq**2 - 6.0 * omega * absq + big
        off = -6.0 * omega * u**2
    else:
        g = -2.0 * absq
        pot = -2.0 * absq**2 - 2.0 * omega * absq + big
        off = 2.0 * omega * u**2
    linear = -d2 + symmetric_first_order(g, d1) + np.diag(pot)
    m = realify_conjugate_pair(linear, np.diag(off))
    return 0.5 * (m + m.T)


def scalar_parity_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """N x (N/2+1) and N x (N/2-1) orthonormal bases of the even and the odd
    lattice functions under j -> -j mod N, in the coordinate order of the
    parity blocks: e_0, (e_j + e_{N-j})/sqrt 2 for 0 < j < N/2, e_{N/2} and
    (e_j - e_{N-j})/sqrt 2."""
    h = n // 2
    even = np.zeros((n, h + 1))
    odd = np.zeros((n, h - 1))
    even[0, 0] = even[h, h] = 1.0
    for j in range(1, h):
        even[j, j] = even[n - j, j] = odd[j, j - 1] = 1.0 / np.sqrt(2.0)
        odd[n - j, j - 1] = -1.0 / np.sqrt(2.0)
    return even, odd


def parity_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """2N x N orthonormal bases of the K = +1 and K = -1 eigenspaces, in the
    coordinate order of the parity blocks: +1 is (even Re w, odd Im w), -1
    is (odd Re w, even Im w) (``scalar_parity_bases``)."""
    even, odd = scalar_parity_bases(n)
    return block_diag(even, odd), block_diag(odd, even)


def parity_blocks_assembled(grid: Grid, g, pa, pd, q) -> tuple[np.ndarray, float]:
    """``spectral._parity_blocks`` assembled from separate sub-blocks with
    ``np.block``, ``np.diag`` and ``np.stack`` instead of in place."""
    n, h = grid.n, grid.n // 2
    c1, c2 = spectral._derivative_columns(grid)
    even, odd = np.arange(h + 1), np.arange(1, h)
    scale = np.where(even % h == 0, np.sqrt(0.5), 1.0)

    def gather(col, rows, cols, sign):
        return col[(rows[:, None] - cols) % n] + sign * col[(rows[:, None] + cols) % n]

    ee = scale[:, None] * gather(c2, even, even, 1.0) * scale
    oo = gather(c2, odd, odd, -1.0)
    eo = 0.5 * scale[:, None] * (g[: h + 1, None] + g[odd]) * gather(c1, even, odd, -1.0)
    q_eo = np.zeros_like(eo)
    q_eo[odd, odd - 1] = q[odd]
    off_plus, off_minus = q_eo - eo, q_eo + eo
    plus = np.block([[np.diag(pa[: h + 1]) - ee, off_plus], [off_plus.T, np.diag(pd[odd]) - oo]])
    minus = np.block([[np.diag(pa[odd]) - oo, off_minus.T], [off_minus, np.diag(pd[: h + 1]) - ee]])
    wrong = [spectral.parity_split(np.concatenate([c, q]))[1] for c in (g, pa, pd)]
    return np.stack([plus, minus]), max(float(np.max(np.abs(w))) for w in wrong)


def full_matrix(op) -> np.ndarray:
    """The realified 2N x 2N matrix of a stacked operator,
    P+ M+ P+^T + P- M- P-^T."""
    plus, minus = parity_bases(op.matrix.shape[-1])
    return plus @ op.matrix[0] @ plus.T + minus @ op.matrix[1] @ minus.T


def schrodinger_matrix(problem, grid: Grid) -> np.ndarray:
    """The N x N matrix -D2 + diag(1 + V) of a scalar Schrodinger problem
    from the dense circulant D2, without the parity split."""
    _, d2 = spectral.differentiation_matrices(grid)
    return -d2 + np.diag(1.0 + problem.potential(grid.x))


def scalar_full_matrix(op) -> np.ndarray:
    """The N x N matrix of a scalar Schrodinger stack,
    P_e M_e P_e^T + P_o M_o P_o^T, the odd block's padding dropped."""
    even, odd = scalar_parity_bases(2 * (op.matrix.shape[-1] - 1))
    m = odd.shape[1]
    return even @ op.matrix[0] @ even.T + odd @ op.matrix[1, :m, :m] @ odd.T


def block_diagonalize_check(omega: float, grid: Grid) -> float:
    """Max-norm defect of the realified similarity identity
    Q^T H Q = diag(plus, minus) that splits the curvature operator into the
    two sector operators.  The operators are looked up on ``spectral`` at
    call time, so a patched builder is what gets checked."""
    q = realified_similarity(grid.n)
    split = q.T @ spectral.build_hessian(omega, grid).matrix @ q
    target = block_diag(
        full_matrix(spectral.build_sector_operator(omega, grid, +1)),
        full_matrix(spectral.build_sector_operator(omega, grid, -1)),
    )
    return float(np.max(np.abs(split - target)))


def hessian_quadratic_form(op, grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Value of the second variation of Lambda along the perturbation
    (a, b) for the realified Hessian ``op`` on ``grid``: equals
    d^2/d eps^2 of Lambda(soliton + eps (a, b)) at eps = 0."""
    w = spectral.embed_conjugate_pair(np.concatenate([a, b]))
    return float(2.0 * grid.dx * (w @ (op.matrix @ w)))


def generalized_mode_residual(omega: float, grid: Grid) -> float:
    """Realified residual of the minus-sector identity mapping the
    x-weighted combination onto the translation-type constraint vector."""
    matrix = full_matrix(spectral.build_sector_operator(omega, grid, -1))
    u = eval_profile(omega, grid)
    up = profile_derivative(omega, grid.x)
    x1 = -0.5 * grid.x * u - 1j * u / (4.0 * omega)
    lhs = matrix @ spectral.embed_conjugate_pair(1j * x1)
    rhs = spectral.embed_conjugate_pair(1j * up)
    return float(np.max(np.abs(lhs - rhs)))


# |eigenvalue| at or below this is treated as kernel by the sigma references
KERNEL_DEFLATION = 1e-8


def sigma_deflated(omega: float, grid: Grid, sign: int) -> float:
    """Reference for ``sigma_index`` on the 2N x 2N ``sector_matrix``: one
    symmetric solve with the kernel deflated.  With K the isolated
    eigenvectors with |lambda| <= KERNEL_DEFLATION and s_perp = s - K K^T s,
    sigma = 2 dx s_perp^T (M + K K^T)^{-1} s_perp."""
    if abs(omega) < OMEGA_DEGENERATE:
        raise ValueError("sigma solve is degenerate near omega = 0")
    m = sector_matrix(omega, grid, sign)
    edge = 1.0 - omega * omega
    vals, vecs = eigh(m, subset_by_value=(-np.inf, edge * (1.0 - spectral.CONTINUUM_MARGIN)))
    kernel = vecs[:, np.abs(vals) <= KERNEL_DEFLATION]
    if kernel.shape[1] == 0:
        raise RuntimeError(f"sector {sign:+d} at omega={omega!r}: no kernel eigenvalue")
    s = sector_vectors(omega, grid, sign)[0]
    s_perp = s - kernel @ (kernel.T @ s)
    x = solve(m + kernel @ kernel.T, s_perp, assume_a="sym")
    return float(2.0 * grid.dx * (s_perp @ x))


def constrained_min_2n(omega: float, grid: Grid, sign: int) -> float:
    """Reference for a sector's constrained minimum on the 2N x 2N
    ``sector_matrix``: with C an orthonormal basis of {s, k} and P = I - C C^T,
    the smallest eigenvalue of P M P + 10 C C^T, whose eigenvalues are those of
    M on the complement of {s, k} plus 10 (above any constrained minimum,
    which is below the continuum edge <= 1) twice."""
    m = sector_matrix(omega, grid, sign)
    c, _ = np.linalg.qr(np.column_stack(sector_vectors(omega, grid, sign)))
    mc = m @ c
    projected = m - c @ mc.T - mc @ c.T + c @ (c.T @ mc) @ c.T + 10.0 * (c @ c.T)
    return float(eigh(projected, eigvals_only=True, subset_by_index=[0, 0])[0])


def reduce_block_copying(matrix: np.ndarray, vector=None, solve: bool = False):
    """``spectral._reduce_block`` on a Fortran-ordered copy of the block,
    which stays intact: the sigma residual applies M from its lower
    triangle."""
    n = matrix.shape[0]
    t = np.array(matrix, order="C").T
    if vector is not None:
        h = np.array(vector, dtype=float)
        a = np.copysign(np.linalg.norm(h), h[0])
        h[0] += a
        beta = 2.0 / (h @ h)
        p = dsymv(beta, matrix.T, h, lower=1)
        w = p - (0.5 * beta * (p @ h)) * h
        t = dsyr2(-1.0, h, w, lower=1, a=t, overwrite_a=1)
    lwork, _ = dsytrd_lwork(n, lower=1)
    c, d, e, tau, _ = dsytrd(t, lower=1, lwork=int(lwork), overwrite_a=1)
    if not solve:
        return d, e, None
    *_, y, info = dgtsv(e, d, e, np.eye(1, n)[0])
    if info:
        raise np.linalg.LinAlgError("singular block: v^T M^{-1} v is undefined")
    value = float(a * a * y[0])
    y[1:] = dormqr("L", "N", c[1:, : n - 1], tau, y[1:, None], 1)[0][:, 0]
    x = -a * (y - (beta * (h @ y)) * h)
    residual = dsymv(1.0, matrix.T, x, beta=-1.0, y=vector, lower=1)
    return d, e, spectral.SigmaSolve(value, float(np.max(np.abs(residual))))


def sector_analysis_stacked(omega: float, grid: Grid, sign: int):
    """``spectral.sector_analysis`` through the (2, N, N) stack of
    ``build_sector_operator``, each block reduced by
    ``reduce_block_copying``."""
    (s, _), (_, k) = spectral._sector_constraints(omega, grid, sign)
    op = spectral.build_sector_operator(omega, grid, sign)
    plus, minus = op.matrix
    *t_plus, solved = reduce_block_copying(plus, s, solve=abs(omega) >= OMEGA_DEGENERATE)
    tridiagonals = (t_plus, reduce_block_copying(minus, k)[:2])
    lowest = min(float(eigvalsh_tridiagonal(d[1:], e[1:], select="i", select_range=(0, 0))[0])
                 for d, e in tridiagonals)
    if solved is not None:
        solved = solved._replace(value=2.0 * grid.dx * solved.value)
    return spectral.SectorAnalysis(spectral._eigenvalues_below(tridiagonals, op.cutoff), lowest,
                                   solved, op.parity_defect, op.cutoff)


def sigma_index_eigh(omega: float, grid: Grid, sign: int) -> float:
    """Reference for ``sigma_index``: the eigen-sum over the full spectrum of
    the 2N x 2N ``sector_matrix``, dropping |lambda| <= KERNEL_DEFLATION."""
    if abs(omega) < OMEGA_DEGENERATE:
        raise ValueError("sigma solve is degenerate near omega = 0")
    s = sector_vectors(omega, grid, sign)[0]
    vals, vecs = eigh(sector_matrix(omega, grid, sign))
    keep = np.abs(vals) > KERNEL_DEFLATION
    proj = vecs[:, keep].T @ s
    return float(2.0 * grid.dx * np.sum(proj * proj / vals[keep]))


def sigma_profile_path(omega: float, grid: Grid, sign: int) -> float:
    """The independent route to sigma through the known solutions of the
    sector equations: the Omega-derivative of the profile for the plus
    sector, the displayed x-weighted combination for the minus sector."""
    if abs(omega) < OMEGA_DEGENERATE:
        raise ValueError("sigma diverges at omega = 0")
    u = eval_profile(omega, grid)
    if sign > 0:
        du = omega_derivative(omega, grid)
        return float(-2.0 * np.real(quadrature(du * np.conj(u), grid)))
    up = profile_derivative(omega, grid.x)
    x1 = -0.5 * grid.x * u - 1j * u / (4.0 * omega)
    return float(2.0 * np.real(quadrature(x1 * np.conj(up), grid)))


def difference_sector_kernel_mode(omega: float, z: np.ndarray) -> np.ndarray:
    """Closed-form eigenfunction with eigenvalue 0 of the stretched
    difference-sector problem."""
    return 1.0 / np.sqrt(omega + np.cosh(2.0 * np.asarray(z, dtype=float)))


def coupled_kernel_mode(omega: float, z: np.ndarray) -> np.ndarray:
    """Closed-form eigenfunction with eigenvalue 0 of the stretched coupled
    plus-sector problem."""
    z = np.asarray(z, dtype=float)
    den = omega + np.cosh(2.0 * z)
    return (
        omega * np.sinh(2.0 * z) + 1j * np.sqrt(1.0 - omega * omega) * np.cosh(2.0 * z)
    ) / den**1.5

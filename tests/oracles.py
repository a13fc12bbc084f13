"""Reference implementations that the tests compare production paths against."""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag, eigh, eigvalsh_tridiagonal, null_space, solve
from scipy.linalg.blas import dgemm, dsymm
from scipy.linalg.lapack import dgeqrf, dormqr

from mtmlab import scattering, spectral
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


def sweep_sequential(alpha: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scattering._sweep`` as one left-to-right loop: each cell propagator
    [[a, -conj(g)], [g, conj(a)]] applied in turn to phi(x_0) = (1, 0)."""
    p1, p2 = 1.0 + 0.0j, 0.0j
    phi1, phi2 = [p1], [p2]
    for a, g in zip(alpha.tolist(), gamma.tolist()):
        p1, p2 = a * p1 - g.conjugate() * p2, g * p1 + a.conjugate() * p2
        phi1.append(p1)
        phi2.append(p2)
    return np.array(phi1), np.array(phi2)


def riccati_adaptive_start(state: FieldState, lam: float) -> ScatteringSample:
    """``riccati_solve`` with the cell propagators from a DOP853 solve that
    picks its own first step, and phi from ``sweep_sequential``.  Only for
    states whose cells the Lipschitz screen clears: a flagged cell raises."""
    lam = float(lam)
    g = state.grid
    n = g.n - 1
    sample = scattering._field_sampler(state.u, state.v, g)

    def rhs(s, y):
        diag, low = scattering._lax(*sample(s)[:, :n], lam)
        alpha, gamma = y[:n], y[n:]
        return np.concatenate(
            [diag * alpha - np.conj(low) * gamma, low * alpha - diag * gamma]
        )

    y0 = np.zeros(2 * n, dtype=complex)
    y0[:n] = 1.0
    sol = solve_ivp(
        rhs,
        (0.0, g.dx),
        y0,
        method="DOP853",
        rtol=scattering.RICCATI_RTOL,
        atol=scattering.RICCATI_ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"cell propagator integration failed: {sol.message}")
    phi1, phi2 = sweep_sequential(sol.y[:n, -1], sol.y[n:, -1])
    _, low = scattering._lax(state.u, state.v, lam)
    if scattering._pole_candidates(low, g, phi1).size:
        raise RuntimeError("the Lipschitz screen flags cells; the oracle does not re-solve them")
    nu = phi2 / phi1
    chi = 0.5j * (np.abs(state.v) ** 2 - np.abs(state.u) ** 2) - np.conj(low) * nu
    return ScatteringSample(lam=lam, nu=nu, chi=chi, log_a=quadrature(chi, g), nfev=sol.nfev)


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


def hermitian_densities(state: FieldState) -> dict[str, np.ndarray]:
    """Densities of Q and, as complex Hermitian combinations, of P, H, the
    higher density rho and the balance flux F, as first written: each is
    real up to roundoff, the reference for the real-current densities of
    ``mtmlab.conserved``."""
    u, v = state.u, state.v
    ux, vx = differentiate((u, v), state.grid)
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    p = 0.5j * (u * np.conj(ux) - ux * np.conj(u) + v * np.conj(vx) - vx * np.conj(v))
    h = 0.5j * (u * np.conj(ux) - ux * np.conj(u) - v * np.conj(vx) + vx * np.conj(v))
    h = h - v * np.conj(u) - u * np.conj(v) + 2.0 * au * av
    rho = (
        np.abs(ux) ** 2
        + np.abs(vx) ** 2
        - 0.5j * (ux * np.conj(u) - np.conj(ux) * u) * (au + 2.0 * av)
        + 0.5j * (vx * np.conj(v) - np.conj(vx) * v) * (2.0 * au + av)
        - (u * np.conj(v) + np.conj(u) * v) * (au + av)
        + 2.0 * au * av * (au + av)
    )
    flux = (
        np.abs(ux) ** 2
        - np.abs(vx) ** 2
        - 0.5j * (ux * np.conj(u) - np.conj(ux) * u) * (au + 2.0 * av)
        - 0.5j * (vx * np.conj(v) - np.conj(vx) * v) * (2.0 * au + av)
        - 0.5 * (u * np.conj(v) + np.conj(u) * v) * (au - av)
    )
    return {"Q": au + av, "P": p, "H": h, "rho": rho, "flux": flux}


def explicit_In_displayed(state: FieldState, n: int) -> complex:
    """The low-order hierarchy integrals I_n with I_-2 and I_-4 written out
    as displayed, not derived from I_2 and I_4."""
    u, v = state.u, state.v
    g = state.grid
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    if n == 0:
        return quadrature(au + av, g)
    ux, vx = differentiate((u, v), g)
    cross = 1j * np.conj(v) * u + 1j * np.conj(u) * v
    if n == 2:
        dens = -2.0 * ux * np.conj(u) + cross - 2j * au * av
        return quadrature(dens, g)
    if n == -2:
        dens = -2.0 * vx * np.conj(v) - cross + 2j * au * av
        return quadrature(dens, g)
    total = au + av
    pair = u * np.conj(v) + v * np.conj(u)
    if n == 4:
        uxx, uav_x = differentiate((ux, u * av), g)
        dens = (
            -4j * np.conj(u) * uxx
            - 2.0 * (ux * np.conj(v) + np.conj(u) * vx)
            + 4.0 * np.conj(u) * uav_x
            + 4.0 * ux * np.conj(u) * total
            + 1j * total
            - 2j * pair * total
            + 4j * au * av * total
        )
        return quadrature(dens, g)
    if n != -4:
        raise ValueError(f"no displayed formula for I_{n}")
    vxx, vau_x = differentiate((vx, v * au), g)
    dens = (
        4j * np.conj(v) * vxx
        - 2.0 * (ux * np.conj(v) + np.conj(u) * vx)
        + 4.0 * np.conj(v) * vau_x
        + 4.0 * vx * np.conj(v) * total
        - 1j * total
        + 2j * pair * total
        - 4j * au * av * total
    )
    return quadrature(dens, g)


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


def uniform_spectral_grid(omega: float, n: int | None = None) -> Grid:
    """The uniform spectral grid of the strip rule that ``spectral_grid``'s
    sinh map replaced: the exponent-22 tail, dx <= 0.12 d (d the
    singularity distance) with no cap, and N the next multiple of 64;
    ``n`` overrides it."""
    half_length = tail_half_length(omega, 22.0)
    if n is None:
        n = 64 * int(np.ceil(2.0 * half_length / (0.12 * singularity_distance(omega)) / 64.0))
    return Grid(half_length, n)


def spectral_grid_capped(omega: float) -> Grid:
    """The spectral grid of the earlier rule: the exponent-22 tail, dx <=
    min(0.08, 0.12 d) and N a multiple of 128."""
    half_length = tail_half_length(omega, 22.0)
    dx_target = min(0.08, 0.12 * singularity_distance(omega))
    return Grid(half_length, 128 * int(np.ceil(2.0 * half_length / dx_target / 128.0)))


def map_of(grid):
    """The uniform lattice under ``grid`` and the Jacobian J of its sinh map,
    or None on a uniform grid, which has no map.  Decided here, not through
    ``spectral._map_of``, whose identity-map convention the oracles check."""
    if isinstance(grid, spectral.MappedGrid):
        return grid.lattice, grid.jacobian
    return grid, None


def half_density(grid):
    """J^(1/2), which turns samples of w into samples of phi = J^(1/2) w,
    the coordinates of the mapped operators; 1 on a uniform grid."""
    jacobian = map_of(grid)[1]
    return 1.0 if jacobian is None else np.sqrt(jacobian)


def map_curvature(grid) -> np.ndarray:
    """a'' of a = 1/J = sech(xi)/s on a mapped grid's lattice:
    (sech - 2 sech^3)/s, plus at the wrap (j = 0) the jump of
    a' = -sinh/(s cosh^2) between xi = Xi and -Xi over h."""
    lattice = grid.lattice
    sech = 1.0 / np.cosh(lattice.x)
    curvature = (sech - 2.0 * sech**3) / grid.scale
    wrap = lattice.half_length
    curvature[0] += 2.0 * np.sinh(wrap) / (grid.scale * np.cosh(wrap) ** 2) / lattice.dx
    return curvature


def kinetic_matrix(grid) -> np.ndarray:
    """-d^2/dx^2 as a dense N x N matrix: -D2 on a uniform grid; on a mapped
    grid, acting on phi = J^(1/2) w, R (-(A D2 + D2 A)/2 + diag(a'')/2) R
    with a = 1/J, A = diag(a), R = J^(-1/2), D2 the lattice's circulant and
    a'' from ``map_curvature``."""
    lattice, jacobian = map_of(grid)
    _, d2 = spectral.differentiation_matrices(lattice)
    if jacobian is None:
        return -d2
    a = 1.0 / jacobian
    r = np.sqrt(a)
    inner = -0.5 * (a[:, None] * d2 + d2 * a) + np.diag(0.5 * map_curvature(grid))
    return r[:, None] * inner * r


def sector_vectors(omega: float, grid, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The sector's realified constraint vector s and kernel vector k:
    (U, U') for plus, (iU', iU) for minus, times J^(1/2) on a mapped grid."""
    root = half_density(grid)
    u = root * eval_profile(omega, grid)
    up = root * profile_derivative(omega, grid.x)
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


def build_hessian_blocked(omega: float, grid) -> np.ndarray:
    """``spectral.build_hessian``'s matrix assembled from the four displayed
    complex N x N entries l1, l2, l3 with ``np.block`` and
    ``realify_conjugate_pair``, not written block by block in place.  On a
    mapped grid it acts on J^(1/2) (u, v), as ``sector_matrix`` does: the
    kinetic part is ``kinetic_matrix``, both first-order terms i S(g/J)."""
    lattice, jacobian = map_of(grid)
    d1, _ = spectral.differentiation_matrices(lattice)
    u = eval_profile(omega, grid)
    up = profile_derivative(omega, grid.x)
    absq = np.abs(u) ** 2
    im_uup = np.imag(np.conj(u) * up)
    re_u2 = np.real(u * u)
    big = 1.0 - omega * omega
    g1, g3 = -4.0 * absq, -2.0 * absq
    if jacobian is not None:
        g1, g3 = g1 / jacobian, g3 / jacobian
    l1 = (
        kinetic_matrix(grid)
        + symmetric_first_order(g1, d1)
        + np.diag(4.0 * im_uup + 10.0 * absq**2 - 4.0 * re_u2 + big)
    )
    l2 = np.diag(-2j * u * up + 4.0 * u**2 * absq - 2.0 * absq)
    l3 = symmetric_first_order(g3, d1) + np.diag(
        2.0 * im_uup + 8.0 * absq**2 - 2.0 * re_u2
    )
    linear = np.block([[l1, 2.0 * l2], [2.0 * np.conj(l2), np.conj(l1)]])
    conj_part = np.block([[l2, l3], [np.conj(l3), np.conj(l2)]])
    return realify_conjugate_pair(linear, conj_part)


def build_hessian_in_place(omega: float, grid) -> np.ndarray:
    """The realified 4N x 4N Hessian on (Re u, Re v, Im u, Im v) written
    block by block into one array from the dense circulants D1, D2, the
    route ``spectral.build_hessian`` took before it wrote the K4 blocks:
    -D2 (mapped as ``spectral._mapped_kinetic`` says) on the four diagonal
    blocks, +-S(g1/J) and +-S(g3/J) on the (Re, Im) blocks, and the sums of
    p1, p3 and Re, Im l2 on their diagonals."""
    lattice, jacobian = map_of(grid)
    jacobian = 1.0 if jacobian is None else jacobian
    n = grid.n
    d1, d2 = spectral.differentiation_matrices(lattice)
    *weights, kinetic = spectral._mapped_kinetic(grid)
    u = eval_profile(omega, grid)
    up = profile_derivative(omega, grid.x)
    absq = np.abs(u) ** 2
    im_uup = np.imag(np.conj(u) * up)
    re_u2 = np.real(u * u)
    p1 = 4.0 * im_uup + 10.0 * absq**2 - 4.0 * re_u2 + (1.0 - omega * omega) + kinetic
    p3 = 2.0 * im_uup + 8.0 * absq**2 - 2.0 * re_u2
    l2 = -2j * u * up + 4.0 * u**2 * absq - 2.0 * absq
    g1, g3 = -4.0 * absq / jacobian, -2.0 * absq / jacobian
    matrix = np.zeros((4 * n, 4 * n))
    blocks = matrix.reshape(4, n, 4, n).swapaxes(1, 2)  # blocks[r, c]: an N x N view
    np.negative(d2, out=blocks[0, 0])
    spectral._weight_kinetic(blocks[0, 0], *weights)
    blocks[1, 1] = blocks[2, 2] = blocks[3, 3] = blocks[0, 0]
    for g, plus, minus in ((g1, [(1, 3), (2, 0)], [(0, 2), (3, 1)]),
                           (g3, [(0, 3), (2, 1)], [(1, 2), (3, 0)])):
        s = blocks[plus[0]]
        np.multiply(g[:, None], d1, out=s)
        s += d1 * g
        s *= 0.5
        blocks[plus[1]] = s
        for rc in minus:
            np.negative(s, out=blocks[rc])
    i = np.arange(n)
    l1_diagonal = blocks[0, 0, i, i] + p1
    re, im = l2.real, l2.imag
    a, b = l1_diagonal + re, l1_diagonal - re
    c, d = 2.0 * re + p3, 2.0 * re - p3
    blocks[:, :, i, i] = [[a, c, im, -2.0 * im],
                          [c, a, 2.0 * im, -im],
                          [im, 2.0 * im, b, d],
                          [-2.0 * im, -im, d, b]]
    return matrix


def constrained_min_eig_householder(omega: float, grid) -> float:
    """``spectral._constrained_min_eig_hessian`` on the whole 4N x 4N
    Hessian of ``build_hessian_in_place``: the four constraint rows C are
    factored as C^T = Q R (``dgeqrf``), their Householder reflectors applied
    in place from both sides (``dormqr``), and one subset ``eigh`` of the
    trailing (4N - 4)-square block of Q^T H Q."""
    projected = build_hessian_in_place(omega, grid).T  # Fortran-ordered, as H is symmetric
    reflectors, tau, *_ = dgeqrf(spectral._constraint_rows(omega, grid).T)
    for side, trans in (("L", "T"), ("R", "N")):
        projected, *_ = dormqr(side, trans, reflectors, tau, projected, len(projected),
                               overwrite_c=1)
    vals = eigh(projected[4:, 4:], eigvals_only=True, subset_by_index=[0, 0], overwrite_a=True)
    return float(vals[0])


def constrained_min_eig_nullspace(omega: float, grid: Grid) -> float:
    """``constrained_min_eig_householder`` through an orthonormal null-space
    basis B of the four constraint rows (``null_space``, an SVD) and the
    product B^T H B (``dsymm``, ``dgemm``) instead of Householder reflectors
    applied in place."""
    hessian = build_hessian_in_place(omega, grid)
    basis = null_space(spectral._constraint_rows(omega, grid))
    projected = dgemm(1.0, basis, dsymm(1.0, hessian.T, basis, lower=1), trans_a=1)
    return float(eigh(projected, eigvals_only=True, subset_by_index=[0, 0])[0])


def sector_matrix(omega: float, grid, sign: int) -> np.ndarray:
    """The realified 2N x 2N sector matrix assembled from its complex
    (linear, conjugate) N x N blocks, without the parity split.  On a mapped
    grid it acts on phi = J^(1/2) w: the kinetic part is ``kinetic_matrix``,
    the first-order term i S(g/J), the potentials are unchanged."""
    lattice, jacobian = map_of(grid)
    d1, _ = spectral.differentiation_matrices(lattice)
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
    if jacobian is not None:
        g = g / jacobian
    linear = kinetic_matrix(grid) + symmetric_first_order(g, d1) + np.diag(pot)
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
    """The K = +1 and K = -1 blocks that ``spectral._parity_block`` writes in
    place (stacked as ``spectral._parity_stack`` stacks them) on a uniform
    grid, assembled from separate sub-blocks with ``np.block``, ``np.diag``
    and ``np.stack``, and the coefficients' parity defect."""
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


def hessian_matrix(op) -> np.ndarray:
    """The realified 4N x 4N Hessian on (Re u, Re v, Im u, Im v) of the K4
    stack of ``spectral.build_hessian``, P+ M+ P+^T + P- M- P-^T with the
    orthonormal bases P+ = diag(E, E, O, O) and P- = diag(O, O, E, E) of the
    K4 = +1 and -1 eigenspaces (E, O from ``scalar_parity_bases``)."""
    even, odd = scalar_parity_bases(op.matrix.shape[-1] // 2)
    plus, minus = block_diag(even, even, odd, odd), block_diag(odd, odd, even, even)
    return plus @ op.matrix[0] @ plus.T + minus @ op.matrix[1] @ minus.T


def full_matrix(op) -> np.ndarray:
    """The realified 2N x 2N matrix of a stacked operator,
    P+ M+ P+^T + P- M- P-^T."""
    plus, minus = parity_bases(op.matrix.shape[-1])
    return plus @ op.matrix[0] @ plus.T + minus @ op.matrix[1] @ minus.T


def schrodinger_matrix(problem, grid) -> np.ndarray:
    """The N x N matrix ``kinetic_matrix`` + diag(1 + V) of a scalar
    Schrodinger problem (-D2 + diag(1 + V) on a uniform grid) from the dense
    circulant D2, without the parity split."""
    return kinetic_matrix(grid) + np.diag(1.0 + problem.potential(grid.x))


def scalar_full_matrix(op) -> np.ndarray:
    """The N x N matrix of a scalar Schrodinger stack,
    P_e M_e P_e^T + P_o M_o P_o^T, the odd block's padding dropped."""
    even, odd = scalar_parity_bases(2 * (op.matrix.shape[-1] - 1))
    m = odd.shape[1]
    return even @ op.matrix[0] @ even.T + odd @ op.matrix[1, :m, :m] @ odd.T


def block_diagonalize_check(omega: float, grid: Grid) -> float:
    """Max-norm defect of the realified similarity identity
    Q^T H Q = diag(plus, minus) that splits the curvature operator into the
    two sector operators, H the production K4 stack reassembled
    (``hessian_matrix``).  The operators are looked up on ``spectral`` at
    call time, so a patched builder is what gets checked."""
    q = realified_similarity(grid.n)
    split = q.T @ hessian_matrix(spectral.build_hessian(omega, grid)) @ q
    target = block_diag(
        full_matrix(spectral.build_sector_operator(omega, grid, +1)),
        full_matrix(spectral.build_sector_operator(omega, grid, -1)),
    )
    return float(np.max(np.abs(split - target)))


def hessian_quadratic_form(op, grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Value of the second variation of Lambda along the perturbation
    (a, b) for the Hessian ``op`` on ``grid`` (its K4 stack, reassembled by
    ``hessian_matrix``): equals d^2/d eps^2 of Lambda(soliton + eps (a, b))
    at eps = 0."""
    w = spectral.embed_conjugate_pair(np.concatenate([a, b]))
    return float(2.0 * grid.dx * (w @ (hessian_matrix(op) @ w)))


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
    sigma = 2 h s_perp^T (M + K K^T)^{-1} s_perp."""
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
    return float(2.0 * map_of(grid)[0].dx * (s_perp @ x))


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


def sector_analysis_stacked(omega: float, grid: Grid, sign: int):
    """``spectral.sector_analysis`` through the (2, N, N) stack of
    ``build_sector_operator``, each block reduced by
    ``spectral._reduce_block``."""
    _, s, k, _ = spectral._sector_setup(omega, grid, sign)
    op = spectral.build_sector_operator(omega, grid, sign)
    plus, minus = op.matrix
    *t_plus, solved = spectral._reduce_block(plus, s, solve=abs(omega) >= OMEGA_DEGENERATE)
    tridiagonals = (t_plus, spectral._reduce_block(minus, k)[:2])
    lowest = min(float(eigvalsh_tridiagonal(d[1:], e[1:], select="i", select_range=(0, 0))[0])
                 for d, e in tridiagonals)
    if solved is not None:
        solved = solved._replace(value=2.0 * map_of(grid)[0].dx * solved.value)
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
    return float(2.0 * map_of(grid)[0].dx * np.sum(proj * proj / vals[keep]))


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

"""Scattering-side invariants of the massive Thirring model.

The transmission coefficient a(lambda) of the associated linear (Lax)
x-problem is time-invariant under the flow.  Writing the Jost solution in
exponential form reduces its computation to a scalar Riccati equation for
an auxiliary ratio nu(x; lambda):

    nu_x + i (2 k + |v|^2 - |u|^2) nu
         - (i/sqrt 2) (lambda conj(v) + conj(u)/lambda) nu^2
         + (i/sqrt 2) (lambda v + u/lambda) = 0,      k = (1/lambda^2 - lambda^2)/4,

with nu -> 0 on the left.  Then

    chi = (i/2)(|v|^2 - |u|^2) - (i/sqrt 2)(lambda conj(v) + conj(u)/lambda) nu

and log a(lambda) = integral of chi.  Expanding chi in powers of lambda
generates the charge hierarchy; the explicit low-order integrals I_0, I_2,
I_-2, I_4, I_-4 are evaluated here directly and tied back to Q, P, H, R.

nu is the ratio phi_2 / phi_1 of the Lax x-problem phi' = A phi,

    A = [[i k + (i/2)(|v|^2 - |u|^2),  -(i/sqrt 2)(lambda conj(v) + conj(u)/lambda)],
         [-(i/sqrt 2)(lambda v + u/lambda),  -i k - (i/2)(|v|^2 - |u|^2)]],

traceless and skew-Hermitian for real lambda, so every cell propagator lies
in SU(2) and is fixed by its first column.  The first columns of all N - 1
cell propagators are integrated together by one DOP853 ``solve_ivp`` over
the cell coordinate s in [0, dx] (kept so that the benchmark tracer can wrap
it and count right-hand-side evaluations), each stage sampling u and v at
every x_j + s by one Fourier shift of their trigonometric interpolant.  The
solve starts with one step over the whole cell, which meets the tolerances
on its own for 0.5 <= lambda <= 2 (13 evaluations); a rejected step falls
back to DOP853's step control.  The prefix products of the cell
propagators, formed in ceil(log2 (N - 1)) doubling passes, carry
phi(x_0) = (1, 0) to phi, hence nu, at every node.  A cell that a Lipschitz screen cannot certify free of
|nu| >= NU_BLOWUP is solved again by the Riccati equation with a blow-up
event, which reports where nu blows up.  A is written once, in ``_lax``, and
the propagators, the Riccati equation, chi and the screen read it there.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .conserved import charge, hamiltonian, higher_charge, momentum
from .grid import FieldState, Grid, differentiate, quadrature, write_table

LAMBDA_WINDOW = (0.05, 20.0)
NU_BLOWUP = 1e6
# DOP853 tolerances of the Riccati solve
RICCATI_RTOL = 1e-10
RICCATI_ATOL = 1e-12

# Proportionality constants tying I_4 - I_-4 to the higher charge and the
# charge.  Frozen from a least-squares calibration over 12 random smooth
# decaying fields (N = 2048, L = 30); the fit residual was 8.9e-16.  The
# calibration is ``tests/oracles.py::calibrate_hierarchy_constants``.
HIERARCHY_R_COEFF = 4j
HIERARCHY_Q_COEFF = 2j


class PoleEncounterError(RuntimeError):
    """The Riccati ratio nu = phi_2 / phi_1 blew up: phi_1 vanishes somewhere
    in the domain.  That happens at a zero of a(lambda), but also wherever
    phi_1 has a zero inside the domain while |a(lambda)| = 1, as at
    lambda = 1 on the solitons, where phi_1 vanishes at x = 0."""

    def __init__(self, lam: float, position: float):
        super().__init__(
            f"Riccati ratio exceeded {NU_BLOWUP:.0e} at x = {position:.6g} "
            f"for lambda = {lam}"
        )
        self.lam = lam
        self.position = position


@dataclass(frozen=True)
class ScatteringSample:
    """Riccati solve output at one real spectral parameter."""

    lam: float
    nu: np.ndarray
    chi: np.ndarray
    log_a: complex
    nfev: int  # right-hand-side evaluations of the solves behind the sample

    @property
    def k(self) -> float:
        """Jost wavenumber, always recomputed from lambda."""
        return 0.25 * (self.lam**-2 - self.lam**2)


def _field_sampler(u: np.ndarray, v: np.ndarray, grid: Grid):
    """s -> [u, v] at x_j + s for every node j, shape (2, N): one Fourier
    shift of the pair's trigonometric interpolant (the Nyquist mode at
    j = -N/2, as in ``Grid.wavenumbers``)."""
    coeff = np.fft.fft(np.stack([u, v]))
    ik = 1j * grid.wavenumbers

    def at(s: float) -> np.ndarray:
        return np.fft.ifft(coeff * np.exp(ik * s))

    return at


def _lax(u, v, lam: float):
    """(diag, low) = (A_11, A_21) of the module docstring's Lax matrix A at
    the samples (u, v); A_22 = -diag and A_12 = -conj(low)."""
    k = 0.25 * (lam**-2 - lam**2)
    diag = 1j * (k + 0.5 * (v.real**2 + v.imag**2 - u.real**2 - u.imag**2))
    low = (-1j / math.sqrt(2.0)) * (lam * v + u / lam)
    return diag, low


def _cell_propagators(sample, lam: float, grid: Grid) -> tuple[np.ndarray, np.ndarray, int]:
    """First columns (alpha, gamma) of the N - 1 cell propagators of
    phi' = A phi, each over [x_j, x_j + dx] from (1, 0), all cells in one
    DOP853 solve whose first step spans the whole cell; returns them with the
    solve's right-hand-side count (13 when that step is accepted).  A is
    traceless and skew-Hermitian for real lambda, so each propagator is
    [[alpha, -conj(gamma)], [gamma, conj(alpha)]] in SU(2)."""
    n = grid.n - 1

    def rhs(s, y):
        diag, low = _lax(*sample(s)[:, :n], lam)
        alpha, gamma = y[:n], y[n:]
        return np.concatenate(
            [diag * alpha - np.conj(low) * gamma, low * alpha - diag * gamma]
        )

    y0 = np.zeros(2 * n, dtype=complex)
    y0[:n] = 1.0
    sol = solve_ivp(
        rhs,
        (0.0, grid.dx),
        y0,
        method="DOP853",
        rtol=RICCATI_RTOL,
        atol=RICCATI_ATOL,
        first_step=grid.dx,
    )
    # the dropped solver sits in a reference cycle (its counting wrapper of
    # rhs closes over it) with its (16, 2N - 2) stage array; collecting the
    # young generations frees that now rather than at a full collection
    gc.collect(1)
    if not sol.success:
        raise RuntimeError(f"cell propagator integration failed: {sol.message}")
    return sol.y[:n, -1], sol.y[n:, -1], sol.nfev


def _sweep(alpha: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi at every node: the cell propagators applied left to right to
    phi(x_0) = (1, 0).

    phi(x_j) is the first column of the prefix product M_(j-1) ... M_0.  The
    matrices [[a, -conj(g)], [g, conj(a)]] are closed under products, so each
    is kept as its first column (a, g), and a Hillis-Steele scan forms all
    prefix products in ceil(log2 (N - 1)) passes: pass d composes every
    product of the cells (j - d, j] with the one ending at j - d."""
    a = np.concatenate(([1.0 + 0.0j], alpha))
    g = np.concatenate(([0.0j], gamma))
    d = 1
    while d < a.size - 1:
        hi_a, hi_g, lo_a, lo_g = a[d + 1 :], g[d + 1 :], a[1:-d], g[1:-d]
        a[d + 1 :], g[d + 1 :] = (
            hi_a * lo_a - np.conj(hi_g) * lo_g,
            hi_g * lo_a + np.conj(hi_a) * lo_g,
        )
        d *= 2
    return a, g


def _pole_candidates(low: np.ndarray, grid: Grid, phi1: np.ndarray) -> np.ndarray:
    """Cells the Lipschitz screen cannot certify free of |nu| >= NU_BLOWUP.

    |phi| = 1 and the diagonal of A is imaginary, so |phi_1| moves at most
    at |A_12| = |A_21|, which the l1 norm of the Fourier coefficients of A_21
    bounds by L; ``low`` is A_21 at the nodes of ``grid``.  On cell j,
    |phi_1| then stays above (|phi_1j| + |phi_1,j+1| - L dx) / 2, and
    |nu| < NU_BLOWUP wherever |phi_1| > 1/NU_BLOWUP.
    """
    lip = np.sum(np.abs(np.fft.fft(low))) / grid.n
    mod = np.abs(phi1)
    floor = 0.5 * (mod[:-1] + mod[1:] - lip * grid.dx)
    return np.flatnonzero(floor <= 1.0 / NU_BLOWUP)


def _refine_cell(sample, lam: float, grid: Grid, j: int, nu0: complex) -> int:
    """Riccati solve across cell j from nu(x_j) = nu0 with the |nu| =
    NU_BLOWUP terminal event; raises ``PoleEncounterError`` at the event and
    otherwise returns the right-hand-side count."""
    x0 = float(grid.x[j])
    if abs(nu0) >= NU_BLOWUP:
        raise PoleEncounterError(lam, x0)

    def rhs(s, y):
        diag, low = _lax(*sample(s)[:, j], lam)
        return [low - 2.0 * diag * y[0] + low.conjugate() * y[0] * y[0]]

    def blowup(s, y):
        return NU_BLOWUP - abs(y[0])

    blowup.terminal = True

    sol = solve_ivp(
        rhs,
        (0.0, grid.dx),
        [complex(nu0)],
        method="DOP853",
        rtol=RICCATI_RTOL,
        atol=RICCATI_ATOL,
        events=blowup,
    )
    if sol.status == 1:
        raise PoleEncounterError(lam, x0 + float(sol.t_events[0][0]))
    if not sol.success:
        raise RuntimeError(f"Riccati integration failed: {sol.message}")
    return sol.nfev


def riccati_solve(state: FieldState, lam: float) -> ScatteringSample:
    """Solve the Lax x-problem left to right and form log a(lambda).

    All N - 1 cell propagators come from one vectorized DOP853 solve, one
    step over the cell when it meets the tolerances; their prefix products
    give phi at the nodes and nu = phi_2 / phi_1.
    Cells that the Lipschitz screen cannot certify pole-free are solved
    again, in x order, by the Riccati equation with the |nu| = NU_BLOWUP
    event, and the first event raises ``PoleEncounterError``.

    The state must decay at the grid edges; the periodic state is read as
    truncated-line data.  ``lam`` must be real with 0.05 <= |lam| <= 20
    (conditioning window).
    """
    lam = float(lam)
    if not (LAMBDA_WINDOW[0] <= abs(lam) <= LAMBDA_WINDOW[1]):
        raise ValueError(f"lambda outside conditioning window {LAMBDA_WINDOW}")
    g = state.grid
    sample = _field_sampler(state.u, state.v, g)
    alpha, gamma, nfev = _cell_propagators(sample, lam, g)
    phi1, phi2 = _sweep(alpha, gamma)
    _, low = _lax(state.u, state.v, lam)
    for j in _pole_candidates(low, g, phi1):
        nfev += _refine_cell(sample, lam, g, j, phi2[j] / phi1[j])
    nu = phi2 / phi1
    chi = 0.5j * (np.abs(state.v) ** 2 - np.abs(state.u) ** 2) - np.conj(low) * nu
    log_a = quadrature(chi, g)
    return ScatteringSample(lam=lam, nu=nu, chi=chi, log_a=log_a, nfev=nfev)


_SUPPORTED_N = (0, 2, -2, 4, -4)


def explicit_In(state: FieldState, n: int) -> complex:
    """Evaluate the displayed low-order hierarchy integral I_n by quadrature.

    Each order has one density, written for (u, v); I_-n (n = 2, 4) is the
    I_n density of the swapped pair (v, u) with every explicit i negated.
    """
    if n not in _SUPPORTED_N:
        raise ValueError(f"unsupported hierarchy index {n}; choose from {_SUPPORTED_N}")
    f, h, i = (state.u, state.v, 1j) if n >= 0 else (state.v, state.u, -1j)
    g = state.grid
    af = np.abs(f) ** 2
    ah = np.abs(h) ** 2
    if n == 0:
        return quadrature(af + ah, g)
    fx, hx = differentiate((f, h), g)
    cross = i * np.conj(h) * f + i * np.conj(f) * h
    if abs(n) == 2:
        dens = -2.0 * fx * np.conj(f) + cross - 2 * i * af * ah
        return quadrature(dens, g)
    total = af + ah
    pair = f * np.conj(h) + h * np.conj(f)
    fxx, fah_x = differentiate((fx, f * ah), g)
    dens = (
        -4 * i * np.conj(f) * fxx
        - 2.0 * (fx * np.conj(h) + np.conj(f) * hx)
        + 4.0 * np.conj(f) * fah_x
        + 4.0 * fx * np.conj(f) * total
        + i * total
        - 2 * i * pair * total
        + 4 * i * af * ah * total
    )
    return quadrature(dens, g)


@dataclass(frozen=True)
class HierarchyReport:
    """Residuals of the hierarchy integrals against Q, P, H, R."""

    charge_residual: float
    momentum_residual: float
    hamiltonian_residual: float
    higher_residual: float


def hierarchy_relations(state: FieldState) -> HierarchyReport:
    """Check I_0 = Q, I_2 + I_-2 = -2iP, I_2 - I_-2 = -2iH and
    I_4 - I_-4 = 4i R + 2i Q on a smooth decaying state."""
    i0 = explicit_In(state, 0)
    i2 = explicit_In(state, 2)
    im2 = explicit_In(state, -2)
    i4 = explicit_In(state, 4)
    im4 = explicit_In(state, -4)
    q = charge(state)
    p = momentum(state)
    h = hamiltonian(state)
    r = higher_charge(state)
    return HierarchyReport(
        charge_residual=abs(i0 - q),
        momentum_residual=abs(i2 + im2 + 2j * p),
        hamiltonian_residual=abs(i2 - im2 + 2j * h),
        higher_residual=abs(i4 - im4 - (HIERARCHY_R_COEFF * r + HIERARCHY_Q_COEFF * q)),
    )


def write_scan_csv(path, samples_with_time) -> None:
    """Lambda-scan CSV: lambda,re_log_a,im_log_a,t."""
    write_table(path, "lambda,re_log_a,im_log_a,t",
                ((s.lam, s.log_a.real, s.log_a.imag, t) for s, t in samples_with_time))

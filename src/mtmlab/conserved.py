"""Conserved functionals of the massive Thirring model.

Charge Q, momentum P, Hamiltonian H, the higher-order charge R that the
integrable structure supplies, and the Lyapunov combination
Lambda = R + (1 - omega^2) Q whose critical point is the soliton.  Also the
pointwise density/flux pair (rho, F) of the local balance law for R and a
finite-difference check of that law on evolved snapshots.

The transport terms are built from one real current per component,
j(f) = Im(conj(f) f_x), and the mass coupling from Re(u conj(v)), so every
density is a real array by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .grid import FieldState, differentiate, quadrature, write_table


def _current(f: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """j(f) = Im(conj(f) f_x), the transport density of one component."""
    return f.real * fx.imag - f.imag * fx.real


def _coupling(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re(u conj(v)), the mass coupling."""
    return u.real * v.real + u.imag * v.imag


def charge(state: FieldState) -> float:
    """Q = integral of |u|^2 + |v|^2."""
    dens = np.abs(state.u) ** 2 + np.abs(state.v) ** 2
    return quadrature(dens, state.grid).real


def momentum(state: FieldState) -> float:
    """P = (i/2) integral of (u conj(u)_x - u_x conj(u) + v conj(v)_x - v_x conj(v))
    = integral of j(u) + j(v)."""
    u, v = state.u, state.v
    ux, vx = differentiate((u, v), state.grid)
    return quadrature(_current(u, ux) + _current(v, vx), state.grid).real


def hamiltonian(state: FieldState) -> float:
    """Energy functional with Dirac transport, mass-coupling and quartic terms:
    H = integral of j(u) - j(v) - 2 Re(u conj(v)) + 2 |u|^2 |v|^2."""
    u, v = state.u, state.v
    ux, vx = differentiate((u, v), state.grid)
    dens = (
        _current(u, ux) - _current(v, vx) - 2.0 * _coupling(u, v)
        + 2.0 * np.abs(u) ** 2 * np.abs(v) ** 2
    )
    return quadrature(dens, state.grid).real


def higher_density(state: FieldState) -> np.ndarray:
    """Pointwise density rho of the higher-order charge R."""
    u, v = state.u, state.v
    return _higher_density(u, v, *differentiate((u, v), state.grid))


def _higher_density(u, v, ux, vx) -> np.ndarray:
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    return (
        np.abs(ux) ** 2
        + np.abs(vx) ** 2
        + _current(u, ux) * (au + 2.0 * av)
        - _current(v, vx) * (2.0 * au + av)
        - 2.0 * _coupling(u, v) * (au + av)
        + 2.0 * au * av * (au + av)
    )


def higher_charge(state: FieldState) -> float:
    """R = integral of the higher-order density."""
    return quadrature(higher_density(state), state.grid).real


def lyapunov(state: FieldState, omega: float) -> float:
    """Lambda = R + (1 - omega^2) Q."""
    return higher_charge(state) + (1.0 - omega * omega) * charge(state)


def density_flux(state: FieldState) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (rho, F) of the balance law d_t rho + d_x F = 0 for R."""
    u, v = state.u, state.v
    ux, vx = differentiate((u, v), state.grid)
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    flux = (
        np.abs(ux) ** 2
        - np.abs(vx) ** 2
        + _current(u, ux) * (au + 2.0 * av)
        + _current(v, vx) * (2.0 * au + av)
        - _coupling(u, v) * (au - av)
    )
    return _higher_density(u, v, ux, vx), flux


def balance_residual(states: Sequence[FieldState]) -> float:
    """Max-norm of centered d_t rho + spectral d_x F on three snapshots.

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
    write_table(path, "t,Q,P,H,R,Lambda",
                ((c.t, c.Q, c.P, c.H, c.R, c.R + (1.0 - omega * omega) * c.Q) for c in sets))

"""Exact soliton profiles of the massive Thirring model and their transforms.

The stationary profile at frequency ``omega`` in (-1, 1) is

    U(x) = sqrt(1 - omega^2) /
           (sqrt(1 + omega) cosh(beta x) + i sqrt(1 - omega) sinh(beta x)),

with beta = sqrt(1 - omega^2).  The full orbit is generated by a gauge
phase, a spatial shift and, for moving solitons, a Lorentz boost.  This
module also provides residual checks against the first- and second-order
stationary equations and the symmetry-induced kernel vector fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldState, Grid, differentiate, require_uniform

#: below this |omega| the Omega <-> omega change of variables degenerates
OMEGA_DEGENERATE = 1e-3


def _check_omega(omega: float) -> None:
    if not abs(omega) < 1.0:
        raise ValueError(f"soliton frequency must satisfy |omega| < 1, got {omega}")


@dataclass(frozen=True)
class SolitonParams:
    """Orbit parameters: frequency, boost speed, spatial shift, gauge phase."""

    omega: float
    speed: float = 0.0
    shift: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        _check_omega(self.omega)
        if not abs(self.speed) < 1.0:
            raise ValueError(f"boost speed must satisfy |c| < 1, got {self.speed}")


def profile(omega: float, x: np.ndarray) -> np.ndarray:
    """Stationary soliton profile sampled at positions ``x``."""
    _check_omega(omega)
    beta = np.sqrt(1.0 - omega * omega)
    arg = beta * np.asarray(x, dtype=float)
    den = np.sqrt(1.0 + omega) * np.cosh(arg) + 1j * np.sqrt(1.0 - omega) * np.sinh(arg)
    return beta / den


def profile_absq(omega: float, x: np.ndarray) -> np.ndarray:
    """|U|^2 in closed form, (1 - omega^2) / (omega + cosh(2 beta x))."""
    _check_omega(omega)
    beta = np.sqrt(1.0 - omega * omega)
    return (1.0 - omega * omega) / (omega + np.cosh(2.0 * beta * np.asarray(x, dtype=float)))


def profile_derivative(omega: float, x: np.ndarray) -> np.ndarray:
    """dU/dx in closed form (exact samples, no differentiation error)."""
    _check_omega(omega)
    beta = np.sqrt(1.0 - omega * omega)
    arg = beta * np.asarray(x, dtype=float)
    den = np.sqrt(1.0 + omega) * np.cosh(arg) + 1j * np.sqrt(1.0 - omega) * np.sinh(arg)
    dden = np.sqrt(1.0 + omega) * np.sinh(arg) + 1j * np.sqrt(1.0 - omega) * np.cosh(arg)
    return -beta * beta * dden / (den * den)


def singularity_distance(omega: float) -> float:
    """Distance from the real axis to the nearest complex singularity of the
    profile; it sets the Fourier decay rate exp(-d k) and hence the grid
    resolution needed to keep products of profile factors alias-free."""
    _check_omega(omega)
    beta = np.sqrt(1.0 - omega * omega)
    return float(np.arccos(-omega) / (2.0 * beta))


def tail_half_length(omega: float, tail_exponent: float) -> float:
    """Half-length (at least 20) that makes the tail exp(-beta L) smaller
    than exp(-tail_exponent)."""
    _check_omega(omega)
    beta = np.sqrt(1.0 - omega * omega)
    return max(20.0, float(np.ceil(tail_exponent / beta)))


def recommended_grid(omega: float) -> Grid:
    """Periodic grid sized for the soliton at this frequency.

    The half-length makes the tail exp(-beta L) smaller than exp(-30); the
    spacing keeps triple products of profile factors resolved (dx <= 0.12
    times the singularity distance, capped at 0.08), and N is a multiple of
    128.
    """
    half_length = tail_half_length(omega, 30.0)
    dx_target = min(0.08, 0.12 * singularity_distance(omega))
    return Grid(half_length, 128 * int(np.ceil(2.0 * half_length / dx_target / 128.0)))


def eval_profile(omega: float, grid: Grid) -> np.ndarray:
    return profile(omega, grid.x)


def eval_soliton(params: SolitonParams, grid: Grid, t: float = 0.0) -> FieldState:
    """Soliton field state: gauge/shift transform first, then the boost."""
    c = params.speed
    gam = 1.0 / np.sqrt(1.0 - c * c)
    xi = gam * (grid.x - c * t)
    tau = gam * (t - c * grid.x)
    u = profile(params.omega, xi + params.shift)
    ph = np.exp(1j * (params.omega * tau + params.phase))
    scale = ((1.0 + c) / (1.0 - c)) ** 0.25
    return FieldState(grid, scale * u * ph, np.conj(u) * ph / scale, t)


def residual_first_order(samples: np.ndarray, omega: float, grid: Grid) -> float:
    """Max-norm residual of the first-order stationary equation

    i U' - omega U + conj(U) - 2 |U|^2 U = 0.
    """
    s = np.asarray(samples, dtype=complex)
    r = 1j * differentiate(s, grid) - omega * s + np.conj(s) - 2.0 * np.abs(s) ** 2 * s
    return float(np.max(np.abs(r)))


def residual_second_order(u: np.ndarray, v: np.ndarray, big_omega: float, grid: Grid) -> float:
    """Max-norm residual of the second-order stationary system at parameter
    ``big_omega``; the exact profile pair (U, conj U) zeroes it when
    big_omega = 1 - omega^2."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    ux, vx = differentiate((u, v), grid)
    uxx, vxx = differentiate((u, v), grid, order=2)
    au = np.abs(u) ** 2
    av = np.abs(v) ** 2
    res_u = (
        uxx
        + 2j * (au + av) * ux
        + 2j * u * v * np.conj(vx)
        - 2.0 * av * (2.0 * au + av) * u
        + (2.0 * au + av) * v
        + u * u * np.conj(v)
        - big_omega * u
    )
    res_v = (
        vxx
        - 2j * (au + av) * vx
        - 2j * u * v * np.conj(ux)
        - 2.0 * au * (au + 2.0 * av) * v
        + (au + 2.0 * av) * u
        + v * v * np.conj(u)
        - big_omega * v
    )
    return float(max(np.max(np.abs(res_u)), np.max(np.abs(res_v))))


def zero_mode_fields(omega: float, grid: Grid) -> dict[str, np.ndarray]:
    """Symmetry-induced kernel vector fields of the linearization.

    Returns the four-component fields (ordered as the perturbation stack
    (u, v, conj u, conj v)):

    * ``gauge``       -- (iU, i conj U, -i conj U, -iU), from the phase symmetry;
    * ``translation`` -- (U', conj U', conj U', U'), from the shift symmetry.

    ``grid`` must be uniform (``NonUniformGridError`` otherwise).
    """
    require_uniform(grid, "zero_mode_fields")
    u = eval_profile(omega, grid)
    up = differentiate(u, grid)
    gauge = np.stack([1j * u, 1j * np.conj(u), -1j * np.conj(u), -1j * u])
    translation = np.stack([up, np.conj(up), np.conj(up), up])
    return {"gauge": gauge, "translation": translation}


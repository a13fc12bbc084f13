"""Structure-preserving time integration of the massive Thirring system

    i (u_t + u_x) + v = 2 |v|^2 u,
    i (v_t - v_x) + u = 2 |u|^2 v,

on a periodic grid, by Strang splitting with both substeps solved exactly.

The linear Dirac flow L (u_t = -u_x + i v, v_t = v_x + i u) is diagonal per
Fourier mode and advanced by the unitary exp(i dt M(k)) with Hermitian
M(k) = [[-k, 1], [1, k]].  The nonlinear flow N (u_t = -2i |v|^2 u,
v_t = -2i |u|^2 v) leaves the pointwise moduli invariant, so it is an exact
phase rotation.  Both substeps preserve the discrete L2 norm exactly, which
makes the charge drift roundoff-level for any step size; the remaining
invariants drift at second order in dt.

Because N keeps the moduli fixed, N(a) N(b) = N(a + b): the closing
half-step of one Strang step and the opening half-step of the next merge
into one N(dt), and n steps cost n nonlinear rotations,
N(dt/2) [L(dt) N(dt)]^(n-1) L(dt) N(dt/2).  A snapshot closes a copy of
the running state with N(dt/2) and the running state goes on with N(dt),
so the trajectory does not depend on the snapshot stride.  ``step`` (one
step) and ``evolve`` share this kernel, which keeps both fields in one
(2, N) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
import scipy.fft as sfft

from .grid import FieldState, Grid


class BlowUpError(RuntimeError):
    """Raised when non-finite samples appear during evolution."""

    def __init__(self, t: float):
        super().__init__(f"evolution blew up at t = {t:.6g}")
        self.t = t


@dataclass(frozen=True)
class EvolverConfig:
    dt: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end!r}")
        if not isinstance(self.snapshot_stride, Integral):
            raise ValueError(f"snapshot stride must be an integer, got {self.snapshot_stride!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot stride must be >= 1")
        n_steps = self.t_end / self.dt
        if not np.isfinite(n_steps):
            raise ValueError(f"t_end={self.t_end!r} takes too many steps of dt={self.dt!r}")
        if self.t_end > 0.0 and round(n_steps) == 0:
            raise ValueError(f"t_end={self.t_end!r} takes no step of dt={self.dt!r}")
        if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
            raise ValueError(
                f"t_end={self.t_end!r} is not a whole number of steps dt={self.dt!r}; "
                f"the nearest reachable end time is {round(n_steps) * self.dt:.12g}"
            )


@lru_cache(maxsize=64)
def _linear_tables(grid: Grid, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries of the per-mode propagator exp(i dt M(k)) = [[a, b], [b, d]]."""
    k = grid.wavenumbers
    freq = np.sqrt(1.0 + k * k)
    cos_t = np.cos(freq * dt)
    sinc_t = np.sin(freq * dt) / freq
    return cos_t - 1j * k * sinc_t, 1j * sinc_t, cos_t + 1j * k * sinc_t


def _rotate(w: np.ndarray, tau: float, phase: np.ndarray, t: float) -> np.ndarray:
    """Nonlinear flow N(tau) on the stacked fields ``w``, in place through the
    scratch array ``phase``; non-finite output raises BlowUpError(t)."""
    theta = w.real * w.real
    theta += w.imag * w.imag
    theta = theta[::-1]  # each component turns with the other's modulus
    theta *= -2.0 * tau
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    w *= phase
    if not np.isfinite(w).all():
        raise BlowUpError(t)
    return w


def _strang(grid: Grid, w: np.ndarray, dt: float, n: int, stride: int, t0: float):
    """Run n Strang steps of the stacked fields ``w`` (shape (2, N), consumed),
    yielding (t, fields) after every ``stride``-th step and the last one."""
    if n == 0:
        return
    a, b, d = _linear_tables(grid, dt)
    phase = np.empty_like(w)
    _rotate(w, 0.5 * dt, phase, t0 + dt)
    for j in range(1, n + 1):
        t = t0 + j * dt
        hu, hv = h = sfft.fft(w, workers=1)
        bu = b * hu
        hu *= a
        hu += b * hv
        hv *= d
        hv += bu
        w = sfft.ifft(h, overwrite_x=True, workers=1)
        if j == n or j % stride == 0:
            yield t, _rotate(w.copy(), 0.5 * dt, phase, t)
        if j < n:
            _rotate(w, dt, phase, t)


def step(state: FieldState, dt: float) -> FieldState:
    """One Strang step N(dt/2) L(dt) N(dt/2); ``dt`` may be negative."""
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports a blow-up
        ((t, w),) = _strang(state.grid, np.stack([state.u, state.v]), dt, 1, 1, state.t)
    return FieldState(state.grid, w[0], w[1], t)


@dataclass
class Trajectory:
    """The snapshots of one evolution and their times, the initial state
    first; every measurement of the run is a function of these snapshots."""

    times: np.ndarray
    states: list[FieldState]

    @property
    def final(self) -> FieldState:
        return self.states[-1]


def evolve(state: FieldState, config: EvolverConfig) -> Trajectory:
    """Run the splitting to t_end, storing a snapshot every
    ``snapshot_stride`` steps and always at the final time.

    Non-finite samples abort with :class:`BlowUpError` carrying the failure
    time; numpy's overflow and invalid-value warnings are silenced for the
    run, so a blow-up raises that error even when warnings are errors.
    """
    n_steps = int(round(config.t_end / config.dt))
    w = np.stack([state.u, state.v])
    states = [state.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, w_t in _strang(state.grid, w, config.dt, n_steps, config.snapshot_stride, state.t):
            states.append(FieldState(state.grid, w_t[0], w_t[1], t))
    return Trajectory(np.asarray([s.t for s in states]), states)

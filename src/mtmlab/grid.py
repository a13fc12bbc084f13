"""Uniform periodic 1-D grids, two-component complex fields, and the
calculus on them.

Differentiation is Fourier-spectral and quadrature is the rectangle rule
(which coincides with the trapezoid rule on a periodic lattice).  Everything
downstream (solitons, conserved charges, time evolution, spectral analysis)
is built on these primitives.  All quantities are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Periodic lattice of ``n`` points on [-L, L).

    ``half_length`` must be finite and positive, and ``n`` an even integer of
    at least 8 so that spectral differentiation has a well-defined Nyquist
    mode.
    """

    half_length: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 < self.half_length < np.inf:
            raise ValueError(f"half_length must be finite and positive, got {self.half_length!r}")
        if not isinstance(self.n, Integral):
            raise ValueError(f"point count n must be an integer, got {self.n!r}")
        if self.n < 8:
            raise ValueError("need at least 8 grid points")
        if self.n % 2 != 0:
            raise ValueError("periodic grids need an even point count")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Full Fourier multiplier array, Nyquist mode included."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def wavenumbers_odd(self) -> np.ndarray:
        """Multiplier for odd-order derivatives: Nyquist zeroed to keep the
        differentiation matrix real and antisymmetric."""
        k = self.wavenumbers.copy()
        k[self.n // 2] = 0.0
        return k

    @cached_property
    def h1_weights(self) -> np.ndarray:
        """Fourier weights 1 + k^2 of the H1 inner product, with the
        derivative's Nyquist multiplier zeroed as in :func:`differentiate`:
        by Parseval, <f, h>_H1 = (dx / n) sum of h1_weights fft(f) conj(fft(h))."""
        return 1.0 + self.wavenumbers_odd**2


class NonUniformGridError(TypeError):
    """Raised when the uniform-grid calculus of this module (one spacing dx)
    is handed a grid without one, such as ``spectral.MappedGrid``."""


def require_uniform(grid, caller: str) -> None:
    """Raise ``NonUniformGridError`` unless ``grid`` is a uniform
    :class:`Grid`."""
    if not isinstance(grid, Grid):
        raise NonUniformGridError(f"{caller} needs a uniform Grid, got {type(grid).__name__}; "
                                  "a mapped lattice has no single spacing dx")


@dataclass
class FieldState:
    """Two complex sample arrays (u, v) on a grid at time t."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=complex)
        self.v = np.asarray(self.v, dtype=complex)
        if self.u.shape != (self.grid.n,) or self.v.shape != (self.grid.n,):
            raise ValueError("field arrays must have exactly grid.n samples")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("field samples must be finite")
        if not np.isfinite(self.t):
            raise ValueError(f"field time t must be finite, got {self.t!r}")

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.u.copy(), self.v.copy(), self.t)


def zero_state(grid: Grid, t: float = 0.0) -> FieldState:
    z = np.zeros(grid.n, dtype=complex)
    return FieldState(grid, z, z.copy(), t)


def differentiate(samples: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Fourier-spectral derivative of a sampled field, or of each field in a
    stack (..., N) by one transform pair."""
    require_uniform(grid, "differentiate")
    s = np.asarray(samples, dtype=complex)
    if s.shape[-1:] != (grid.n,):
        raise ValueError("sample length does not match grid")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if order == 1:
        return np.fft.ifft(1j * grid.wavenumbers_odd * np.fft.fft(s))
    return np.fft.ifft(-(grid.wavenumbers**2) * np.fft.fft(s))


def quadrature(samples: np.ndarray, grid: Grid) -> complex:
    """Rectangle rule over the grid (= trapezoid rule on a periodic lattice)."""
    require_uniform(grid, "quadrature")
    s = np.asarray(samples)
    if s.shape != (grid.n,):
        raise ValueError("sample length does not match grid")
    return complex(grid.dx * np.sum(s))


def l2_norm_sq(samples: np.ndarray, grid: Grid) -> float:
    return float(np.real(quadrature(np.abs(samples) ** 2, grid)))


def h1_norm_sq(samples: np.ndarray, grid: Grid) -> float:
    """Squared H1 norm ||f||^2 + ||f'||^2, summed over a stack (..., N) of
    fields: by Parseval, the ``Grid.h1_weights``-weighted power spectrum."""
    require_uniform(grid, "h1_norm_sq")
    s = np.asarray(samples, dtype=complex)
    if s.shape[-1:] != (grid.n,):
        raise ValueError("sample length does not match grid")
    power = (grid.dx / grid.n) * np.abs(np.fft.fft(s)) ** 2
    return float(np.sum(np.sum(grid.h1_weights * power, axis=-1)))


def norms(state: FieldState) -> dict[str, float]:
    """L2, H1 and Lebesgue integrals of a state, summed over (u, v).

    Returns ``L2_sq``, ``H1_sq`` and ``L<p>`` = integral of |u|^p + |v|^p for
    p in {4, 6}, and ``interp_ratio``: the largest ratio, over both
    components f and p in {2, 3}, of the integral of |f|^(2p) to the
    interpolation bound ||f'||^(p-1) ||f||^(p+1).  The pair is transformed
    once, and ``H1_sq`` is ``h1_norm_sq`` of the pair.
    """
    g = state.grid
    require_uniform(g, "norms")
    fields = np.stack([state.u, state.v])
    power = (g.dx / g.n) * np.abs(np.fft.fft(fields)) ** 2
    grad_sq = np.sum(g.wavenumbers_odd**2 * power, axis=-1)
    l2_sq = [l2_norm_sq(f, g) for f in fields]
    absf = np.abs(fields)
    out = {
        "L2_sq": l2_sq[0] + l2_sq[1],
        "H1_sq": float(np.sum(np.sum(g.h1_weights * power, axis=-1))),
        "L4": float(np.real(quadrature(absf[0] ** 4 + absf[1] ** 4, g))),
        "L6": float(np.real(quadrature(absf[0] ** 6 + absf[1] ** 6, g))),
    }
    ratio = 0.0
    for f_l2_sq, f_grad_sq, a in zip(l2_sq, grad_sq, absf):
        l2 = np.sqrt(max(f_l2_sq, 1e-300))
        dl2 = np.sqrt(max(f_grad_sq, 1e-300))
        for p in (2, 3):
            bound = dl2 ** (p - 1) * l2 ** (p + 1)
            if bound > 0:
                ratio = max(ratio, float(np.real(quadrature(a ** (2 * p), g))) / bound)
    out["interp_ratio"] = float(ratio)
    return out


def dump_state(state: FieldState, path: str | Path) -> None:
    """Write a field state as CSV with the standard metadata comment line."""
    g = state.grid
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# t={float(state.t)!r} L={float(g.half_length)!r} N={g.n} bc=periodic\n")
        f.write("x,re_u,im_u,re_v,im_v\n")
        for j in range(g.n):
            f.write(
                f"{float(g.x[j])!r},{float(state.u[j].real)!r},{float(state.u[j].imag)!r},"
                f"{float(state.v[j].real)!r},{float(state.v[j].imag)!r}\n"
            )


def load_state(path: str | Path) -> FieldState:
    """Read a field state written by :func:`dump_state`; only periodic
    (``bc=periodic``) dumps are accepted."""
    with open(path, "r", encoding="utf-8") as f:
        meta = f.readline()
        if not meta.startswith("#"):
            raise ValueError("missing metadata comment line")
        tokens = meta[1:].split()
        malformed = [tok for tok in tokens if "=" not in tok]
        if malformed:
            raise ValueError(f"metadata token {malformed[0]!r} is not key=value: {meta.strip()!r}")
        fields = dict(tok.split("=", 1) for tok in tokens)
        missing = [key for key in ("t", "L", "N") if key not in fields]
        if missing:
            raise ValueError(f"metadata line lacks {', '.join(missing)}: {meta.strip()!r}")
        if fields.get("bc") != "periodic":
            raise ValueError(f"unsupported boundary kind {fields.get('bc')!r}; need bc=periodic")
        header = f.readline().strip()
        if header != "x,re_u,im_u,re_v,im_v":
            raise ValueError(f"unexpected header {header!r}")
        rows = f.read().splitlines()
    if not any(row.strip() for row in rows):
        raise ValueError("dump has no data rows")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    grid = Grid(float(fields["L"]), int(fields["N"]))
    u = data[:, 1] + 1j * data[:, 2]
    v = data[:, 3] + 1j * data[:, 4]
    return FieldState(grid, u, v, float(fields["t"]))

"""Shared fixtures and field factories for the test suite."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from mtmlab.grid import FieldState, Grid


@pytest.fixture(scope="session")
def soliton_grid() -> Grid:
    """Standard evolution grid: wide enough for |omega| <= 0.5 solitons."""
    return Grid(40.0, 1024)


@pytest.fixture
def fft_calls(monkeypatch) -> Counter:
    """Counts of ``np.fft.fft`` and ``np.fft.ifft`` calls made during a test
    (the wrappers are undone after it)."""
    calls: Counter = Counter()
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def random_decaying_state(grid: Grid, seed: int, amplitude: float = 0.3) -> FieldState:
    """Smooth decaying two-component field: band-limited noise under a
    Gaussian envelope.  Used wherever a generic line-like state is needed."""
    rng = np.random.default_rng(seed)
    env = np.exp(-(grid.x**2) / rng.uniform(4.0, 12.0))

    def component() -> np.ndarray:
        coeffs = np.zeros(grid.n, dtype=complex)
        for m in range(-10, 11):
            coeffs[m % grid.n] = rng.standard_normal() + 1j * rng.standard_normal()
        field = np.fft.ifft(coeffs) * grid.n
        return amplitude * env * field / np.max(np.abs(field))

    return FieldState(grid, component(), component(), 0.0)


def roll_state(state: FieldState, cells: int, phase: float) -> FieldState:
    """Exact discrete orbit transform: integer-cell shift plus gauge phase."""
    ph = np.exp(1j * phase)
    return FieldState(
        state.grid, np.roll(state.u, cells) * ph, np.roll(state.v, cells) * ph, state.t
    )

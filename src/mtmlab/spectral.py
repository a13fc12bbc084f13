"""Discretized curvature operators of the soliton's Lyapunov functional and
their constrained spectral analysis.

The second variation of Lambda = R + (1 - omega^2) Q at the soliton is a
4x4 matrix differential operator acting on the perturbation stack
(u, v, conj u, conj v).  A constant orthogonal similarity splits it into two
2x2 operators acting on pairs (w, conj w): a "plus" sector (reduction
v = conj u) and a "minus" sector (v = -conj u).  Gauge transformations of
each scalar pair reduce the sectors further to Schrodinger-type problems in
the stretched variable z = sqrt(1 - omega^2) x with spectral parameter
rescaled by 1 - omega^2 and continuum edge at 1.

The same similarity splits the constraints.  Writing the perturbation as
u = (w+ - w-)/sqrt(2), v = conj(w+ + w-)/sqrt(2), the two complex constraint
functionals <(U, conj U), (u, v)> and its U' analogue become

    c1 = sqrt(2) [Re<U, w+> - i Im<U, w->],
    c2 = sqrt(2) [Re<U', w+> - i Im<U', w->],

so the plus sector is constrained to the complement of {U, U'} and the minus
sector to the complement of {iU', iU}.  Constrained positivity of the full
operator is therefore the smaller of two per-sector constrained minima, and
every spectral quantity of a sector (isolated eigenvalues, the constraint
slope sigma, the constrained minimum) comes from one cached ``SectorAnalysis``
record, computed once and holding no matrix; the Hessian is kept as a
small-N reference.

Everything is realified in one layout: a complex pair (w, conj w) maps to the
real vector (Re w, Im w) (``embed_conjugate_pair``) and every operator
becomes a real symmetric matrix, so positivity statements are literal matrix
positivity and eigenvalues match the complex pair problem one-to-one.  The
Hessian acts on w = (u, v), so its coordinates are (Re u, Re v, Im u, Im v).
Vectors of the form (w, -conj w) are embedded through multiplication by i,
which rotates them into (iw, conj(iw)).  The realified similarity identity
Q^T H Q = diag(plus, minus) behind the split is a test oracle
(``tests/oracles.py``); ``omega_sweep`` re-checks the split on the verdict's
own mapped lattice, of at most 128 points, through
``constrained_split_defect``.  That check does not use the similarity.  It
splits the Hessian by the lattice reflection the sector blocks rest on (see
below): K4 = diag(R, R, -R, -R) on (Re u, Re v, Im u, Im v), which sends
(u, v)(x) to (conj u, conj v)(-x), commutes with the Hessian, so
``build_hessian`` writes its two 2N x 2N blocks, mapped as the sector blocks
are, and never the 4N x 4N matrix.  Two of the four constraint rows lie in
each block (``_constraint_blocks``); each block is projected off its two
with their Householder reflectors, applied in place from both sides, and
gives one subset eigenvalue of the (2N - 2)-square rest.  Two such
eigensolves cost a quarter of the flops of one on the (4N - 4)-square
projection of the whole Hessian: at N = 128 the check takes ~6 ms per omega
against ~14 ms (2-core host, two OpenBLAS threads).  Its per-sector side is
the cached ``SectorAnalysis`` pair.

The sector analyses run on a sinh-mapped lattice (``MappedGrid``,
``spectral_grid``): x = s sinh(xi) on a uniform periodic xi-lattice of
spacing h, fine at the core and coarse in the tails, with Jacobian
J = dx/dxi = s cosh(xi).  The blocks act on phi = J^(1/2) w, so that the
weighted pairing h sum J conj(v) w is the Euclidean one and the blocks stay
real symmetric.  -d^2/dx^2 becomes R (-(A D2 + D2 A)/2 + diag(a'')/2) R
with a = 1/J, A = diag(a), R = J^(-1/2), D2 the lattice's spectral
second derivative and a'' in closed form, with the kink of a where the
lattice wraps as a lattice delta (``MappedGrid.curvature``); the first-order
term S(g) becomes S(g/J); the potentials are unchanged; the constraint
and kernel vectors become J^(1/2) s and J^(1/2) k; sigma pairs as
2h (J^(1/2) s)^T M^{-1} (J^(1/2) s); quadratures carry the weights h J.
A uniform ``Grid`` is the identity map (J = 1, a'' = 0, h = dx), entered in
one place, ``_map_of``: every builder runs one code path on both grid
kinds, whose weights of exactly 1 and diagonal of exactly 0 give bitwise
-D2 and the blocks of the uniform route, the test oracles' reference.  The
Hessian is mapped alike, with the same kinetic blocks (``_kinetic_blocks``).
The map is odd, so the lattice reflection still sends x to -x, and what
follows holds on both.

The lattice reflection R: j -> -j mod N (x -> -x, fixing j = 0 and N/2) and
U(-x) = conj U(x) make K = diag(R, -R) on (Re w, Im w) commute with both
sector matrices.  In the orthonormal bases e_0, e_{N/2},
(e_j + e_{N-j})/sqrt 2 of even and (e_j - e_{N-j})/sqrt 2 of odd lattice
functions, K = +1 on (even Re w, odd Im w) and -1 on (odd Re w, even Im w)
(``parity_split``), so a sector operator is the (2, N, N) stack of two
blocks, each gathered from the circulant derivative columns by one writer,
``_parity_block``; the 2N x 2N matrix is never formed.  The constraint
vector s of each sector lies in its +1 block and the kernel vector k in its
-1 block, and one evaluation of U and U' (``_sector_setup``) gives a
sector's coefficients, s+, k- and parity defect.  Each block is reduced to
tridiagonal form once, with s+ (or k-) reflected onto e_1, for its share of
the isolated spectrum, its minimum off that vector and, on the kernel-free
+1 block, sigma = 2 h s+^T M+^{-1} s+.  The analysis writes the two blocks
in turn into one N x N buffer and reduces a copy of each, so the intact
block applies M for the sigma residual.  The symmetry breaks
only in the e^-22 tail at the fixed point x = -L; ``parity_defect`` records
the largest wrong-parity component of the coefficients and of s and k,
refused above CONSTRUCTION_TOL (a domain too short for the soliton).  The
Schrodinger problems are stacked alike, a scalar one (V even) as its blocks
on the even and the odd lattice functions; every kinetic part is one gather,
``_negative_d2_blocks``, weighted by the map (``_kinetic_blocks``), and
every first-order coupling's even-odd part one gather of the first-derivative
column (``_even_odd_part``), in the sector blocks and the Hessian's alike.

Every dense matrix product on the sector path (the reflection's M h, the
sigma residual's M x, Q y and the Hessian self-check's Householder
projections) goes through scipy's BLAS/LAPACK, the runtime of ``dsytrd``.
numpy links its own OpenBLAS, whose worker threads keep spinning for a while
after a numpy matrix product; on a host with few cores they would compete
with the next reduction for the same cores.  Only 1-D inner products, which
OpenBLAS runs on one thread at these sizes, stay in numpy.

First-order derivative terms are assembled in the symmetric product form
i (g D + D g)/2, which absorbs the non-Hermitian multiplication pieces of
the displayed operators exactly (using the profile identity
d|U|^2/dx = 2 Im U^2) and keeps the assembled matrices exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import circulant, eigh, eigvalsh_tridiagonal
from scipy.linalg import null_space  # noqa: F401 - unused; the traced benchmark wraps it
from scipy.linalg.blas import dsymv, dsyr2
from scipy.linalg.lapack import dgeqrf, dgtsv, dormqr, dsytrd, dsytrd_lwork

from .grid import Grid, require_uniform
from .soliton import (
    OMEGA_DEGENERATE,
    _check_omega,
    eval_profile,
    profile_derivative,
    tail_half_length,
)

# Fraction of the edge excluded as discretized continuum when counting
# isolated eigenvalues.  On the recommended grids the truncated continuum
# starts slightly ABOVE the edge (k_1^2 from the finite domain) while the
# near-edge isolated eigenvalue of the minus sector reaches 0.990 x edge at
# omega = 0.9, so the margin must stay below 0.010; 0.005 leaves a clear
# gap on both sides (validated by doubling L and N).
CONTINUUM_MARGIN = 0.005
CONSTRUCTION_TOL = 1e-6
# Sturm counts of the stretched scalar problems: the sech-type potentials are
# below 1e-10 beyond this half-width, and the finite-difference step h (then
# h/2) puts the Richardson-extrapolated eigenvalues within ~1e-8 of the limit.
STURM_HALF_WIDTH = 16.0
STURM_STEP = 0.004
# the sinh map of ``spectral_grid``: its scale, the infimum 1/2 of
# ``singularity_distance`` over omega, and its lattice size
MAP_SCALE = 0.5
SPECTRAL_N = 128

SCALAR_KINDS = (
    "sum_sector",         # stretched plus-combination problem of the minus sector
    "difference_sector",  # stretched minus-combination problem of the minus sector
)
COUPLED_KIND = "coupled_system"  # stretched 2x2 problem of the plus sector
ALL_KINDS = SCALAR_KINDS + (COUPLED_KIND,)


class OperatorConstructionError(RuntimeError):
    """Raised when an operator's parity defect exceeds CONSTRUCTION_TOL or is
    not finite."""


@dataclass
class DiscreteOperator:
    """Real symmetric matrix realization of a linearized operator: an (n, n)
    ``matrix`` (the Hessian), or the stack of two blocks, split by a
    reflection, whose spectra together are the operator's: (2, N, N) for a
    realified pair operator, (2, N/2+1, N/2+1) for a scalar Schrodinger
    operator.  Every builder assembles them exactly symmetric; a
    ``parity_defect`` that is not at most CONSTRUCTION_TOL is refused."""

    matrix: np.ndarray
    continuum_edge: float
    parity_defect: float = 0.0

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.ndim == 3 and len(m) != 2:
            raise ValueError("operator matrix must be square or a stack of two square blocks")
        if not self.continuum_edge > 0.0:
            raise ValueError("continuum edge must be positive")
        _refuse_defect(self.parity_defect)

    @property
    def cutoff(self) -> float:
        """Upper end of the isolated spectrum (``_cutoff``)."""
        return _cutoff(self.continuum_edge)


def _refuse_defect(parity_defect: float) -> None:
    """Raise ``OperatorConstructionError`` unless the parity defect is at
    most CONSTRUCTION_TOL."""
    if not parity_defect <= CONSTRUCTION_TOL:  # NaN included
        raise OperatorConstructionError(f"parity defect {parity_defect:.3e} (a domain "
                                        "too short for the soliton's tail, or "
                                        "non-finite coefficients)")


def _cutoff(continuum_edge: float) -> float:
    """Upper end of the isolated spectrum: the continuum edge minus the
    leakage margin."""
    return continuum_edge * (1.0 - CONTINUUM_MARGIN)


# ---------------------------------------------------------------------------
# mapped lattices, differentiation, realification and the parity split


@dataclass(frozen=True)
class MappedGrid:
    """Collocation points x = scale * sinh(xi) on the uniform periodic
    xi-lattice ``lattice`` (Boyd, *Chebyshev and Fourier Spectral Methods*,
    2nd ed., 2001, ch. 17): fine at the core and coarse in the tails, with
    Jacobian J = dx/dxi = scale * cosh(xi).  The map is odd, so the lattice
    reflection j -> -j mod N still sends x to -x.  The points span
    [-half_length, half_length) with half_length = scale * sinh(Xi) for the
    lattice's half-length Xi.  The map's formulas, J and the curvature of
    1/J, are cached properties, which the builders read through
    ``_map_of``.  There is no single spacing dx, so the uniform calculus of
    ``mtmlab.grid`` refuses this grid."""

    lattice: Grid
    scale: float

    def __post_init__(self) -> None:
        require_uniform(self.lattice, "MappedGrid's lattice")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"map scale must be finite and positive, got {self.scale!r}")

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def half_length(self) -> float:
        return self.scale * float(np.sinh(self.lattice.half_length))

    @cached_property
    def x(self) -> np.ndarray:
        return self.scale * np.sinh(self.lattice.x)

    @cached_property
    def jacobian(self) -> np.ndarray:
        """J = dx/dxi at the points; h J are the quadrature weights."""
        return self.scale * np.cosh(self.lattice.x)

    @cached_property
    def curvature(self) -> np.ndarray:
        """a'' = d^2 a/dxi^2 at the points, a = 1/J = sech(xi)/scale.  a is
        even, so on the periodic lattice it has a kink where the lattice
        wraps (xi = -Xi, j = 0): a'' is a (1 - 2 sech^2 xi) in closed form
        plus the jump 2 tanh(Xi) a(Xi) of a' there, a lattice delta of that
        weight over h.  The spectral D2 a would alias the delta into an
        oscillation over the whole lattice, ~1e-4 at the core, which the
        residual of every sampled kernel vector would carry."""
        lattice = self.lattice
        a = 1.0 / self.jacobian
        second = a * (1.0 - 2.0 / np.cosh(lattice.x) ** 2)
        second[0] += 2.0 * np.tanh(lattice.half_length) * a[0] / lattice.dx
        return second


def _map_of(grid: Grid | MappedGrid) -> tuple[Grid, np.ndarray, np.ndarray]:
    """The uniform lattice under ``grid``, the Jacobian J of its map and the
    curvature a'' of a = 1/J; a uniform Grid is the identity map, J = 1 and
    a'' = 0.  The one place the builders tell the grid kinds apart."""
    if isinstance(grid, MappedGrid):
        return grid.lattice, grid.jacobian, grid.curvature
    return grid, np.ones(grid.n), np.zeros(grid.n)


def _derivative_columns(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """First columns of the spectral first/second derivative matrices (the
    derivatives of the unit sample at x[0]), cleaned to exact odd/even
    symmetry under j -> -j mod N."""
    c1 = np.real(np.fft.ifft(1j * grid.wavenumbers_odd))
    c2 = np.real(np.fft.ifft(-(grid.wavenumbers**2)))
    mirror = -np.arange(grid.n) % grid.n
    return 0.5 * (c1 - c1[mirror]), 0.5 * (c2 + c2[mirror])


@lru_cache(maxsize=4)  # dense pairs are large; keep only adjacent reuse
def differentiation_matrices(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Dense spectral first/second derivative matrices on a uniform periodic
    grid, exactly (anti)symmetric: the circulants of ``_derivative_columns``.
    No builder uses them; only the test oracles and the benchmark's
    cold-cache reset do, and the function leaves this module with them."""
    require_uniform(grid, "differentiation_matrices")
    return tuple(map(circulant, _derivative_columns(grid)))


def embed_conjugate_pair(w: np.ndarray) -> np.ndarray:
    """Realify the first component of a structured pair: (w, conj w) maps to
    (Re w, Im w).  A pair (w, -conj w) is embedded as ``1j * w``."""
    w = np.asarray(w, dtype=complex)
    return np.concatenate([w.real, w.imag])


def parity_split(w: np.ndarray, components: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The K = +1 and K = -1 coordinates, (even Re w, odd Im w) and
    (odd Re w, even Im w), of a realified vector (Re w, Im w) whose w stacks
    ``components`` lattice functions, taken component by component: for the
    Hessian's (Re u, Re v, Im u, Im v), ``components=2`` gives
    (even Re u, even Re v, odd Im u, odd Im v) and (odd, odd, even, even)."""
    rows = w.reshape(2 * components, -1)
    h = rows.shape[1] // 2
    ahead, behind = rows[:, 1:h], rows[:, :h:-1]  # the samples at j and N - j
    even = np.hstack([rows[:, :1], (ahead + behind) / np.sqrt(2.0), rows[:, h : h + 1]])
    odd = (ahead - behind) / np.sqrt(2.0)
    m = components
    return np.concatenate([*even[:m], *odd[m:]]), np.concatenate([*odd[:m], *even[m:]])


def _reflection_views(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The circulant of ``col`` against the reflection, each one gather of
    ``col``: T[i, j] = col[i - j] and H[i, j] = col[i + j] (mod N) for
    0 <= i, j <= N/2."""
    i = np.arange(len(col) // 2 + 1)
    return col[(i[:, None] - i) % len(col)], col[(i[:, None] + i) % len(col)]


def _negative_d2_blocks(c2: np.ndarray, even_out: np.ndarray, odd_out: np.ndarray) -> None:
    """Write -D2 (second-derivative column ``c2``) on the even and on the odd
    lattice functions into ``even_out`` (N/2+1 square) and ``odd_out``
    (N/2-1 square).  With s_i = 1/sqrt 2 at the fixed points i = 0, N/2 and
    1 elsewhere, the even-even part of D2 is s_i s_j (c2[i-j] + c2[i+j]) and
    its odd-odd part c2[i-j] - c2[i+j]."""
    h = len(c2) // 2
    toeplitz, hankel = _reflection_views(c2)
    np.add(toeplitz, hankel, out=even_out)
    np.negative(even_out, out=even_out)
    even_out[::h] *= np.sqrt(0.5)
    even_out[:, ::h] *= np.sqrt(0.5)
    np.subtract(hankel[1:h, 1:h], toeplitz[1:h, 1:h], out=odd_out)


def _mapped_kinetic(grid: Grid | MappedGrid):
    """The mapped form of -d^2/dx^2, acting on phi = J^(1/2) w:
    R (-(A D2 + D2 A)/2 + diag(a'')/2) R, a = 1/J, A = diag(a), R = J^(-1/2),
    the symmetric form of -R d/dxi a d/dxi R, for the J and a'' of
    ``_map_of``.  Returns (a, R, a a''/2), the factors of the entry weights
    R_i R_j (a_i + a_j)/2 of -D2 (``_weight_kinetic``) and the diagonal;
    on a uniform grid they are 1, 1 and 0, and the operator is -D2."""
    _, jacobian, curvature = _map_of(grid)
    a = 1.0 / jacobian
    return a, np.sqrt(a), 0.5 * a * curvature


def _weight_kinetic(out: np.ndarray, a: np.ndarray, r: np.ndarray) -> None:
    """Weight -D2, written in ``out`` on the points where a and R are
    sampled, entry by entry by R_i R_j (a_i + a_j)/2 (``_mapped_kinetic``)."""
    weight = a[:, None] + a
    weight *= r[:, None] * r
    weight *= 0.5
    out *= weight


def _kinetic_blocks(grid: Grid | MappedGrid, even_out: np.ndarray, odd_out: np.ndarray):
    """Write -d^2/dx^2 on the even and on the odd lattice functions into
    ``even_out`` and ``odd_out``: -D2 of the lattice under ``grid``
    (``_negative_d2_blocks``) weighted as ``_mapped_kinetic`` says.  Returns
    the diagonal it still needs, a a''/2 (0 on a uniform grid).  The weights
    are even, so they act on the parity blocks through their values at the
    lattice points 0..N/2 (even) and 1..N/2-1 (odd)."""
    _negative_d2_blocks(_derivative_columns(_map_of(grid)[0])[1], even_out, odd_out)
    a, r, diagonal = _mapped_kinetic(grid)
    h = grid.n // 2
    for out, points in ((even_out, slice(None, h + 1)), (odd_out, slice(1, h))):
        _weight_kinetic(out, a[points], r[points])
    return diagonal


def _even_odd_part(views, g, q, sign: int, out: np.ndarray) -> None:
    """Write the even-odd part of sign S(g) + diag(q), S(g) = (g D1 + D1 g)/2,
    for an even g (already divided by J on a mapped grid) and an odd q, into
    the (N/2+1) x (N/2-1) ``out``: rows on the even, columns on the odd
    lattice functions.  The even-odd part of S(g) is
    s_i (g_i + g_j) (c1[i-j] - c1[i+j]) / 2, c1 the lattice's first-derivative
    column, whose ``_reflection_views`` are ``views``; that of diag(q) is q_j at
    (j, j - 1).  Every block with a first-order coupling is written here."""
    toeplitz, hankel = views
    h = len(toeplitz) - 1
    odd = np.arange(1, h)
    scale = np.where(np.arange(h + 1) % h == 0, np.sqrt(0.5), 1.0)
    first, second = (toeplitz, hankel) if sign > 0 else (hankel, toeplitz)
    np.subtract(first[:, 1:h], second[:, 1:h], out=out)
    weight = g[: h + 1, None] + g[odd]  # s_i (g_i + g_j) / 2
    weight *= 0.5 * scale[:, None]
    out *= weight
    out[odd, odd - 1] += q[odd]


def _parity_block(grid: Grid | MappedGrid, g, pa, pd, q, parity: int, out: np.ndarray) -> None:
    """Write the K = ``parity`` block of the realified pair operator
    [[-D2 + pa, -S + q], [S + q, -D2 + pd]], S = (g D1 + D1 g)/2, for even
    diagonals g, pa, pd and odd q, into the N x N ``out``.  The -D2 parts are
    ``_kinetic_blocks``, the coupling's even-odd part is ``_even_odd_part``
    and its odd-even part the transpose.  The block acts on
    phi = J^(1/2) w: the kinetic parts are mapped, the first-order term is
    S(g/J) and the potentials are unchanged."""
    n, h = grid.n, grid.n // 2
    lattice, jacobian, _ = _map_of(grid)
    odd = np.arange(1, h)

    # +1 = [[pa - ee, q - eo], [(q - eo)^T, pd - oo]] on (even, odd) and
    # -1 = [[pa - oo, (q + eo)^T], [q + eo, pd - ee]] on (odd, even)
    if parity > 0:
        e, o = slice(None, h + 1), slice(h + 1, None)
    else:
        e, o = slice(h - 1, None), slice(None, h - 1)
    kinetic = _kinetic_blocks(grid, out[e, e], out[o, o])
    pa, pd = pa + kinetic, pd + kinetic
    diagonal = np.concatenate([pa[: h + 1], pd[odd]] if parity > 0 else [pa[odd], pd[: h + 1]])
    views = _reflection_views(_derivative_columns(lattice)[0])
    _even_odd_part(views, g / jacobian, q, -parity, out[e, o])  # -eo on +1, eo on -1
    out[o, e] = out[e, o].T
    out.flat[:: n + 1] += diagonal


def _wrong_parity(*coefficients) -> float:
    """The largest coordinate of wrong parity of even coefficients followed
    by one odd one, as ``_parity_block`` and ``build_hessian`` take them: the
    -1 part of each pair (even, odd)."""
    *even, odd = coefficients
    wrong = [parity_split(np.concatenate([c, odd]))[1] for c in even]
    return max(float(np.max(np.abs(w))) for w in wrong)


def _parity_stack(grid: Grid | MappedGrid, coefficients) -> np.ndarray:
    """The (2, N, N) stack of the K = +1 and K = -1 blocks of
    ``_parity_block``."""
    blocks = np.empty((2, grid.n, grid.n))
    for parity, out in zip((1, -1), blocks):
        _parity_block(grid, *coefficients, parity, out)
    return blocks


# ---------------------------------------------------------------------------
# sector operators and the full Hessian


def _sector_setup(omega: float, grid: Grid | MappedGrid, sign: int):
    """One evaluation of U and U' for the v = sign * conj(u) reduction: the
    coefficients (g, pa, pd, q) of ``_parity_block``, the K = +1 part s+ of
    the constraint vector s, the K = -1 part k- of the kernel vector k
    ((s, k) = (U, U') for plus, (iU', iU) for minus, times J^(1/2), as the
    blocks act on J^(1/2) w), and the sector's parity defect: that of the
    coefficients and of the dropped parts s- and k+."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    u = eval_profile(omega, grid)
    up = profile_derivative(omega, grid.x)
    s, k = (u, up) if sign > 0 else (1j * up, 1j * u)
    root = np.sqrt(_map_of(grid)[1])
    s, k = root * s, root * k
    absq = np.abs(u) ** 2
    big = 1.0 - omega * omega
    if sign > 0:
        g = -6.0 * absq
        pot = 6.0 * absq**2 - 6.0 * omega * absq + big
        off = -6.0 * omega * u**2
    else:
        g = -2.0 * absq
        pot = -2.0 * absq**2 - 2.0 * omega * absq + big
        off = 2.0 * omega * u**2
    coefficients = (g, pot + off.real, pot - off.real, off.imag)
    s_plus, s_minus = parity_split(embed_conjugate_pair(s))
    k_plus, k_minus = parity_split(embed_conjugate_pair(k))
    defect = max(_wrong_parity(*coefficients), float(np.max(np.abs(s_minus))),
                 float(np.max(np.abs(k_plus))))
    return coefficients, s_plus, k_minus, defect


def build_sector_operator(omega: float, grid: Grid | MappedGrid, sign: int) -> DiscreteOperator:
    """The parity-block stack of the realified 2N x 2N operator of the
    v = sign * conj(u) reduction: sign=+1 gives the sector whose kernel holds
    the translation mode (U', conj U'), sign=-1 the gauge mode (U, -conj U).
    The parity defect is that of ``_sector_setup``."""
    coefficients, _, _, defect = _sector_setup(omega, grid, sign)
    return DiscreteOperator(_parity_stack(grid, coefficients), 1.0 - omega * omega,
                            parity_defect=defect)


def build_hessian(omega: float, grid: Grid | MappedGrid) -> DiscreteOperator:
    """The realified 4N x 4N curvature operator on (Re u, Re v, Im u, Im v)
    as the (2, 2N, 2N) stack of its K4 = +1 block, on (even Re u, even Re v,
    odd Im u, odd Im v), and its K4 = -1 block, on (odd, odd, even, even)
    (``parity_split`` with two components); K4 = diag(R, R, -R, -R) commutes
    with it, as U(-x) = conj U(x) and the map is odd.

    Its displayed entries are l1 = -D2 + i S(g1) + diag p1, the diagonal l2
    and l3 = i S(g3) + diag p3, S(g) = (g D1 + D1 g)/2.  The pair operator
    [[l1, 2 l2], [2 conj l2, conj l1]], with conjugate part
    [[l2, l3], [conj l3, conj l2]], realifies to N x N blocks: -D2 plus
    diag a (Re) or diag b (Im) on the diagonal ones, diag c on (Re u, Re v),
    diag d on (Im u, Im v), and +-S(g1) or +-S(g3) plus a multiple of
    diag(Im l2) on the four (Re, Im) ones, with even g1, g3, a, b, c, d and
    odd Im l2.  Each K4 block is written from the even and odd kinetic parts
    (``_kinetic_blocks``), the samples of a, b, c, d and the (Re, Im)
    blocks' even-odd parts (``_even_odd_part``), mirrored by transposition;
    the coefficients' parity defect is refused above CONSTRUCTION_TOL.  The
    profile derivative is the exact closed form, which makes the similarity
    identity against the sector operators pointwise-exact.  The operator
    acts on J^(1/2) w, as the sector blocks do."""
    lattice, jacobian, _ = _map_of(grid)
    h = grid.n // 2
    u = eval_profile(omega, grid)
    up = profile_derivative(omega, grid.x)
    absq = np.abs(u) ** 2
    im_uup = np.imag(np.conj(u) * up)
    re_u2 = np.real(u * u)
    p1 = 4.0 * im_uup + 10.0 * absq**2 - 4.0 * re_u2 + (1.0 - omega * omega)
    p3 = 2.0 * im_uup + 8.0 * absq**2 - 2.0 * re_u2
    l2 = -2j * u * up + 4.0 * u**2 * absq - 2.0 * absq
    re, im = l2.real, l2.imag
    g1, g3 = -4.0 * absq, -2.0 * absq
    a, b, c, d = p1 + re, p1 - re, 2.0 * re + p3, 2.0 * re - p3
    defect = _wrong_parity(g1, a, b, c, d, im)
    g1, g3 = g1 / jacobian, g3 / jacobian
    # (Re component, Im component, sign of S(g), g, diagonal) of the blocks
    # [Re, Im] = sign S(g) + diag(diagonal), components numbered as the
    # coordinates (Re u, Re v, Im u, Im v)
    couplings = ((0, 2, -1, g1, im), (0, 3, 1, g3, -2.0 * im),
                 (1, 2, -1, g3, 2.0 * im), (1, 3, 1, g1, -im))
    views = _reflection_views(_derivative_columns(lattice)[0])
    even, odd = slice(None, h + 1), slice(1, h)
    blocks = np.zeros((2, 2 * grid.n, 2 * grid.n))
    for parity, out in zip((1, -1), blocks):
        re_points, im_points = (even, odd) if parity > 0 else (odd, even)
        r, i = (h + 1, h - 1) if parity > 0 else (h - 1, h + 1)
        comp = [slice(0, r), slice(r, 2 * r), slice(2 * r, 2 * r + i), slice(2 * r + i, None)]
        re_block, im_block = out[comp[0], comp[0]], out[comp[2], comp[2]]
        kinetic = _kinetic_blocks(grid, *((re_block, im_block) if parity > 0
                                          else (im_block, re_block)))
        out[comp[1], comp[1]] = re_block
        out[comp[3], comp[3]] = im_block
        for k, l, diagonal in ((0, 1, c[re_points]), (2, 3, d[im_points])):
            np.fill_diagonal(out[comp[k], comp[l]], diagonal)
            np.fill_diagonal(out[comp[l], comp[k]], diagonal)
        # the even-odd part sits at [Re, Im] on +1 and at [Im, Re] on -1,
        # where the block is the transpose, -sign S(g) + diag(diagonal)
        for k, l, sign, g, diagonal in couplings:
            rows, cols = (comp[k], comp[l]) if parity > 0 else (comp[l], comp[k])
            _even_odd_part(views, g, diagonal, sign * parity, out[rows, cols])
            out[cols, rows] = out[rows, cols].T
        a_k, b_k = (a + kinetic)[re_points], (b + kinetic)[im_points]
        out.flat[:: 2 * grid.n + 1] += np.concatenate([a_k, a_k, b_k, b_k])
    return DiscreteOperator(blocks, 1.0 - omega * omega, parity_defect=defect)


# ---------------------------------------------------------------------------
# Schrodinger reductions


@dataclass(frozen=True)
class SchrodingerProblem:
    """A stretched-variable spectral problem with continuum edge at 1.

    Scalar kinds carry a single decaying potential V(z); the coupled kind
    carries (V1, V2) with a complex off-diagonal coupling V2.
    """

    kind: str
    omega: float

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not abs(self.omega) < 1.0:
            raise ValueError("|omega| < 1 required")

    @property
    def scalar(self) -> bool:
        return self.kind != COUPLED_KIND

    def _well(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1/(w + cosh 2z), cosh 2z/(w + cosh 2z) and sinh 2z/(w + cosh 2z)
        through e = exp(-2|z|): they underflow to 0 (or tend to +-1) instead of
        overflowing on wide domains."""
        z = np.asarray(z, dtype=float)
        e = np.exp(-2.0 * np.abs(z))
        e2 = np.exp(-4.0 * np.abs(z))
        den = 1.0 + e2 + 2.0 * self.omega * e
        return e * 2.0 / den, (1.0 + e2) / den, np.sign(z) * (1.0 - e2) / den

    def potential(self, z: np.ndarray) -> np.ndarray:
        """Scalar potential V(z) (the eigenvalue problem is
        -psi'' + (1 + V) psi = lambda psi)."""
        w = self.omega
        big = 1.0 - w * w
        inv = self._well(z)[0]
        if self.kind == "sum_sector":
            return -3.0 * big * inv**2
        if self.kind == "difference_sector":
            return -3.0 * big * inv**2 - 4.0 * w * inv
        raise ValueError("coupled kind has no scalar potential")

    def coupled_potentials(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(V1, V2) of the coupled plus-sector problem."""
        if self.kind != COUPLED_KIND:
            raise ValueError("coupled potentials only exist for the coupled kind")
        w = self.omega
        big = 1.0 - w * w
        inv, ch, sh = self._well(z)
        v1 = -3.0 * big * inv**2 - 6.0 * w * inv
        # (1 + w cosh + i sqrt(big) sinh)^2 / den^3, one factor 1/den per term
        v2 = -6.0 * w * inv * (inv + w * ch + 1j * np.sqrt(big) * sh) ** 2
        return v1, v2


def build_schrodinger(problem: SchrodingerProblem, grid: Grid | MappedGrid) -> DiscreteOperator:
    """Dense symmetric discretization of a stretched-variable problem on a
    periodic z-grid, split by the reflection z -> -z.  A scalar kind (V even)
    gives its blocks on the even and the odd lattice functions, the odd one
    padded to the even one's size N/2+1 with two decoupled entries at the
    continuum edge 1, above ``cutoff``; the coupled kind (V1 even,
    V2(-z) = conj V2(z)) the K = +1 and K = -1 blocks of the realified
    2N x 2N matrix.  The kinetic parts are ``_kinetic_blocks``.  The parity
    defect is the wrong-parity part of the potentials."""
    if problem.scalar:
        h = grid.n // 2
        diag = 1.0 + problem.potential(grid.x)
        wrong = parity_split(np.concatenate([diag, np.zeros(grid.n)]))[1]
        blocks = np.zeros((2, h + 1, h + 1))
        even, odd = blocks
        diag = diag + _kinetic_blocks(grid, even, odd[: h - 1, : h - 1])
        even.flat[:: h + 2] += diag[: h + 1]
        odd.flat[:: h + 2] += np.concatenate([diag[1:h], [1.0, 1.0]])
        return DiscreteOperator(blocks, 1.0, parity_defect=float(np.max(np.abs(wrong))))
    v1, v2 = problem.coupled_potentials(grid.x)
    coefficients = (np.zeros(grid.n), 1.0 + v1 + v2.real, 1.0 + v1 - v2.real, v2.imag)
    return DiscreteOperator(_parity_stack(grid, coefficients), 1.0,
                            parity_defect=_wrong_parity(*coefficients))


def stretched_grid(omega: float, grid_x: Grid | MappedGrid) -> Grid | MappedGrid:
    """The z-grid matching a given x-grid under z = sqrt(1 - omega^2) x: the
    same lattice, with the half-length, or the map's scale, times
    sqrt(1 - omega^2)."""
    _check_omega(omega)
    beta = float(np.sqrt(1.0 - omega * omega))
    if isinstance(grid_x, MappedGrid):
        return MappedGrid(grid_x.lattice, beta * grid_x.scale)
    return Grid(beta * grid_x.half_length, grid_x.n)


# ---------------------------------------------------------------------------
# isolated spectra, Sturm counts, constrained minima


class SigmaSolve(NamedTuple):
    value: float  # the constraint slope sigma (v^T M^{-1} v from ``_reduce_block``)
    residual: float  # max |M x - v| of the solve


def isolated_spectrum(op: DiscreteOperator) -> np.ndarray:
    """Eigenvalues (ascending) strictly below ``op.cutoff`` from one reduction
    of each block; the margin below the edge excludes discretized continuum
    states that scatter slightly below it on finite domains."""
    blocks = op.matrix.reshape(-1, *op.matrix.shape[-2:])
    return _eigenvalues_below([_reduce_block(b)[:2] for b in blocks], op.cutoff)


def _eigenvalues_below(tridiagonals, cutoff: float) -> np.ndarray:
    """Eigenvalues (ascending) below ``cutoff`` of tridiagonals (d, e), by
    bisection: only the isolated part of the spectrum is computed."""
    vals = np.concatenate([eigvalsh_tridiagonal(d, e, select="v", select_range=(-np.inf, cutoff))
                           for d, e in tridiagonals])
    return np.sort(vals[vals < cutoff])


def _reduce_block(matrix: np.ndarray, vector=None, solve: bool = False):
    """Tridiagonal form (d, e) of a symmetric block M from one reduction of a
    Fortran-ordered copy, and with ``solve`` the ``SigmaSolve`` of
    v^T M^{-1} v; the block is left intact.
    A ``vector`` v is first reflected onto e_1 by the rank-two update
    H M H = M - h w^T - w h^T (H = I - beta h h^T, H v = -a e_1, a = |v|
    signed as v_0).  LAPACK's lower reduction H M H = Q T Q^T keeps e_1 fixed
    (Golub & Van Loan, sec. 8.3): T has the spectrum of M, T[1:, 1:] is M off
    v, and T y = e_1 gives v^T M^{-1} v = a^2 y_0, checked by the residual of
    x = -a H Q y with Q applied from the stored reflectors and M from the
    intact block.  Products with M are BLAS ``dsymv`` calls (see the module
    docstring)."""
    n = matrix.shape[0]
    t = np.array(matrix, order="C").T  # a Fortran-ordered copy of M, as M is symmetric
    if vector is not None:
        h = np.array(vector, dtype=float)
        a = np.copysign(np.linalg.norm(h), h[0])
        h[0] += a
        beta = 2.0 / (h @ h)
        p = dsymv(beta, matrix.T, h, lower=1)
        w = p - (0.5 * beta * (p @ h)) * h
        t = dsyr2(-1.0, h, w, lower=1, a=t, overwrite_a=1)
    lwork, _ = dsytrd_lwork(n, lower=1)
    c, d, e, tau, _ = dsytrd(t, lower=1, lwork=int(lwork), overwrite_a=1)
    if not solve:
        return d, e, None
    *_, y, info = dgtsv(e, d, e, np.eye(1, n)[0])
    if info:
        raise np.linalg.LinAlgError("singular block: v^T M^{-1} v is undefined")
    value = float(a * a * y[0])
    # Q y = H(1) ... H(n-1) y, applied as LAPACK's dormtr does for a lower
    # reduction; lwork = 1 selects the unblocked loop, the cheaper for one column
    y[1:] = dormqr("L", "N", c[1:, : n - 1], tau, y[1:, None], 1)[0][:, 0]
    x = -a * (y - (beta * (h @ y)) * h)
    residual = dsymv(1.0, matrix.T, x, beta=-1.0, y=vector, lower=1)
    return d, e, SigmaSolve(value, float(np.max(np.abs(residual))))


def _fd_eigenvalues(problem: SchrodingerProblem, half: float, cells: int) -> np.ndarray:
    """Eigenvalues below the edge of the second-order finite-difference
    tridiagonal T of -psi'' + (1 + V) psi on (-half, half) with Dirichlet
    ends and ``cells`` equal cells, by LAPACK Sturm-sequence bisection: the
    number of eigenvalues below lam is the number of negative pivots of
    T - lam I, the discrete oscillation count.  The lower end of the search
    is the Gershgorin bound 1 + min V, less a margin."""
    h = 2.0 * half / cells
    diag = 1.0 + problem.potential(-half + h * np.arange(1, cells))
    low = float(np.min(diag)) - 0.1
    diag += 2.0 / h**2
    off = np.full(cells - 2, -1.0 / h**2)
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(low, 1.0))


def _richardson_eigenvalues(problem: SchrodingerProblem, half: float) -> np.ndarray:
    """Sturm-sequence eigenvalues on (-half, half) at steps h ~ STURM_STEP and
    h/2, Richardson-extrapolated as (4 fine - coarse)/3 to cancel the O(h^2)
    discretization error.  The two counts must agree."""
    cells = round(2.0 * half / STURM_STEP)
    coarse = _fd_eigenvalues(problem, half, cells)
    fine = _fd_eigenvalues(problem, half, 2 * cells)
    if len(coarse) != len(fine):
        raise RuntimeError(
            f"{problem}: Sturm counts differ on half-width {half:g} "
            f"({len(coarse)} at h = {2.0 * half / cells:g}, {len(fine)} at h/2)"
        )
    return (4.0 * fine - coarse) / 3.0


def _sturm_half_width(lam: float) -> float:
    """Half-width on which an eigenvalue ``lam`` is resolved: near-edge
    eigenfunctions decay slowly (rate sqrt(1 - lam)), so the domain widens
    until the Dirichlet boundary shift is negligible, up to 400."""
    wide = min(9.0 / np.sqrt(max(1.0 - lam, 1e-4)), 400.0)
    return wide if wide > 1.01 * STURM_HALF_WIDTH else STURM_HALF_WIDTH


def sturm_eigenvalues(problem: SchrodingerProblem) -> list[float]:
    """Isolated eigenvalues below the edge of a scalar problem from the
    finite-difference Sturm count, an oscillation count independent of the
    Fourier discretization of ``build_schrodinger``.

    All eigenvalues are first found on (-STURM_HALF_WIDTH, STURM_HALF_WIDTH);
    each is then recomputed on the half-width ``_sturm_half_width`` gives it."""
    if not problem.scalar:
        raise ValueError("the Sturm count only applies to scalar problems")
    vals = _richardson_eigenvalues(problem, STURM_HALF_WIDTH)
    for m, lam in enumerate(vals):
        half = _sturm_half_width(lam)
        if half > STURM_HALF_WIDTH:
            vals[m] = _richardson_eigenvalues(problem, half)[m]
    return [float(v) for v in vals]


def sigma_closed_form(omega: float, sign: int) -> float:
    """Constraint slopes of the two sectors in closed form."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_omega(omega)
    if abs(omega) < OMEGA_DEGENERATE:
        raise ValueError("sigma diverges at omega = 0")
    beta = float(np.sqrt(1.0 - omega * omega))
    if sign > 0:
        return -1.0 / (2.0 * omega * beta)
    return beta / (2.0 * omega)


def spectral_grid(omega: float, n: int | None = None) -> MappedGrid:
    """Mapped grid x = s sinh(xi) for eigenvalue work at this frequency.

    The half-length L puts the tail exp(-beta L) below exp(-22) ~ 2.8e-10,
    and the xi-lattice spans [-asinh(L/s), asinh(L/s)).  The profile's poles
    lie on the imaginary x-axis, the nearest at the singularity distance
    d >= 1/2, so with s = MAP_SCALE = 1/2 every pole maps onto
    Im xi = pi/2 and the mapped profile factors are analytic in one strip
    of half-width pi/2 at every omega; so are J^(1/2) and 1/J, whose
    singularities are at xi = i pi/2.  One lattice size SPECTRAL_N therefore
    serves every omega >= -0.997 (see CHANGES.md for its convergence table);
    at -0.998 and -0.999 it shows a spurious negative constrained minimum in
    the plus sector, which 256 points remove.  ``n`` overrides it.
    """
    half_length = tail_half_length(omega, 22.0)
    lattice = Grid(float(np.arcsinh(half_length / MAP_SCALE)), SPECTRAL_N if n is None else n)
    return MappedGrid(lattice, MAP_SCALE)


class SectorAnalysis(NamedTuple):
    """Every spectral quantity of one (omega, sector), as ``sector_analysis``
    computes it; the record keeps no matrix."""

    isolated: np.ndarray  # isolated eigenvalues (ascending): the union of the block spectra
    constrained_min: float  # smallest eigenvalue off the two constraint vectors
    sigma: SigmaSolve | None  # the slope, scaled by 2 h, and its residual; None near omega = 0
    parity_defect: float  # of the sector operator
    cutoff: float  # upper end of the isolated spectrum


@lru_cache(maxsize=2)  # the current omega's two sectors
def sector_analysis(omega: float, grid: Grid | MappedGrid, sign: int) -> SectorAnalysis:
    """The ``SectorAnalysis`` of one (omega, sector) from one ``_sector_setup``
    and one N x N buffer: after the parity defect has been checked, the
    K = +1 block is written into the buffer and reduced (``_reduce_block``,
    on a copy), then the K = -1 block; no stack of both blocks is formed,
    and the buffer is dropped on return.  The isolated spectrum is
    the union of the blocks' T spectra, the constrained minimum the lowest
    eigenvalue of their T[1:, 1:], and sigma
    <L^{-1} s, s> = 2 h s+^T M+^{-1} s+ (the +1 block holds no kernel; the
    lattice spacing h, dx on a uniform grid, turns the realified dot into
    the pairing, the weights h J being carried by s+ = J^(1/2) s), its
    residual taken on the intact +1 block."""
    coefficients, s, k, defect = _sector_setup(omega, grid, sign)
    _refuse_defect(defect)
    block = np.empty((grid.n, grid.n))
    _parity_block(grid, *coefficients, 1, block)
    *t_plus, solved = _reduce_block(block, s, solve=abs(omega) >= OMEGA_DEGENERATE)
    _parity_block(grid, *coefficients, -1, block)
    tridiagonals = (t_plus, _reduce_block(block, k)[:2])
    lowest = min(float(eigvalsh_tridiagonal(d[1:], e[1:], select="i", select_range=(0, 0))[0])
                 for d, e in tridiagonals)
    if solved is not None:
        solved = solved._replace(value=2.0 * _map_of(grid)[0].dx * solved.value)
    cutoff = _cutoff(1.0 - omega * omega)
    return SectorAnalysis(_eigenvalues_below(tridiagonals, cutoff), lowest, solved, defect,
                          cutoff)


def sigma_index(omega: float, grid: Grid | MappedGrid, sign: int) -> float:
    """Constraint slope <L^{-1} s, s> of the shared sector analysis (see
    ``sector_analysis``)."""
    solved = sector_analysis(omega, grid, sign).sigma
    if solved is None:
        raise ValueError("sigma solve is degenerate near omega = 0")
    return solved.value


def _constraint_rows(omega: float, grid: Grid | MappedGrid) -> np.ndarray:
    """Four real constraint functionals on (Re u, Re v, Im u, Im v): the
    real and imaginary parts of the complex constraints
    <(f, conj f), (u, v)> = sum(conj(f) u + f v) for f = J^(1/2) U and
    f = J^(1/2) U', the Hessian acting on J^(1/2) (u, v)."""
    root = np.sqrt(_map_of(grid)[1])
    rows = []
    for f in (root * eval_profile(omega, grid), root * profile_derivative(omega, grid.x)):
        w = np.concatenate([f, np.conj(f)])
        rows.append(embed_conjugate_pair(w))
        rows.append(embed_conjugate_pair(1j * w))
    return np.asarray(rows)


def constrained_min_eig(omega: float, grid: Grid | MappedGrid) -> float:
    """Smallest eigenvalue of the curvature operator projected onto the
    orthogonal complement of the four real constraint functionals.  The
    similarity splits both the operator and the constraints, so this is the
    smaller of the two per-sector constrained minima."""
    return min(sector_analysis(omega, grid, sign).constrained_min for sign in (1, -1))


def _constraint_blocks(omega: float, grid: Grid | MappedGrid) -> tuple[np.ndarray, np.ndarray]:
    """The ``_constraint_rows`` of each K4 block of ``build_hessian``, as
    (2, 2N) arrays: the real pairing with U and the imaginary pairing with U'
    (rows 0 and 3) lie in K4 = +1, rows 1 and 2 in K4 = -1.  Their
    wrong-parity remainders, which the blocks drop, are refused above
    CONSTRUCTION_TOL."""
    split = [parity_split(row, 2) for row in _constraint_rows(omega, grid)]
    _refuse_defect(max(float(np.max(np.abs(split[row][parity])))
                       for row, parity in ((0, 1), (3, 1), (1, 0), (2, 0))))
    return (np.array([split[0][0], split[3][0]]), np.array([split[1][1], split[2][1]]))


def _constrained_min_eig_hessian(omega: float, grid: Grid | MappedGrid) -> float:
    """Reference for ``constrained_min_eig`` through the Hessian's two K4
    blocks (``build_hessian``), each off its own two constraint rows
    (``_constraint_blocks``); for small grids.  A block's rows C are factored
    as C^T = Q R (``dgeqrf``), and their two Householder reflectors, applied
    in place from both sides to the block's Fortran view (``dormqr``), give
    Q^T M Q: its trailing (2N - 2)-square block is M on the null space of C
    (Golub & Van Loan, sec. 5.1), whose lowest eigenvalue one subset
    ``eigh`` gives.  The smaller of the two is the constrained minimum."""
    lowest = np.inf
    blocks = build_hessian(omega, grid).matrix
    for block, rows in zip(blocks, _constraint_blocks(omega, grid)):
        projected = block.T  # Fortran-ordered, as the block is symmetric
        reflectors, tau, *_ = dgeqrf(rows.T)
        for side, trans in (("L", "T"), ("R", "N")):
            projected, *_ = dormqr(side, trans, reflectors, tau, projected, len(projected),
                                   overwrite_c=1)
        vals = eigh(projected[2:, 2:], eigvals_only=True, subset_by_index=[0, 0],
                    overwrite_a=True)
        lowest = min(lowest, float(vals[0]))
    return lowest


def constrained_split_defect(omega: float, grid: Grid | MappedGrid) -> float:
    """|per-sector route - full-Hessian route| of the constrained minimum on
    ``grid``: a self-check of the constraint split, and on a mapped grid of
    its mapped parts (the J^(1/2) weights, S(g/J) and the kinetic part), for
    small grids (the Hessian's K4 blocks are 2N x 2N and dense).  The sector route is read from the
    cached ``sector_analysis``, so on the verdict's own grid it recomputes
    nothing."""
    return abs(constrained_min_eig(omega, grid) - _constrained_min_eig_hessian(omega, grid))


def splitting_probe(omega: float, grid: Grid | MappedGrid) -> dict:
    """The isolated spectrum of both sector operators at one omega: counts
    below the edge, the non-kernel eigenvalue of each sector (NaN where its
    isolated spectrum is only the kernel, or empty), the parity
    defect of each sector operator, and the degenerate-splitting integral
    whose sign the probe settles empirically, by the rectangle rule in the
    lattice variable with weights h J (h = dx, J = 1 on a uniform grid)."""
    row = {"omega": float(omega)}
    for sign, tag in ((1, "plus"), (-1, "minus")):
        analysis = sector_analysis(omega, grid, sign)
        vals = analysis.isolated
        row[f"count_{tag}"] = len(vals)
        row[f"parity_defect_{tag}"] = analysis.parity_defect
        if len(vals):
            kernel_idx = int(np.argmin(np.abs(vals)))
            others = np.delete(vals, kernel_idx)
            row[f"kernel_{tag}"] = float(vals[kernel_idx])
            row[f"second_{tag}"] = (float(others[np.argmax(np.abs(others))]) if len(others)
                                    else np.nan)
        else:
            row[f"kernel_{tag}"] = row[f"second_{tag}"] = np.nan
    zg = stretched_grid(omega, grid)
    num = -3.0 + 2.0 * omega**2 + np.cosh(4.0 * zg.x)
    den = (omega + np.cosh(2.0 * zg.x)) ** 4
    lattice, jacobian, _ = _map_of(zg)
    row["splitting_integral"] = float(lattice.dx * np.sum(jacobian * num / den))
    return row


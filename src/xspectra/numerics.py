"""Independent numerical verification: Gram matrices, grid Hamiltonians,
real and complex eigenvalue extraction, ODE residuals.

Everything here deliberately avoids the closed forms it is meant to
check: spectra come from finite differences, norms from quadrature, and
second derivatives from extrapolated stencils.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ArgumentError,
    ConvergenceError,
    FactorizationError,
    SingularityError,
)
from . import models
from .models import PotentialModel
from .polycore import Quadrature, integrate
from .xop import X1Family, x1_polynomial, x1_weight

__all__ = [
    "gram_matrix",
    "TridiagonalOperator",
    "tridiagonal_from_potential",
    "discretize",
    "lowest_eigenvalues",
    "EigenResult",
    "eigen_near_shift",
    "schrodinger_residual",
]


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def gram_matrix(family: X1Family, nmax: int, q: Quadrature):
    """Weighted Gram matrix G[n-1][m-1] of members 1..nmax, plus the worst
    off-diagonal ratio |G_nm| / sqrt(G_nn G_mm).

    The upper triangle is one stacked integral, so every entry shares one
    panel mesh and one stopping decision.
    """
    if nmax < 1:
        raise ArgumentError(f"nmax must be at least 1, got {nmax}")
    weight = x1_weight(family)
    members = [x1_polynomial(family, n) for n in range(1, nmax + 1)]
    rows, cols = np.triu_indices(nmax)

    def products(x):
        p = np.array([member(x) for member in members])
        return (weight(x) * p)[rows] * p[cols]

    g = np.zeros((nmax, nmax))
    g[rows, cols] = g[cols, rows] = integrate(products, q)
    diag = np.diag(g)
    ratios = np.abs(g) / np.sqrt(np.outer(diag, diag))
    np.fill_diagonal(ratios, 0.0)
    return g, float(ratios.max())


# ---------------------------------------------------------------------------
# grid Hamiltonians
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Dirichlet finite-difference Hamiltonian -d^2/dx^2 + V.

    Complex-symmetric (shared off-diagonal, no conjugation) in the
    shifted case; plain symmetric when the diagonal is real.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diagonal)

    @property
    def scale(self) -> float:
        off = np.max(np.abs(self.off_diagonal)) if len(self.off_diagonal) else 0.0
        return float(np.max(np.abs(self.diagonal)) + 2.0 * off)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        if self.size > 1:
            out[:-1] = out[:-1] + self.off_diagonal * v[1:]
            out[1:] = out[1:] + self.off_diagonal * v[:-1]
        return out


def tridiagonal_from_potential(
    v: Optional[Callable], lo: float, hi: float, n: int
) -> TridiagonalOperator:
    """Standard second-order stencil for -psi'' + V psi on (lo, hi) with
    psi(lo) = psi(hi) = 0; ``v`` may be None for a free particle."""
    if n < 100:
        raise ArgumentError(f"need at least 100 interior points, got {n}")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ArgumentError(f"need lo < hi, got ({lo:g}, {hi:g})")
    h = (hi - lo) / (n + 1)
    xg = lo + h * np.arange(1, n + 1)
    vv = np.zeros(n) if v is None else np.asarray(v(xg))
    diag = 2.0 / (h * h) + vv
    off = np.full(n - 1, -1.0 / (h * h), dtype=diag.dtype)
    return TridiagonalOperator(diag, off)


def _interior_singularities(m: PotentialModel, lo: float, hi: float) -> list:
    """Real potential poles strictly inside (lo, hi); endpoint poles are
    fine because the grid is interior-only."""
    tol = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    candidates = []
    if m.family == "radial_extended":
        if m.eps == 0.0 or abs(m.eps * m.eps - 4.0 * m.a) <= 1e-12 * 4.0 * m.a:
            candidates.append(0.0)
    else:
        off = 0.5 * math.pi if m.branch == "cos" else 0.0
        w_lo, w_hi = sorted((m.k * lo + off, m.k * hi + off))

        def angles_to_x(thetas):
            return [(theta - off) / m.k for theta in thetas]

        if m.eps == 0.0:
            j0 = math.ceil((w_lo - 0.5 * math.pi) / math.pi)
            j1 = math.floor((w_hi - 0.5 * math.pi) / math.pi)
            candidates += angles_to_x(
                [0.5 * math.pi + j * math.pi for j in range(j0, j1 + 1)]
            )
            r0 = (m.a + m.b) / (m.b - m.a)
            if abs(r0) <= 1.0:
                base = math.asin(r0)
                for root in (base, math.pi - base):
                    j0 = math.ceil((w_lo - root) / (2.0 * math.pi))
                    j1 = math.floor((w_hi - root) / (2.0 * math.pi))
                    candidates += angles_to_x(
                        [root + 2.0 * math.pi * j for j in range(j0, j1 + 1)]
                    )
        else:
            ratio = (m.a + m.b) / abs(m.b - m.a)
            if ratio >= 1.0 and abs(math.cosh(m.eps) - ratio) <= 1e-12 * ratio:
                j0 = math.ceil((w_lo - 0.5 * math.pi) / math.pi)
                j1 = math.floor((w_hi - 0.5 * math.pi) / math.pi)
                candidates += angles_to_x(
                    [0.5 * math.pi + j * math.pi for j in range(j0, j1 + 1)]
                )
    return [p for p in candidates if lo + tol < p < hi - tol]


def discretize(m: PotentialModel, lo: float, hi: float, n: int) -> TridiagonalOperator:
    """Grid Hamiltonian for the model on (lo, hi) with n interior points.

    The diagonal is complex exactly when ``m.eps != 0``.  A potential
    pole strictly inside the interval raises
    :class:`SingularityError`; poles sitting exactly on the Dirichlet
    endpoints are allowed since the grid never touches them.
    """
    poles = _interior_singularities(m, float(lo), float(hi))
    if poles:
        raise SingularityError(
            f"potential pole at x = {poles[0]:g} inside ({lo:g}, {hi:g})"
        )
    return tridiagonal_from_potential(lambda x: models.potential(m, x), lo, hi, n)


# ---------------------------------------------------------------------------
# real spectra: Sturm-sequence multisection
# ---------------------------------------------------------------------------

# K: a sweep cuts each bracket into K parts with K - 1 probes (Lo,
# Philippe, Sameh, SIAM J. Sci. Stat. Comput. 8, 1987).  A sweep's cost
# is mostly the Python-level step per grid row, so a few hundred probes
# cost little more than one.  Equal parts gain log2(K) = 7 bits.
_SECTIONS = 128
_FRACTIONS = np.arange(_SECTIONS + 1) / _SECTIONS
# Sweep 0 spaces its probes geometrically up from lo instead: the
# lowest eigenvalues of a grid Hamiltonian sit some 1e-5 of the way up
# its Gershgorin bracket, where equal parts would spend about three
# sweeps just isolating them.  Column 0 is lo and column K is hi, as in
# _FRACTIONS.
_GEOMETRIC = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, _SECTIONS)))
# A finite bracket is narrower than 2**maxexp and stops once narrower
# than the 1e-300 floor of the stopping width, so it needs at most
# log2(2**maxexp / 1e-300) ~ 2021 bits.  Every sweep after the first
# gains 7 bits; sweep 0's widest part, the top one, gains only
# log2(1 / (1 - r**-1)) ~ 2.3 bits for the probe ratio
# r = 1e12**(1 / (K - 1)).  One more sweep makes up those 4.7 bits,
# and two spare sweeps absorb the rounding of the probe positions.
_MAX_SWEEPS = (
    math.ceil((np.finfo(float).maxexp - math.log2(1e-300)) / math.log2(_SECTIONS)) + 3
)


def _sturm_counts(
    d: np.ndarray, e2: np.ndarray, pivmin: float, sigmas: np.ndarray
) -> np.ndarray:
    """Number of eigenvalues of the symmetric tridiagonal with diagonal d
    and squared off-diagonal e2 below each of ``sigmas``: the negative
    pivots of the LDL^T recurrence q_i = (d_i - sigma) - e2_{i-1} / q_{i-1},
    with pivots smaller than pivmin in magnitude replaced by -pivmin.

    The row loop reuses three buffers allocated once per call; the
    mask of q < pivmin both moves pivots in [0, pivmin) to -pivmin and
    marks the negative ones, so no row allocates.
    """
    d_rows, e2_rows = d.tolist(), e2.tolist()
    q = np.subtract(d_rows[0], sigmas)
    buf = np.empty_like(q)
    neg = np.less(q, pivmin)
    np.minimum(q, -pivmin, out=q, where=neg)
    cnt = neg.astype(int)
    for d_i, e2_i in zip(d_rows[1:], e2_rows):
        np.subtract(d_i, sigmas, out=buf)
        np.divide(e2_i, q, out=q)
        np.subtract(buf, q, out=q)
        np.less(q, pivmin, out=neg)
        np.minimum(q, -pivmin, out=q, where=neg)
        cnt += neg
    return cnt


def lowest_eigenvalues(t: TridiagonalOperator, m: int) -> np.ndarray:
    """The m smallest eigenvalues of a real symmetric operator, by
    Sturm-sequence multisection (exact eigenvalue counts, no
    factorization).

    Each sweep puts K - 1 probes into every open bracket, counts the
    eigenvalues below all of them at once, and keeps the two probes
    around the first one whose count reaches the bracket's index.  The
    first sweep spaces its probes geometrically, from 1e-12 of the
    Gershgorin bracket's width above its bottom to the top, so the low
    end of the spectrum is isolated in one sweep; later sweeps space
    them evenly.  The counting loop allocates no array per row.  The
    operator is first scaled to norm ~1 by an exact power of two.
    Raises :class:`ArgumentError` for non-finite entries, off-diagonals
    whose squares overflow or an overflowing start bracket, and
    :class:`ConvergenceError` if the sweep cap is ever reached.
    """
    if np.iscomplexobj(t.diagonal) or np.iscomplexobj(t.off_diagonal):
        raise TypeError(
            "operator has complex entries; use eigen_near_shift instead"
        )
    if not 1 <= m <= t.size:
        raise ArgumentError(f"need 1 <= m <= {t.size}, got {m}")
    d = np.asarray(t.diagonal, dtype=float)
    e = np.asarray(t.off_diagonal, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ArgumentError("operator has non-finite entries")
    # e**2 must stay representable: the recurrence and start bracket use it
    d_max, e_max = float(np.abs(d).max()), float(np.abs(e).max(initial=0.0))
    if not math.isfinite(e_max * e_max):
        raise ArgumentError("operator off-diagonal entries overflow when squared")
    # scale T to norm ~1 by a power of two, which is exact: otherwise e*e
    # underflows for tiny-norm operators and the pivmin floor swamps them
    shift = math.frexp(max(d_max, e_max))[1]
    d = np.ldexp(d, -shift)
    e = np.ldexp(e, -shift)
    e2 = e * e
    off_max = e2.max() if len(e2) else 0.0
    pivmin = max(1e-290, off_max * 1e-290)

    spread = 2.0 * (np.sqrt(off_max) if off_max else 0.0)
    lo = np.full(m, d.min() - spread)
    hi = np.full(m, d.max() + spread)
    with np.errstate(over="ignore"):
        bracket = np.ldexp([lo[0], hi[0], hi[0] - lo[0]], shift)
    if not np.isfinite(bracket).all():
        raise ArgumentError("operator entries overflow the Gershgorin bracket")
    targets = np.arange(1, m + 1)
    # run to machine-relative accuracy per eigenvalue: the operator norm
    # grows like 1/h^2, so any norm-based cutoff would swamp the O(h^2)
    # eigenvalue accuracy the grids are chosen for
    eps = np.finfo(float).eps
    for sweep in range(_MAX_SWEEPS + 1):
        tol = 4.0 * eps * np.maximum(np.abs(lo), np.abs(hi)) + 1e-300
        # column 0 is lo, column K is hi, the rest are the probes; a
        # bracket only a few ulps wide has no probe strictly inside
        fractions = _GEOMETRIC if sweep == 0 else _FRACTIONS
        grid = lo[:, None] + (hi - lo)[:, None] * fractions
        grid[:, -1] = hi
        probes = grid[:, 1:-1]
        inside = (probes > lo[:, None]) & (probes < hi[:, None])
        live = np.flatnonzero((hi - lo > tol) & inside.any(axis=1))
        if len(live) == 0:
            return np.ldexp(0.5 * (lo + hi), shift)
        if sweep == _MAX_SWEEPS:
            raise ConvergenceError(
                f"Sturm multisection left {len(live)} brackets open after "
                f"{_MAX_SWEEPS} sweeps"
            )
        counts = _sturm_counts(d, e2, pivmin, probes[live].ravel()).reshape(len(live), -1)
        above = counts >= targets[live, None]
        # first probe at or above the target; K - 1 stands for hi itself
        first = np.where(above.any(axis=1), above.argmax(axis=1), _SECTIONS - 1)
        lo[live] = grid[live, first]
        hi[live] = grid[live, first + 1]


# ---------------------------------------------------------------------------
# complex spectra: shift-targeted inverse iteration
# ---------------------------------------------------------------------------


def _tri_lu_factor(dl, d, du, sigma):
    """LU with partial pivoting of (T - sigma), as LAPACK zgttrf.  Row
    swaps put fill-in on a second superdiagonal.  Returns lists (multipliers,
    swapped flags, u main, u first super, u second super).

    The row loop runs on Python complex scalars: indexing numpy arrays
    one element at a time costs several times more per row.
    """
    n = len(d)
    b = (np.asarray(d, dtype=complex) - sigma).tolist()
    a = np.asarray(dl, dtype=complex).tolist()
    c = np.asarray(du, dtype=complex).tolist()
    du2 = [0j] * max(n - 2, 0)
    mult = [0j] * max(n - 1, 0)
    swap = [False] * max(n - 1, 0)
    for i in range(n - 1):
        bi, ai = b[i], a[i]
        if abs(bi) >= abs(ai):
            if bi == 0.0:
                raise FactorizationError(f"zero pivot at row {i}")
            fact = ai / bi
            mult[i] = fact
            b[i + 1] = b[i + 1] - fact * c[i]
        else:
            fact = bi / ai
            mult[i] = fact
            swap[i] = True
            b[i] = ai
            ci = c[i]
            c[i] = b[i + 1]
            b[i + 1] = ci - fact * b[i + 1]
            if i < n - 2:
                du2[i] = c[i + 1]
                c[i + 1] = -fact * c[i + 1]
    if b[n - 1] == 0.0:
        raise FactorizationError(f"zero pivot at row {n - 1}")
    return mult, swap, b, c, du2


def _tri_lu_solve(factors, rhs):
    """Solve (T - sigma) y = rhs from the factors of :func:`_tri_lu_factor`,
    as LAPACK zgttrs; returns a complex ndarray."""
    mult, swap, b, c, du2 = factors
    n = len(b)
    y = np.asarray(rhs, dtype=complex).tolist()
    # forward: apply the row swaps and multipliers, carrying row i + 1
    yi = y[0]
    for i in range(n - 1):
        nxt = y[i + 1]
        if swap[i]:
            y[i] = nxt
            yi = yi - mult[i] * nxt
        else:
            yi = nxt - mult[i] * yi
        y[i + 1] = yi
    # back: U has the main diagonal and two superdiagonals
    y[n - 1] = y[n - 1] / b[n - 1]
    if n > 1:
        y[n - 2] = (y[n - 2] - c[n - 2] * y[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        y[i] = (y[i] - c[i] * y[i + 1] - du2[i] * y[i + 2]) / b[i]
    return np.array(y, dtype=complex)


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: complex
    residual: float
    iterations: int
    converged: bool
    # singular factorizations that were retried with a perturbed shift
    shift_retries: int = 0


_FIXED_SHIFT_STEPS = 4
_RESIDUAL_TARGET = 1e-8


def eigen_near_shift(
    t: TridiagonalOperator, sigma: complex, iters: int = 60
) -> EigenResult:
    """Eigenpair of the (possibly complex-symmetric) operator nearest sigma.

    Inverse iteration with a complex tridiagonal LU (partial pivoting).
    The shift stays at sigma for a few steps to lock onto the nearest
    eigenvector, then follows the running Rayleigh-quotient estimate;
    eigenvalues are the unconjugated quotient v.Tv / v.v, which is the
    stationary one for complex-symmetric operators.  A singular
    factorization perturbs sigma by 1e-8 (1 + |sigma|) and retries once;
    ``shift_retries`` counts those retries.  Raises :class:`ArgumentError`
    for a non-finite sigma or non-finite operator entries.
    """
    if iters < 1:
        raise ArgumentError(f"need at least one iteration, got {iters}")
    d = np.asarray(t.diagonal, dtype=complex)
    e = np.asarray(t.off_diagonal, dtype=complex)
    sigma = complex(sigma)
    if not cmath.isfinite(sigma):
        raise ArgumentError(f"shift must be finite, got {sigma}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ArgumentError("operator has non-finite entries")
    retries = 0

    def factor(shift):
        nonlocal retries
        try:
            return _tri_lu_factor(e, d, e, shift)
        except FactorizationError:
            retries += 1
            bumped = shift + 1e-8 * (1.0 + abs(shift))
            return _tri_lu_factor(e, d, e, bumped)

    rng = np.random.default_rng(12345)
    v = rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size)
    v /= np.linalg.norm(v)
    lam = sigma
    resid = math.inf
    factors = factor(sigma)
    for it in range(1, iters + 1):
        v = _tri_lu_solve(factors, v)
        v /= np.linalg.norm(v)
        tv = t.matvec(v)
        vtv = (v * v).sum()
        if vtv != 0.0:
            lam = (v * tv).sum() / vtv
        resid = float(np.linalg.norm(tv - lam * v))
        if resid <= _RESIDUAL_TARGET:
            return EigenResult(complex(lam), resid, it, True, retries)
        if it >= _FIXED_SHIFT_STEPS:
            factors = factor(lam)
    return EigenResult(complex(lam), resid, iters, False, retries)


# ---------------------------------------------------------------------------
# pointwise ODE residuals
# ---------------------------------------------------------------------------


def schrodinger_residual(m: PotentialModel, n: int, grid) -> float:
    """max over the grid of |-psi'' + V psi - E psi| / (|E| max|psi|).

    The second derivative is a 5-point central difference at steps h and
    h/2, Richardson-combined to sixth order, with h = 1e-4 (1 + |x|)
    per point.  Grids touching a singular or branch point raise through
    the model evaluators.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim == 0:
        xs = xs[None]
    h = 1e-4 * (1.0 + np.abs(xs))
    offsets = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    pts = xs[None, :] + offsets[:, None] * h[None, :]
    psi = models.wavefunction(m, n, pts.ravel()).reshape(pts.shape)
    h2 = h * h
    d_h = (
        -psi[0] + 16.0 * psi[1] - 30.0 * psi[3] + 16.0 * psi[5] - psi[6]
    ) / (12.0 * h2)
    d_h2 = (
        -psi[1] + 16.0 * psi[2] - 30.0 * psi[3] + 16.0 * psi[4] - psi[5]
    ) / (3.0 * h2)
    second = (16.0 * d_h2 - d_h) / 15.0
    e_n = models.energy(m, n)
    v = models.potential(m, xs)
    resid = np.abs(-second + (v - e_n) * psi[3])
    return float(resid.max() / (abs(e_n) * np.abs(psi[3]).max()))

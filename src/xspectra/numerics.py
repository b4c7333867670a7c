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
from typing import Callable

import numpy as np

from .errors import (
    ArgumentError,
    ConvergenceError,
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
        w = weight(x)
        p = np.array([member(x) for member in members])
        # far out a member's Horner sum overflows where the weight has
        # underflowed; the product is 0 there, not inf * 0 = NaN
        p[:, w == 0.0] = 0.0
        return (w * p)[rows] * p[cols]

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
    v: Callable, lo: float, hi: float, n: int
) -> TridiagonalOperator:
    """Standard second-order stencil for -psi'' + V psi on (lo, hi) with
    psi(lo) = psi(hi) = 0, V evaluated by ``v`` at the interior points."""
    if n < 100:
        raise ArgumentError(f"need at least 100 interior points, got {n}")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ArgumentError(f"need lo < hi, got ({lo:g}, {hi:g})")
    h = (hi - lo) / (n + 1)
    xg = lo + h * np.arange(1, n + 1)
    diag = 2.0 / (h * h) + np.asarray(v(xg))
    off = np.full(n - 1, -1.0 / (h * h), dtype=diag.dtype)
    return TridiagonalOperator(diag, off)


def discretize(m: PotentialModel, lo: float, hi: float, n: int) -> TridiagonalOperator:
    """Grid Hamiltonian for the model on (lo, hi) with n interior points.

    The diagonal is complex exactly when ``m.eps != 0``.  A potential
    pole strictly inside the interval raises
    :class:`SingularityError`; poles sitting exactly on the Dirichlet
    endpoints are allowed since the grid never touches them.  A model
    :func:`models.validate_params` refuses raises :class:`DomainError`.
    """
    poles = models.real_poles(m, float(lo), float(hi))
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
# is mostly the Python-level cost of the two array operations per grid
# row in _sturm_counts' slabs, so a few hundred probes cost little more
# than one.  Equal parts gain log2(K) = 7 bits.
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


# Rows per slab of _sturm_counts: two (_SLAB, P) float buffers, about
# 0.5 MB at 508 probes; 64 was fastest of 16 to 512 on the spectra suite.
# Must stay <= 255: a clean slab's negatives are summed in uint8.
_SLAB = 64
# Pivot floor of lowest_eigenvalues' counts: LAPACK dstebz's
# safmin max(1, max e_i^2), with 1e-290 for safmin.  The operator is
# first scaled below norm 1 by a power of two, so e_i^2 < 1 and the
# floor is 1e-290 itself.
_PIVMIN = 1e-290


def _guarded_sturm_rows(
    q: np.ndarray, dsig, e2_rows, pivmin: float, cnt: np.ndarray
) -> None:
    """Advance the pivot row q, in place, through rows with shifted
    diagonals ``dsig`` (d_i - sigmas) and squared off-diagonals
    ``e2_rows``, replacing pivots smaller than pivmin in magnitude by
    -pivmin, and add the negative pivots to cnt.  The mask of
    q < pivmin both moves pivots in [0, pivmin) to -pivmin and marks
    the negative ones."""
    neg = np.empty(q.shape, dtype=bool)
    for ds_i, e2_i in zip(dsig, e2_rows):
        np.divide(e2_i, q, out=q)
        np.subtract(ds_i, q, out=q)
        np.less(q, pivmin, out=neg)
        np.minimum(q, -pivmin, out=q, where=neg)
        cnt += neg


def _sturm_counts(
    d: np.ndarray, e2: np.ndarray, pivmin: float, sigmas: np.ndarray
) -> np.ndarray:
    """Number of eigenvalues of the symmetric tridiagonal with diagonal d
    and squared off-diagonal e2 below each of ``sigmas``: the negative
    pivots of the LDL^T recurrence q_i = (d_i - sigma) - e2_{i-1} / q_{i-1},
    with pivots smaller than pivmin in magnitude replaced by -pivmin.

    Rows after the first go in slabs of _SLAB rows, as in LAPACK dlaneg
    (Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28, 2006): each row
    is one divide and one subtract into the slab's buffer, with neither
    clamp nor count.  A slab with no pivot under pivmin in magnitude
    did the guarded recurrence's float operations exactly, since its
    clamp never fires and q < pivmin is then q < 0; its negatives are
    counted at once.  A slab that has one is redone from the row before
    it by :func:`_guarded_sturm_rows`.  Counts are identical either way.

    The count stops at a slab start s once the rows left are a forbidden
    tail for every probe.  Let D = fl(min d[s:] - max sigma) and E2 =
    max e2[s-1:], and take for T, raised to at least pivmin, the
    smaller fixed point E2 / (D/2 + sqrt(D^2/4 - E2)) of x = D - E2 / x,
    real when D > 0 and D^2 >= 4 E2.  The exit needs every current
    pivot >= T and fl(D - fl(E2 / T)) >= T in float64.  Correctly
    rounded subtraction and division are monotone, so every later
    fl(d_i - sigma_j) is >= D and, while the pivot before it is >= T,
    every fl(e2_{i-1} / q) is <= fl(E2 / T); the next pivot is then
    >= fl(D - fl(E2 / T)) >= T.  By induction no later computed pivot
    falls below T >= pivmin > 0: none is negative and none is clamped,
    so the counts are those of the full recurrence.  The bound holds
    for the float recurrence itself and needs no slack; any T that
    passes the float test will do, and a NaN T or D passes none.  At
    the fixed point the test is D - E2 / T = T up to rounding, so it
    fails about as often as it holds; where it fails, T is sqrt(E2)
    instead, which maximises D - E2 / x - x and so passes with the
    widest margin.  A NaN probe makes D NaN, and a NaN pivot fails the
    pivot test, so such a count never stops early.
    """
    e2_rows = e2.tolist()
    q = np.subtract(d[0], sigmas)
    neg = np.less(q, pivmin)
    np.minimum(q, -pivmin, out=q, where=neg)
    cnt = neg.astype(int)
    # per slab start s, the pivot floor T of the forbidden-tail exit, or
    # NaN where no T passes the tail test, so that no pivot row passes it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_low = np.minimum.accumulate(d[::-1])[::-1][1::_SLAB] - sigmas.max()
        e2_high = np.maximum.accumulate(e2[::-1])[::-1][::_SLAB]
        floors = np.full(len(d_low), np.nan)
        # sqrt(E2), then the smaller fixed point wherever it passes too
        smaller = e2_high / (0.5 * d_low + np.sqrt(0.25 * d_low * d_low - e2_high))
        for floor in (np.sqrt(e2_high), smaller):
            floor = np.maximum(floor, pivmin)
            np.copyto(floors, floor, where=d_low - e2_high / floor >= floor)
    floors = floors.tolist()
    dsig = np.empty((_SLAB, len(sigmas)))
    slab = np.empty_like(dsig)
    dsig_rows, slab_rows = list(dsig), list(slab)
    for start, exit_floor in zip(range(1, len(d), _SLAB), floors):
        if q.min() >= exit_floor:
            break
        stop = min(start + _SLAB, len(d))
        rows = stop - start
        np.subtract(d[start:stop, None], sigmas, out=dsig[:rows])
        e2_slab = e2_rows[start - 1 : stop - 1]
        prev = q
        # a pivot under pivmin can make the rows after it divide by
        # zero, overflow or form inf - inf; such a slab is redone
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for e2_i, ds_i, q_i in zip(e2_slab, dsig_rows, slab_rows):
                np.divide(e2_i, prev, out=q_i)
                np.subtract(ds_i, q_i, out=q_i)
                prev = q_i
            tiny = (np.abs(slab[:rows]) < pivmin).any()
        if tiny:
            _guarded_sturm_rows(q, dsig_rows[:rows], e2_slab, pivmin, cnt)
        else:
            cnt += (slab[:rows] < 0.0).view(np.uint8).sum(axis=0, dtype=np.uint8)
            np.copyto(q, prev)
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
    them evenly.  Each distinct probe is counted once, in slabs of rows
    as LAPACK dlaneg, with two array operations per row
    (:func:`_sturm_counts`).  A bracket closes once it is no wider than
    max(4 eps |lambda|, eps max(|gl|, |gu|)), with [gl, gu] the
    Gershgorin bracket: the second term is LAPACK dstebz's default
    ABSTOL, the width below which the counts follow rounding.  The
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
    # underflows for tiny-norm operators and the _PIVMIN floor swamps them
    shift = math.frexp(max(d_max, e_max))[1]
    d = np.ldexp(d, -shift)
    e = np.ldexp(e, -shift)
    e2 = e * e
    spread = 2.0 * np.sqrt(e2.max(initial=0.0))
    lo = np.full(m, d.min() - spread)
    hi = np.full(m, d.max() + spread)
    with np.errstate(over="ignore"):
        bracket = np.ldexp([lo[0], hi[0], hi[0] - lo[0]], shift)
    if not np.isfinite(bracket).all():
        raise ArgumentError("operator entries overflow the Gershgorin bracket")
    targets = np.arange(1, m + 1)
    # stop at 4 eps |lambda| or at dstebz's default ABSTOL, eps times the
    # larger end of the Gershgorin bracket, whichever is wider: the
    # counts are exact only for a matrix within ~eps ||T|| of T (Kahan
    # 1966), so narrower brackets follow rounding.  On the spectra
    # suite's 4000-point grids eps ||T|| / lambda is <= 5.6e-10, against
    # O(h^2) errors of 5.7e-8 to 2.6e-6 relative.
    eps = np.finfo(float).eps
    floor = eps * max(abs(lo[0]), abs(hi[0]))
    for sweep in range(_MAX_SWEEPS + 1):
        tol = np.maximum(4.0 * eps * np.maximum(np.abs(lo), np.abs(hi)), floor) + 1e-300
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
        # count each distinct probe once: sweep 0's brackets all coincide
        sigmas, where = np.unique(probes[live], return_inverse=True)
        counts = _sturm_counts(d, e2, _PIVMIN, sigmas)[where].reshape(len(live), -1)
        above = counts >= targets[live, None]
        # first probe at or above the target; K - 1 stands for hi itself
        first = np.where(above.any(axis=1), above.argmax(axis=1), _SECTIONS - 1)
        lo[live] = grid[live, first]
        hi[live] = grid[live, first + 1]


# ---------------------------------------------------------------------------
# complex spectra: shift-targeted inverse iteration
# ---------------------------------------------------------------------------


def _zero_pivot(dl, d, du, sigma) -> float:
    """eps times the largest |entry| of T - sigma, or 1 where T - sigma
    is zero and any nonzero pivot serves."""
    norm = max(np.abs(x).max(initial=0.0) for x in (np.subtract(d, sigma), dl, du))
    return float(np.finfo(float).eps * norm) or 1.0


def _tri_lu_factor(dl, d, du, sigma):
    """LU with partial pivoting of (T - sigma), as LAPACK zgttrf.  Row
    swaps put fill-in on a second superdiagonal.  Returns lists (multipliers,
    swapped flags, u main, u first super, u second super).

    It cannot fail: an exactly zero pivot is replaced by eps times the
    largest |entry| of T - sigma (Peters & Wilkinson, Handbook for
    Automatic Computation II, 1971, contribution II/18; LAPACK dlagts
    with JOB = -1), so the solve stays finite and inverse iteration
    still finds the eigenvector at sigma.  Only exact zeros move.

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
                bi = b[i] = _zero_pivot(dl, d, du, sigma)
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
        b[n - 1] = _zero_pivot(dl, d, du, sigma)
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


_FIXED_SHIFT_STEPS = 4
_RESIDUAL_TARGET = 1e-8


def eigen_near_shift(
    t: TridiagonalOperator, sigma: complex, iters: int = 60
) -> EigenResult:
    """Eigenpair of the (possibly complex-symmetric) operator nearest sigma.

    Inverse iteration with a complex tridiagonal LU (partial pivoting)
    and a 2x2 Rayleigh-Ritz step (Parlett, The Symmetric Eigenvalue
    Problem, ch. 11).  Each step solves once, w = (T - shift)^-1 v, takes
    an orthonormal basis Q of span{v, w} and the eigenpairs of
    (Q^T Q)^-1 Q^T T Q, unconjugated as suits a complex-symmetric T, and
    keeps the Ritz vector y whose Ritz value is nearest sigma.  So of a
    near-degenerate pair, which one vector alone cannot separate, the
    member nearest sigma is reported.  The eigenvalue is the unconjugated
    quotient y.Ty / y.y, the stationary one for complex-symmetric
    operators, and the residual is ||Ty - lambda y|| from a fresh matvec.
    The next step starts from w, not y: y has shed the partner's
    direction, which the next Ritz step needs.  The shift stays at sigma for a few steps
    to lock onto the nearest eigenvectors, then follows the running
    estimate.  A shift that makes T - shift exactly singular needs no
    retry: the LU replaces the zero pivot by eps ||T - shift||, as in
    Peters & Wilkinson (Handbook II/18) and LAPACK dstein, and the solve
    returns the eigenvector of the eigenvalue at the shift.  Raises
    :class:`ArgumentError` for a non-finite sigma or non-finite operator
    entries.
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
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size)
    v /= np.linalg.norm(v)
    lam = sigma
    resid = math.inf
    factors = _tri_lu_factor(e, d, e, sigma)
    for it in range(1, iters + 1):
        w = _tri_lu_solve(factors, v)
        w /= np.linalg.norm(w)
        q = np.linalg.qr(np.column_stack((v, w)))[0]
        tq = np.column_stack([t.matvec(col) for col in q.T])
        theta, c = np.linalg.eig(np.linalg.solve(q.T @ q, q.T @ tq))
        # unit norm already: q has orthonormal columns and eig returns
        # unit-norm eigenvectors
        y = q @ c[:, np.argmin(np.abs(theta - sigma))]
        ty = t.matvec(y)
        yty = (y * y).sum()
        if yty != 0.0:
            lam = (y * ty).sum() / yty
        resid = float(np.linalg.norm(ty - lam * y))
        if resid <= _RESIDUAL_TARGET:
            return EigenResult(complex(lam), resid, it, True)
        if it >= _FIXED_SHIFT_STEPS:
            factors = _tri_lu_factor(e, d, e, lam)
        v = w
    return EigenResult(complex(lam), resid, iters, False)


# ---------------------------------------------------------------------------
# pointwise ODE residuals
# ---------------------------------------------------------------------------


def schrodinger_residual(m: PotentialModel, n: int, grid) -> float:
    """max over the grid of |-psi'' + V psi - E psi| / (|E| max|psi|).

    The second derivative is a 5-point central difference at steps h and
    h/2, Richardson-combined to sixth order, with h = 1e-4 (1 + |x|)
    per point.  Grids touching a pole, or points outside the states'
    domain, raise through the model evaluators.
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

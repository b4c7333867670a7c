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
    shifted case; plain symmetric when the diagonal is real.  A diagonal
    that is not 1-D of size >= 1, or an off-diagonal whose shape is not
    one entry shorter, raises :class:`ArgumentError`.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        d, e = np.shape(self.diagonal), np.shape(self.off_diagonal)
        if len(d) != 1 or d[0] < 1 or e != (d[0] - 1,):
            raise ArgumentError(
                f"need a 1-D diagonal of size >= 1 and an off-diagonal one "
                f"shorter, got shapes {d} and {e}"
            )

    @property
    def size(self) -> int:
        return len(self.diagonal)

    @property
    def scale(self) -> float:
        off = np.max(np.abs(self.off_diagonal), initial=0.0)
        return float(np.max(np.abs(self.diagonal)) + 2.0 * off)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] = out[:-1] + self.off_diagonal * v[1:]
        out[1:] = out[1:] + self.off_diagonal * v[:-1]
        return out


def discretize(m: PotentialModel, lo: float, hi: float, n: int) -> TridiagonalOperator:
    """Grid Hamiltonian for the model on (lo, hi) with psi(lo) = psi(hi)
    = 0: the second-order stencil at x_i = lo + i h, i = 1..n, h = (hi -
    lo) / (n + 1), with diagonal 2/h^2 + V(x_i), complex exactly when
    ``m.eps != 0``, and off-diagonal -1/h^2 in its dtype.

    Fewer than 100 points, ends not finite with lo < hi, or a step
    whose square underflows to zero raise :class:`ArgumentError`; a
    pole strictly inside the interval raises :class:`SingularityError`
    (poles on the Dirichlet ends are allowed, as the grid never touches
    them); a model :func:`models.validate_params` refuses raises
    :class:`DomainError`.
    """
    if n < 100:
        raise ArgumentError(f"need at least 100 interior points, got {n}")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ArgumentError(f"need finite lo < hi, got ({lo:g}, {hi:g})")
    h = (hi - lo) / (n + 1)
    if h * h == 0.0:
        raise ArgumentError(f"grid step {h:g} on ({lo:g}, {hi:g}) squares to zero")
    poles = models.real_poles(m, lo, hi)
    if poles:
        raise SingularityError(
            f"potential pole at x = {poles[0]:g} inside ({lo:g}, {hi:g})"
        )
    diag = 2.0 / (h * h) + models.potential(m, lo + h * np.arange(1, n + 1))
    off = np.full(n - 1, -1.0 / (h * h), dtype=diag.dtype)
    return TridiagonalOperator(diag, off)


# ---------------------------------------------------------------------------
# real spectra: Sturm-sequence multisection
# ---------------------------------------------------------------------------

# Sweep 0 counts 127 probes spaced geometrically up from the bottom of
# the Gershgorin bracket: the lowest eigenvalues of a grid Hamiltonian
# sit some 1e-5 of the way up it, where equal parts would spend about
# three sweeps just isolating them.  Column 0 is lo and column 128 is
# hi.  255 geometric probes were no faster on the spectra suite.
_GEOMETRIC = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 128)))
# Probe budget of every later sweep: it cuts each open bracket into K
# equal parts (Lo, Philippe, Sameh, SIAM J. Sci. Stat. Comput. 8, 1987),
# K the largest power of two with (open brackets) (K - 1) <= _PROBES,
# and at least 2.  So 4 brackets get K = 64, one gets 256, and 200 are
# bisected.  The counts are exact wherever the probes sit (Demmel,
# Dhillon & Ren, ETNA 3, 1995).  A count costs the Python-level work of
# two array operations per grid row plus the probes themselves: on the
# spectra suite's four operators (the 2000-point ones seeded) budgets of
# 64 to 256 took 54-60 ms, 512 75 ms and 1024 108-111 ms (fastest of 20
# runs, two sets).  On a 100-level Scarf spectrum (12000 points) 512 was
# fastest, 0.42-0.43 s against 0.59-0.79 s at 256 (fastest of 4 runs).
_PROBES = 256
# A bracket closes once no wider than the floor eps max(|gl|, |gu|) of
# lowest_eigenvalues, which is at least eps / 2 of the Gershgorin
# bracket's width, so it needs at most log2(2 / eps) = 53 bits.  Sweep
# 0 may gain little, every later sweep gains at least one bit (K >= 2),
# and two spare sweeps absorb the rounding of the probe positions.
_MAX_SWEEPS = math.ceil(math.log2(2.0 / np.finfo(float).eps)) + 3


# Rows per slab of _sturm_counts: three (_SLAB, P) float buffers, about
# 0.4 MB at the 256 probes of a full budget.  At that budget 64 to 255
# rows were about equally fast and 16 and 32 slower, both on the spectra
# suite (fastest runs 55-61 ms against 63-76 ms) and on a 100-level
# Scarf spectrum (0.50-0.79 s against 0.65-0.85 s); the spread between
# repeated sets is as wide as the differences from 64 to 255.  Must
# stay <= 255: a clean slab's negatives are summed in uint8.
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


def _zero_d_rows(e2: np.ndarray) -> list:
    """e2's entries as 0-d views: a 0-d array operand takes numpy's array
    path, where a Python float first goes through NEP 50's weak scalar
    promotion, about a quarter of a 252-probe divide.  Same IEEE divide,
    so no count changes."""
    return [e2[i, ...] for i in range(len(e2))]


def _sturm_counts(
    d: np.ndarray, e2: np.ndarray, pivmin: float, sigmas: np.ndarray, e2_rows: list
) -> np.ndarray:
    """Number of eigenvalues of the symmetric tridiagonal with diagonal d
    and squared off-diagonal e2 below each of ``sigmas``: the negative
    pivots of the LDL^T recurrence q_i = (d_i - sigma) - e2_{i-1} / q_{i-1},
    with pivots smaller than pivmin in magnitude replaced by -pivmin.
    ``e2_rows`` holds e2 as :func:`_zero_d_rows` gives it, which a caller
    that counts one operator many times builds once.

    Rows after the first go in slabs of _SLAB rows, as in LAPACK dlaneg
    (Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28, 2006): each row
    is one divide and one subtract into the slab's buffer, with neither
    clamp nor count.  A slab with no pivot under pivmin in magnitude
    did the guarded recurrence's float operations exactly, since its
    clamp never fires and q < pivmin is then q < 0; its negatives are
    counted at once.  A slab that has one is redone from the row before
    it by :func:`_guarded_sturm_rows`.  Counts are identical either way.

    The count stops at a slab start s once the rows left are a forbidden
    tail for every probe.  Let D = fl(min d[s:] - max sigma), E2 =
    max e2[s-1:] and T = max(sqrt(E2), pivmin).  The exit needs every
    current pivot >= T and fl(D - fl(E2 / T)) >= T in float64.
    Correctly rounded subtraction and division are monotone, so every
    later fl(d_i - sigma_j) is >= D and, while the pivot before it is
    >= T, every fl(e2_{i-1} / q) is <= fl(E2 / T); the next pivot is
    then >= fl(D - fl(E2 / T)) >= T.  By induction no later computed
    pivot falls below T >= pivmin > 0: none is negative and none is
    clamped, so the counts are those of the full recurrence.  The bound
    holds for the float recurrence itself and needs no slack, and a NaN
    T or D passes no test.  sqrt(E2) maximises D - E2 / x - x, so it
    passes the test with the widest margin.  A NaN probe makes D NaN,
    and a NaN pivot fails the pivot test, so such a count never stops
    early.
    """
    q = np.subtract(d[0], sigmas)
    neg = np.less(q, pivmin)
    np.minimum(q, -pivmin, out=q, where=neg)
    cnt = neg.astype(int)
    # per slab start s, the pivot floor T of the forbidden-tail exit, or
    # NaN where T fails the tail test, so that no pivot row passes it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_low = np.minimum.accumulate(d[::-1])[::-1][1::_SLAB] - sigmas.max()
        e2_high = np.maximum.accumulate(e2[::-1])[::-1][::_SLAB]
        floors = np.maximum(np.sqrt(e2_high), pivmin)
        floors = np.where(d_low - e2_high / floors >= floors, floors, np.nan).tolist()
    dsig, slab, size = np.empty((3, _SLAB, len(sigmas)))
    dsig_rows, slab_rows = list(dsig), list(slab)
    divide, subtract = np.divide, np.subtract
    for start, exit_floor in zip(range(1, len(d), _SLAB), floors):
        if q.min() >= exit_floor:
            break
        stop = min(start + _SLAB, len(d))
        rows = stop - start
        subtract(d[start:stop, None], sigmas, dsig[:rows])
        e2_slab = e2_rows[start - 1 : stop - 1]
        prev = q
        # a pivot under pivmin can make the rows after it divide by
        # zero, overflow or form inf - inf; such a slab is redone.  fmin
        # skips NaN, so a tiny pivot beside a NaN one is still seen.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for e2_i, ds_i, q_i in zip(e2_slab, dsig_rows, slab_rows):
                divide(e2_i, prev, q_i)
                subtract(ds_i, q_i, q_i)
                prev = q_i
            smallest = np.fmin.reduce(np.abs(slab[:rows], out=size[:rows]), axis=None)
        if smallest < pivmin:
            _guarded_sturm_rows(q, dsig_rows[:rows], e2_slab, pivmin, cnt)
        else:
            cnt += (slab[:rows] < 0.0).view(np.uint8).sum(axis=0, dtype=np.uint8)
            np.copyto(q, prev)
    return cnt


def lowest_eigenvalues(t: TridiagonalOperator, m: int, *, near=None) -> np.ndarray:
    """The m smallest eigenvalues of a real symmetric operator, by
    Sturm-sequence multisection (exact eigenvalue counts, no
    factorization).

    Each sweep puts K - 1 probes into every open bracket, counts the
    eigenvalues below all of them at once, and keeps the two probes
    around the first one whose count reaches the bracket's index.  The
    first sweep spaces 127 probes geometrically, from 1e-12 of the
    Gershgorin bracket's width above its bottom to the top, so the low
    end of the spectrum is isolated in one sweep.  Later sweeps space
    them evenly on a budget of _PROBES = 256 probes per sweep: K is the
    largest power of two with (open brackets) (K - 1) <= _PROBES, and at
    least 2, so few brackets gain many bits per sweep and many brackets
    are bisected.  Each distinct probe is counted once, in slabs of rows
    as LAPACK dlaneg, with two array operations per row
    (:func:`_sturm_counts`), which read the squared off-diagonals as 0-d
    arrays built once per call.

    ``near``, if given, holds m finite levels where the caller expects
    the eigenvalues, such as the same levels on a coarser grid.  It
    changes the first sweep alone: each bracket gets its hint and a
    ladder mirrored about it, in geometric steps from 1e-12 of the
    Gershgorin bracket's width up to all of it, clipped to the bracket;
    the K of the later sweeps sets the ladder's length, so 4 levels get
    63 probes each and 36 levels 7.  With more than 36 levels the ladder
    would have one step, and ``near`` is ignored: on 2000- and
    4000-point grids seeded from half the points, 37 to 120 levels took
    3 to 18 more sweeps seeded than unseeded.  The counts stay exact,
    so a hint moves the probes and never the result beyond the stopping
    width below; a far-off hint, even one clipped onto an end of the
    bracket, only costs sweeps.

    A bracket closes once it is no wider than
    max(4 eps |lambda|, eps max(|gl|, |gu|)), with [gl, gu] the
    Gershgorin bracket: the second term is LAPACK dstebz's default
    ABSTOL, the width below which the counts follow rounding.  The
    operator is first scaled to norm ~1 by an exact power of two, so
    every entry's square is representable.  Raises
    :class:`ArgumentError` for non-finite entries or a start bracket
    that overflows once scaled back, and :class:`ConvergenceError` if
    the sweep cap is ever reached.  A ``near`` of another shape than (m,),
    or with a NaN or infinite entry, raises :class:`ArgumentError`.
    """
    if np.iscomplexobj(t.diagonal) or np.iscomplexobj(t.off_diagonal):
        raise TypeError(
            "operator has complex entries; use eigen_near_shift instead"
        )
    if not 1 <= m <= t.size:
        raise ArgumentError(f"need 1 <= m <= {t.size}, got {m}")
    if near is not None:
        near = np.asarray(near, dtype=float)
        if near.shape != (m,):
            raise ArgumentError(f"need {m} levels near, got shape {near.shape}")
        if not np.isfinite(near).all():
            raise ArgumentError("levels near must be finite")
    d = np.asarray(t.diagonal, dtype=float)
    e = np.asarray(t.off_diagonal, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ArgumentError("operator has non-finite entries")
    d_max, e_max = float(np.abs(d).max()), float(np.abs(e).max(initial=0.0))
    # scale T to norm ~1 by a power of two, which is exact: then e*e <= 1
    # cannot overflow, and a tiny-norm operator's e*e neither underflows
    # nor sinks under the _PIVMIN floor
    shift = math.frexp(max(d_max, e_max))[1]
    d = np.ldexp(d, -shift)
    e = np.ldexp(e, -shift)
    e2 = e * e
    e2_rows = _zero_d_rows(e2)
    spread = 2.0 * np.sqrt(e2.max(initial=0.0))
    lo = np.full(m, d.min() - spread)
    hi = np.full(m, d.max() + spread)
    with np.errstate(over="ignore"):
        bracket = np.ldexp([lo[0], hi[0], hi[0] - lo[0]], shift)
    if not np.isfinite(bracket).all():
        raise ArgumentError("operator entries overflow the Gershgorin bracket")
    if near is not None:
        # clipped to the bracket before scaling, so that it cannot overflow
        near = np.ldexp(np.clip(near, bracket[0], bracket[1]), -shift)
    targets = np.arange(1, m + 1)
    # stop at 4 eps |lambda| or at dstebz's default ABSTOL, eps times the
    # larger end of the Gershgorin bracket, whichever is wider: the
    # counts are exact only for a matrix within ~eps ||T|| of T (Kahan
    # 1966), so narrower brackets follow rounding.  On the spectra
    # suite's 2000-point grids eps ||T|| / lambda is <= 1.4e-10, against
    # O(h^2) errors of 2.3e-7 to 1.0e-5 relative.
    eps = np.finfo(float).eps
    floor = eps * max(abs(lo[0]), abs(hi[0]))
    for sweep in range(_MAX_SWEEPS + 1):
        tol = np.maximum(4.0 * eps * np.maximum(np.abs(lo), np.abs(hi)), floor) + 1e-300
        wide = np.flatnonzero(hi - lo > tol)
        # K parts per open bracket: the largest power of two with
        # len(wide) (K - 1) <= _PROBES, and at least 2
        room = _PROBES // max(len(wide), 1) + 1
        sections = max(2, 1 << (room.bit_length() - 1))
        # a ladder of one step (K = 4, 37 to 85 brackets) stops at 1e-12
        # of the width, and K = 2 leaves the hint alone
        seeded = sweep == 0 and near is not None and sections >= 8
        # column 0 is lo, column K is hi, the rest are the probes
        if seeded:
            # each level's hint and (K - 2) / 2 steps either side of it,
            # over _GEOMETRIC's range of the bracket's width, clipped to it
            steps = np.geomspace(1e-12, 1.0, (sections - 2) // 2) * (hi[0] - lo[0])
            centre = near[wide, None]
            grid = np.concatenate(
                (lo[wide, None], centre - steps[::-1], centre, centre + steps, hi[wide, None]),
                axis=1,
            )
            np.clip(grid, lo[wide, None], hi[wide, None], out=grid)
        else:
            # a bracket of width w > tol >= 4 eps M, M = max(|lo|, |hi|),
            # holds a probe strictly inside: the midpoint of a K-section,
            # or sweep 0's probe at 0.80 w, lies 0.19 w or more from both
            # ends, and rounding moves it by at most eps M / 2 + eps w,
            # under w / 8 + eps w.  A bracket that held none would stay
            # open until the sweep cap raises ConvergenceError.
            fractions = np.arange(sections + 1) / sections if sweep else _GEOMETRIC
            grid = lo[wide, None] + (hi - lo)[wide, None] * fractions
            grid[:, -1] = hi[wide]
        if len(wide) == 0:
            return np.ldexp(0.5 * (lo + hi), shift)
        if sweep == _MAX_SWEEPS:
            raise ConvergenceError(
                f"Sturm multisection left {len(wide)} brackets open after "
                f"{_MAX_SWEEPS} sweeps"
            )
        # count each distinct probe once: an unseeded sweep 0's brackets
        # all coincide
        sigmas, where = np.unique(grid[:, 1:-1], return_inverse=True)
        counts = _sturm_counts(d, e2, _PIVMIN, sigmas, e2_rows)[where].reshape(len(wide), -1)
        above = counts >= targets[wide, None]
        # first probe at or above the target; K - 1 stands for hi itself
        first = np.where(above.any(axis=1), above.argmax(axis=1), grid.shape[1] - 2)
        rows = np.arange(len(wide))
        lo[wide] = grid[rows, first]
        hi[wide] = grid[rows, first + 1]


# ---------------------------------------------------------------------------
# complex spectra: shift-targeted inverse iteration
# ---------------------------------------------------------------------------


def _zero_pivot(d, e, sigma) -> float:
    """eps times the largest |entry| of T - sigma, or 1 where T - sigma
    is zero and any nonzero pivot serves."""
    norm = max(np.abs(x).max(initial=0.0) for x in (np.subtract(d, sigma), e))
    return float(np.finfo(float).eps * norm) or 1.0


def _tri_lu_factor(d, e, sigma):
    """LU with partial pivoting of (T - sigma), T the complex-symmetric
    tridiagonal (d, e), as LAPACK zgttrf.  Row swaps put fill-in on a
    second superdiagonal.  Returns lists (multipliers, swapped flags,
    u main, u first super, u second super).

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
    a = np.asarray(e, dtype=complex).tolist()
    # the superdiagonal, which the swaps overwrite
    c = a.copy()
    du2 = [0j] * max(n - 2, 0)
    mult = [0j] * max(n - 1, 0)
    swap = [False] * max(n - 1, 0)
    for i in range(n - 1):
        bi, ai = b[i], a[i]
        if abs(bi) >= abs(ai):
            if bi == 0.0:
                bi = b[i] = _zero_pivot(d, e, sigma)
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
        b[n - 1] = _zero_pivot(d, e, sigma)
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
# the start vector's SplitMix64 seed: fixed, and not tuned against any
# operator or check
_START_SEED = 12345


def _start_vector(n: int) -> np.ndarray:
    """Inverse iteration's start: outputs 1 to 2n of the SplitMix64
    stream of :data:`_START_SEED` (Steele, Lea & Flood, OOPSLA 2014),
    mapped to (-1, 1) as the real and imaginary parts of n entries, then
    normalised.  Each output is a hash of its index, computed here in
    uint64 arithmetic, so the vector does not depend on the numpy
    version, as a ``numpy.random`` stream may."""
    z = np.uint64(_START_SEED) + np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    # the top 52 bits k as (2k + 1) / 2^52 - 1, exact and inside (-1, 1)
    v = ((2 * (z >> np.uint64(12)) + 1) * 2.0**-52 - 1.0).view(complex)
    return v / np.linalg.norm(v)


def _ritz_2x2(g11, g12, g22, h11, h12, h21, h22, sigma):
    """The eigenvector (c1, c2) of the unconjugated 2x2 problem
    H c = theta G c, with G = [[g11, g12], [g12, g22]] and
    H = [[h11, h12], [h21, h22]], whose eigenvalue theta is nearest
    sigma, scaled so that max(|c1|, |c2|) is 1 to rounding.  None where
    the problem has no single answer: G is singular, or H = theta G and
    every c is one."""
    det = g11 * g22 - g12 * g12
    if det == 0.0:
        return None
    # M = G^-1 H by Cramer's rule
    m11 = (g22 * h11 - g12 * h21) / det
    m12 = (g22 * h12 - g12 * h22) / det
    m21 = (g11 * h21 - g12 * h11) / det
    m22 = (g11 * h22 - g12 * h12) / det
    # theta = half + root in the split form: the discriminant
    # p^2 + m12 m21 keeps the split of a nearly degenerate pair, the
    # case the Ritz step exists for, where half^2 - det M cancels
    half = 0.5 * (m11 + m22)
    p = 0.5 * (m11 - m22)
    root = cmath.sqrt(p * p + m12 * m21)
    if abs(half - root - sigma) < abs(half + root - sigma):
        root = -root
    # c is the null vector of M - theta, read off its larger row, with
    # theta - m11 = root - p and theta - m22 = root + p
    c1, c2 = m12, root - p
    if abs(c1) + abs(c2) < abs(root + p) + abs(m21):
        c1, c2 = root + p, m21
    scale = max(abs(c1), abs(c2))
    if scale == 0.0:
        return None
    return c1 / scale, c2 / scale


def eigen_near_shift(
    t: TridiagonalOperator, sigma: complex, iters: int = 60
) -> EigenResult:
    """Eigenpair of the (possibly complex-symmetric) operator nearest sigma.

    Inverse iteration with a complex tridiagonal LU (partial pivoting)
    and a 2x2 Rayleigh-Ritz step (Parlett, The Symmetric Eigenvalue
    Problem, ch. 11).  Each step solves once, w = (T - shift)^-1 v, and
    takes the Ritz pairs of span{v, w} unconjugated, as suits a
    complex-symmetric T.  The basis is {v, u}, u the part of w
    orthogonal to v by classical Gram-Schmidt applied twice (Giraud,
    Langou & Rozloznik, 2005), and the 2x2 problem H c = theta G c, with
    G = Q^T Q and H = Q^T T Q from fresh matvecs, is solved in closed
    form (:func:`_ritz_2x2`), so no step calls LAPACK.  The step keeps
    the Ritz vector y whose Ritz value is nearest sigma.  So of a
    near-degenerate pair, which one vector alone cannot separate, the
    member nearest sigma is reported.  Where w is parallel to v, or the
    2x2 problem has no single answer, y is w.  The eigenvalue is the
    unconjugated quotient y.Ty / y.y, the stationary one for
    complex-symmetric operators, and the residual is ||Ty - lambda y||
    from a fresh matvec.  The next step starts from w, not y: y has shed
    the partner's direction, which the next Ritz step needs.  The first
    step starts from a counter-based vector (:func:`_start_vector`), not
    a ``numpy.random`` stream.  The shift stays at sigma for a few steps
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
    v = _start_vector(t.size)
    lam = sigma
    resid = math.inf
    factors = _tri_lu_factor(d, e, sigma)
    for it in range(1, iters + 1):
        w = _tri_lu_solve(factors, v)
        # first scale max|w| into [1/2, 1) by an exact power of two: from
        # a far shift it is so small that norm(w) underflows to 0
        w = np.ldexp(w.view(float), -math.frexp(np.abs(w).max())[1]).view(complex)
        w /= np.linalg.norm(w)
        # classical Gram-Schmidt, twice
        u = w - np.vdot(v, w) * v
        u -= np.vdot(v, u) * v
        norm_u = np.linalg.norm(u)
        c = None
        if norm_u != 0.0:
            u /= norm_u
            tv, tu = t.matvec(v), t.matvec(u)
            c = _ritz_2x2(
                complex(v @ v), complex(v @ u), complex(u @ u),
                complex(v @ tv), complex(v @ tu), complex(u @ tv), complex(u @ tu),
                sigma,
            )
        if c is None:
            y = w
        else:
            y = c[0] * v + c[1] * u
            y /= np.linalg.norm(y)
        ty = t.matvec(y)
        yty = (y * y).sum()
        if yty != 0.0:
            lam = (y * ty).sum() / yty
        resid = float(np.linalg.norm(ty - lam * y))
        if resid <= _RESIDUAL_TARGET:
            return EigenResult(complex(lam), resid, it, True)
        if it >= _FIXED_SHIFT_STEPS:
            factors = _tri_lu_factor(d, e, lam)
        v = w
    return EigenResult(complex(lam), resid, iters, False)


# ---------------------------------------------------------------------------
# pointwise ODE residuals
# ---------------------------------------------------------------------------


def schrodinger_residual(m: PotentialModel, n: int, grid) -> float:
    """The residual of the Schrodinger equation over the grid,

      max|-psi'' + V psi - E psi| / max(|E| max|psi|, max|V psi|),

    relative to the larger of the terms it compares, so a level whose
    |E| is far below |V| (as at negative Scarf indices) is not judged by
    its small energy alone.

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
    scale = max(abs(e_n) * np.abs(psi[3]).max(), np.abs(v * psi[3]).max())
    return float(resid.max() / scale)

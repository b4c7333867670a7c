"""Independent numerical verification: quadrature, Gram matrices, grid
Hamiltonians, real and complex eigenvalue extraction, ODE residuals.

Everything here deliberately avoids the closed forms it is meant to
check: spectra come from finite differences, norms from quadrature, and
second derivatives from extrapolated stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ArgumentError,
    ConvergenceError,
    EvaluationError,
    FactorizationError,
    SingularityError,
)
from . import models
from .models import PotentialModel
from .xop import X1Family, x1_polynomial, x1_weight

__all__ = [
    "Quadrature",
    "finite_quadrature",
    "semi_infinite_exp_quadrature",
    "semi_infinite_algebraic_quadrature",
    "integrate",
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
# quadrature
# ---------------------------------------------------------------------------

_DOMAIN_MAPS = ("finite", "semi_infinite_exp", "semi_infinite_algebraic")


@dataclass(frozen=True, eq=False)
class Quadrature:
    """A Gauss-Legendre base rule plus a domain transformation.

    ``nodes``/``weights`` live on (-1, 1); ``domain_map`` names how the
    composite panels are mapped onto the integration domain.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain_map: str
    lo: float
    hi: float


def _base_rule(order: int):
    if order < 2:
        raise ArgumentError(f"rule order must be at least 2, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def finite_quadrature(lo: float, hi: float, order: int = 16) -> Quadrature:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ArgumentError(f"need finite lo < hi, got ({lo:g}, {hi:g})")
    nodes, weights = _base_rule(order)
    return Quadrature(nodes, weights, "finite", lo, hi)


def semi_infinite_exp_quadrature(order: int = 16) -> Quadrature:
    """(0, inf) through x = -2 log(1 - t), t in (0, 1).

    The factor 2 keeps exponentially weighted integrands decaying in t:
    with plain -log(1-t) a weight exp(-x) cancels the Jacobian exactly
    and polynomial growth survives at t = 1.
    """
    nodes, weights = _base_rule(order)
    return Quadrature(nodes, weights, "semi_infinite_exp", 0.0, math.inf)


def semi_infinite_algebraic_quadrature(order: int = 16) -> Quadrature:
    """(0, inf) through x = t / (1 - t), t in (0, 1)."""
    nodes, weights = _base_rule(order)
    return Quadrature(nodes, weights, "semi_infinite_algebraic", 0.0, math.inf)


# Panels graded geometrically toward both ends of the unit interval;
# endpoint behavior of the weights (x^a near 0, the mapped infinity near
# 1) is what the grading is for.  Refinement DEEPENS the grading rather
# than splitting uniformly: endpoint singularities are algebraic or
# logarithmic, so the closing cells must shrink exponentially while the
# analytic interior cells are already resolved by the base rule.
_GRADE_LEVELS = 6
_GRADE_STEP = 6
_GRADE_MAX = 40  # beyond this the closing cells fall below float spacing


def _unit_edges(refinement: int) -> np.ndarray:
    depth = min(_GRADE_LEVELS + _GRADE_STEP * refinement, _GRADE_MAX)
    fracs = [2.0 ** -j for j in range(depth, 0, -1)]
    pts = np.array([0.0] + fracs + [1.0 - f for f in reversed(fracs[:-1])] + [1.0])
    parts = refinement + 1
    if parts == 1:
        return pts
    steps = np.arange(parts) / parts
    edges = (pts[:-1, None] + np.diff(pts)[:, None] * steps[None, :]).ravel()
    return np.append(edges, 1.0)


def _mapped(q: Quadrature, t: np.ndarray):
    if q.domain_map == "finite":
        return t, np.ones_like(t)
    if q.domain_map == "semi_infinite_exp":
        return -2.0 * np.log1p(-t), 2.0 / (1.0 - t)
    return t / (1.0 - t), 1.0 / (1.0 - t) ** 2


def integrate(
    f: Callable,
    q: Quadrature,
    rtol: float = 1e-10,
    max_refinements: int = 12,
):
    """Composite panel integral of ``f`` under the quadrature's domain map.

    The panel mesh is refined (deeper endpoint grading plus interior
    subdivision) until two successive refinements agree to ``rtol``
    relative, with an absolute floor taken from the total variation so
    integrals that are genuinely zero converge too.
    """
    prev = None
    for level in range(max_refinements + 1):
        edges = _unit_edges(level)
        if q.domain_map == "finite":
            edges = q.lo + (q.hi - q.lo) * edges
        left, right = edges[:-1], edges[1:]
        halfw = 0.5 * (right - left)
        t = (left[:, None] + halfw[:, None] * (q.nodes[None, :] + 1.0)).ravel()
        wts = (halfw[:, None] * q.weights[None, :]).ravel()
        x, jac = _mapped(q, t)
        vals = np.asarray(f(x))
        finite = np.isfinite(vals.real) & np.isfinite(vals.imag) if np.iscomplexobj(vals) else np.isfinite(vals)
        if not np.all(finite):
            bad = x[~np.atleast_1d(finite)][0]
            raise EvaluationError(f"integrand not finite at x = {bad:g}")
        terms = wts * jac * vals
        total = terms.sum()
        total_abs = np.abs(terms).sum()
        if prev is not None and abs(total - prev) <= rtol * max(
            abs(total), 1e-3 * total_abs
        ):
            return total
        prev = total
    raise ConvergenceError(
        f"integral did not settle to rtol {rtol:g} after "
        f"{max_refinements} panel refinements"
    )


def gram_matrix(family: X1Family, nmax: int, q: Quadrature):
    """Weighted Gram matrix G[n-1][m-1] of members 1..nmax, plus the worst
    off-diagonal ratio |G_nm| / sqrt(G_nn G_mm)."""
    if nmax < 1:
        raise ArgumentError(f"nmax must be at least 1, got {nmax}")
    weight = x1_weight(family)
    members = [x1_polynomial(family, n) for n in range(1, nmax + 1)]
    g = np.zeros((nmax, nmax))
    for i in range(nmax):
        for j in range(i, nmax):
            val = integrate(lambda x: weight(x) * members[i](x) * members[j](x), q)
            g[i, j] = g[j, i] = float(val)
    ratio = 0.0
    for i in range(nmax):
        for j in range(nmax):
            if i != j:
                ratio = max(ratio, abs(g[i, j]) / math.sqrt(g[i, i] * g[j, j]))
    return g, ratio


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
    h: float
    x_grid: np.ndarray

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
    return TridiagonalOperator(diag, off, h, xg)


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

# K: a sweep cuts each bracket into K equal parts with K - 1 probes and
# so gains log2(K) = 7 bits (Lo, Philippe, Sameh, SIAM J. Sci. Stat.
# Comput. 8, 1987).  A sweep's cost is mostly the Python-level step per
# grid row, so a few hundred probes cost little more than one.
_SECTIONS = 128
_FRACTIONS = np.arange(_SECTIONS + 1) / _SECTIONS
# A finite bracket is narrower than 2**maxexp and stops once narrower
# than the 1e-300 floor of the stopping width, so it needs at most
# log2(2**maxexp / 1e-300) ~ 2021 bits; two spare sweeps absorb the
# rounding of the probe positions.
_MAX_SWEEPS = (
    math.ceil((np.finfo(float).maxexp - math.log2(1e-300)) / math.log2(_SECTIONS)) + 2
)


def lowest_eigenvalues(t: TridiagonalOperator, m: int) -> np.ndarray:
    """The m smallest eigenvalues of a real symmetric operator, by
    Sturm-sequence multisection (exact eigenvalue counts, no
    factorization).

    Each sweep puts K - 1 evenly spaced probes into every open bracket,
    counts the eigenvalues below all of them at once, and keeps the two
    probes around the first one whose count reaches the bracket's index.
    Raises :class:`ArgumentError` for non-finite entries and
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
    e2 = e * e
    off_max = e2.max() if len(e2) else 0.0
    pivmin = max(1e-290, off_max * 1e-290)

    def count_below(sigmas: np.ndarray) -> np.ndarray:
        q = d[0] - sigmas
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        cnt = (q < 0.0).astype(int)
        for i in range(1, len(d)):
            q = (d[i] - sigmas) - e2[i - 1] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            cnt += q < 0.0
        return cnt

    spread = 2.0 * (np.sqrt(off_max) if off_max else 0.0)
    lo = np.full(m, d.min() - spread)
    hi = np.full(m, d.max() + spread)
    if not math.isfinite(hi[0] - lo[0]):
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
        grid = lo[:, None] + (hi - lo)[:, None] * _FRACTIONS
        grid[:, -1] = hi
        probes = grid[:, 1:-1]
        inside = (probes > lo[:, None]) & (probes < hi[:, None])
        live = np.flatnonzero((hi - lo > tol) & inside.any(axis=1))
        if len(live) == 0:
            return 0.5 * (lo + hi)
        if sweep == _MAX_SWEEPS:
            raise ConvergenceError(
                f"Sturm multisection left {len(live)} brackets open after "
                f"{_MAX_SWEEPS} sweeps"
            )
        counts = count_below(probes[live].ravel()).reshape(len(live), -1)
        above = counts >= targets[live, None]
        # first probe at or above the target; K - 1 stands for hi itself
        first = np.where(above.any(axis=1), above.argmax(axis=1), _SECTIONS - 1)
        lo[live] = grid[live, first]
        hi[live] = grid[live, first + 1]


# ---------------------------------------------------------------------------
# complex spectra: shift-targeted inverse iteration
# ---------------------------------------------------------------------------


def _tri_lu_factor(dl, d, du, sigma):
    """LU with partial pivoting of (T - sigma).  Row swaps put fill-in on
    a second superdiagonal.  Returns (multipliers, swapped flags, u main,
    u first super, u second super)."""
    n = len(d)
    b = d.astype(complex) - sigma
    a = dl.astype(complex).copy()
    c = du.astype(complex).copy()
    du2 = np.zeros(max(n - 2, 0), dtype=complex)
    mult = np.zeros(max(n - 1, 0), dtype=complex)
    swap = np.zeros(max(n - 1, 0), dtype=bool)
    for i in range(n - 1):
        if abs(b[i]) >= abs(a[i]):
            if b[i] == 0.0:
                raise FactorizationError(f"zero pivot at row {i}")
            fact = a[i] / b[i]
            mult[i] = fact
            b[i + 1] = b[i + 1] - fact * c[i]
        else:
            fact = b[i] / a[i]
            mult[i] = fact
            swap[i] = True
            b[i] = a[i]
            tmp = c[i]
            c[i] = b[i + 1]
            b[i + 1] = tmp - fact * b[i + 1]
            if i < n - 2:
                du2[i] = c[i + 1]
                c[i + 1] = -fact * c[i + 1]
    if b[n - 1] == 0.0:
        raise FactorizationError(f"zero pivot at row {n - 1}")
    return mult, swap, b, c, du2


def _tri_lu_solve(factors, rhs):
    mult, swap, b, c, du2 = factors
    n = len(b)
    y = rhs.astype(complex).copy()
    for i in range(n - 1):
        if swap[i]:
            y[i], y[i + 1] = y[i + 1], y[i] - mult[i] * y[i + 1]
        else:
            y[i + 1] = y[i + 1] - mult[i] * y[i]
    y[n - 1] = y[n - 1] / b[n - 1]
    if n > 1:
        y[n - 2] = (y[n - 2] - c[n - 2] * y[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        y[i] = (y[i] - c[i] * y[i + 1] - du2[i] * y[i + 2]) / b[i]
    return y


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

    Inverse iteration with a complex tridiagonal LU (partial pivoting).
    The shift stays at sigma for a few steps to lock onto the nearest
    eigenvector, then follows the running Rayleigh-quotient estimate;
    eigenvalues are the unconjugated quotient v.Tv / v.v, which is the
    stationary one for complex-symmetric operators.  A singular
    factorization perturbs sigma by 1e-8 (1 + |sigma|) and retries once.
    """
    if iters < 1:
        raise ArgumentError(f"need at least one iteration, got {iters}")
    d = np.asarray(t.diagonal, dtype=complex)
    e = np.asarray(t.off_diagonal, dtype=complex)
    sigma = complex(sigma)

    def factor(shift):
        try:
            return _tri_lu_factor(e, d, e, shift)
        except FactorizationError:
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
            return EigenResult(complex(lam), resid, it, True)
        if it >= _FIXED_SHIFT_STEPS:
            factors = factor(lam)
    return EigenResult(complex(lam), resid, iters, False)


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

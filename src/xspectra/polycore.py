"""Scalar and polynomial primitives used by every other module.

Dense real-coefficient polynomials, a double-precision gamma function,
exact Sturm-chain real-root counting, and composite Gauss-Legendre
quadrature with fixed settings, of one integrand or of a stack that
shares one mesh and one stopping decision.  This module imports nothing
else from the package apart from the error types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, ConvergenceError, EvaluationError, PoleError

__all__ = [
    "Polynomial",
    "gamma",
    "count_real_roots_in",
    "Quadrature",
    "finite_quadrature",
    "semi_infinite_exp_quadrature",
    "semi_infinite_algebraic_quadrature",
    "integrate",
]


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

# Lanczos approximation with g = 7 and nine coefficients.  Measured
# relative error stays below 3e-14 on [0.5, 50]; arguments left of 0.5 go
# through the reflection formula.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function for real arguments.

    Parameters
    ----------
    x : float
        Argument.  The non-positive integers are poles and raise
        :class:`~xspectra.errors.PoleError`.

    Returns
    -------
    float
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x = {x:g}")
    if x < 0.5:
        # reflection: gamma(x) * gamma(1 - x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * s


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with real coefficients in ascending order.

    ``coeffs`` has length ``degree + 1`` and a nonzero last entry; the zero
    polynomial is stored as the single coefficient ``(0.0,)`` and reports
    ``is_zero``.  Instances are immutable, hence freely shareable.
    ``exact``, where known, holds the rational coefficients that
    ``coeffs`` round; root counting reads it, comparison ignores it.
    """

    coeffs: tuple[float, ...]
    exact: Optional[tuple[Fraction, ...]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if not self.coeffs:
            raise ArgumentError("a polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0.0:
            raise ArgumentError("trailing zero coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def __call__(self, x):
        """Evaluate by Horner's rule; ``x`` may be scalar, complex or array."""
        acc = self.coeffs[-1]
        if isinstance(x, np.ndarray):
            acc = np.full_like(x, acc, dtype=np.result_type(x, float))
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc


# ---------------------------------------------------------------------------
# Sturm-chain root counting
# ---------------------------------------------------------------------------

# Every float is an exact binary rational, so a polynomial with float or
# Fraction coefficients is, up to the positive factor of the lcm of their
# denominators (the largest one for floats, all powers of two), one with
# integer coefficients.  The chain below is built and evaluated in Python
# integers, with no rounding anywhere.  Coefficient lists are descending.


def _integer_coeffs(p: Polynomial) -> list[int]:
    """Descending integer coefficients of a positive multiple of ``p``, of
    its exact coefficients where it has them."""
    coeffs = p.coeffs if p.exact is None else p.exact
    ratios = [c.as_integer_ratio() for c in reversed(coeffs)]
    scale = math.lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios]


def _primitive(c: list[int]) -> list[int]:
    """Divide out the positive gcd of the coefficients; signs are kept."""
    g = math.gcd(*c)
    return [x // g for x in c]


def _pseudo_divmod(a: list[int], b: list[int]):
    """Pseudo-division: ``(q, r)`` with ``s * a = q * b + r`` for an integer
    ``s > 0`` and ``deg r < deg b``; ``r`` is empty when ``b`` divides ``a``.

    Each step scales by ``|lead(b)|``, never by a negative number, so ``r``
    has the sign pattern of the true remainder.
    """
    lead, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        t = sign * r[0]
        q = [lead * x for x in q]
        q[len(a) - len(r)] = t
        r = [lead * x - t * y for x, y in zip(r[1:], b[1:])] + [
            lead * x for x in r[len(b) :]
        ]
        while r and r[0] == 0:
            r.pop(0)
    return q, r


def _sturm_chain(c: list[int]) -> list[list[int]]:
    """Primitive Sturm chain c, c', -rem, ...; ends at a multiple of gcd(c, c')."""
    deg = len(c) - 1
    chain = [c, _primitive([(deg - j) * x for j, x in enumerate(c[:-1])])]
    while len(chain[-1]) > 1:
        _, r = _pseudo_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return chain


def _value_times_den(c: list[int], num: int, den: int) -> int:
    """``c(num / den) * den**deg``: same sign as ``c(num / den)`` for den > 0."""
    acc, scale = 0, 1
    for x in c:
        acc = acc * num + x * scale
        scale *= den
    return acc


def _chain_values(chain: list[list[int]], t: float) -> list[int]:
    """Each member's value at ``t`` (may be +-inf) up to a positive factor."""
    if math.isinf(t):
        # the leading term decides; odd degree flips sign at -inf
        return [c[0] if t > 0 or len(c) % 2 else -c[0] for c in chain]
    num, den = t.as_integer_ratio()
    return [_value_times_den(c, num, den) for c in chain]


def _sign_variations(vals: list[int]) -> int:
    signs = [v > 0 for v in vals if v != 0]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def count_real_roots_in(p: Polynomial, lo: float, hi: float) -> int:
    """Number of distinct real roots of ``p`` in the open interval (lo, hi).

    Exact: the coefficients, ``p.exact`` where set, are scaled to
    integers, reduced to the squarefree part ``p / gcd(p, p')``, and
    Sturm's theorem is applied to its primitive pseudo-remainder chain
    with signs evaluated in integer arithmetic.  For a squarefree chain,
    V(lo) - V(hi) counts the roots in (lo, hi]; a root at ``hi`` is then
    subtracted.  ``lo``/``hi`` may be ``-inf``/``inf``.
    """
    if p.is_zero:
        raise ArgumentError("root counting needs a nonzero polynomial")
    if not all(math.isfinite(c) for c in p.coeffs):
        raise ArgumentError("root counting needs finite coefficients")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ArgumentError(f"need lo < hi, got ({lo:g}, {hi:g})")
    if p.degree == 0:
        return 0
    c = _primitive(_integer_coeffs(p))
    chain = _sturm_chain(c)
    if len(chain[-1]) > 1:
        squarefree, _ = _pseudo_divmod(c, chain[-1])
        chain = _sturm_chain(_primitive(squarefree))
    at_hi = _chain_values(chain, hi)
    return (
        _sign_variations(_chain_values(chain, lo))
        - _sign_variations(at_hi)
        - (at_hi[0] == 0)
    )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Quadrature:
    """A domain transformation for composite panels of the 16-point
    Gauss-Legendre rule: ``domain_map`` names how the panels are mapped
    onto the integration domain (lo, hi)."""

    domain_map: str
    lo: float
    hi: float


# Every rule composes panels of one 16-point Gauss-Legendre rule on (-1, 1).
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


def finite_quadrature(lo: float, hi: float) -> Quadrature:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ArgumentError(f"need finite lo < hi, got ({lo:g}, {hi:g})")
    return Quadrature("finite", lo, hi)


def semi_infinite_exp_quadrature() -> Quadrature:
    """(0, inf) through x = -2 log t, t in (0, 1).

    The factor 2 keeps exponentially weighted integrands decaying in t:
    with plain -log t a weight exp(-x) cancels the Jacobian exactly and
    polynomial growth survives at t = 0.
    """
    return Quadrature("semi_infinite_exp", 0.0, math.inf)


def semi_infinite_algebraic_quadrature() -> Quadrature:
    """(0, inf) through x = (1 - t) / t, t in (0, 1)."""
    return Quadrature("semi_infinite_algebraic", 0.0, math.inf)


# Panels graded geometrically toward both ends of the unit interval;
# endpoint behavior of the weights (x^a near 0, the mapped infinity) is
# what the grading is for.  Refinement DEEPENS the grading rather than
# splitting uniformly: endpoint singularities are algebraic or
# logarithmic, so the closing cells must shrink exponentially while the
# analytic interior cells are already resolved by the base rule.  The
# semi-infinite maps put infinity at t -> 0, where 2^-k is exact and the
# grading deepens without a cap; at t -> 1 the cells 1 - 2^-k run out of
# float spacing, so the grading stops at _GRADE_MAX.
_GRADE_LEVELS = 6
_GRADE_STEP = 6
_GRADE_MAX = 40  # beyond this the closing cells fall below float spacing


def _unit_edges(refinement: int, infinite_start: bool) -> np.ndarray:
    depth = _GRADE_LEVELS + _GRADE_STEP * refinement
    top = min(depth, _GRADE_MAX)
    bottom = depth if infinite_start else top
    pts = np.array(
        [0.0]
        + [2.0 ** -j for j in range(bottom, 0, -1)]
        + [1.0 - 2.0 ** -j for j in range(2, top + 1)]
        + [1.0]
    )
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
        return -2.0 * np.log(t), 2.0 / t
    return (1.0 - t) / t, 1.0 / (t * t)


# refinement stops once two successive totals agree to _RTOL relative
_RTOL = 1e-10
_MAX_REFINEMENTS = 12


def _level_sums(f: Callable, q: Quadrature, level: int):
    """Total and total variation of ``f`` on the panel mesh of ``level``,
    summed over the points; the point arrays die with this call."""
    finite = q.domain_map == "finite"
    edges = _unit_edges(level, infinite_start=not finite)
    if finite:
        edges = q.lo + (q.hi - q.lo) * edges
    left, right = edges[:-1], edges[1:]
    halfw = 0.5 * (right - left)
    t = (left[:, None] + halfw[:, None] * (_NODES[None, :] + 1.0)).ravel()
    wts = (halfw[:, None] * _WEIGHTS[None, :]).ravel()
    x, jac = _mapped(q, t)
    vals = np.asarray(f(x))
    bad = ~np.isfinite(vals)
    if bad.any():
        at = x[np.nonzero(np.atleast_1d(bad))[-1][0]]
        raise EvaluationError(f"integrand not finite at x = {at:g}")
    terms = wts * jac * vals
    del vals  # a stacked integrand is large; keep at most two copies alive
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def integrate(f: Callable, q: Quadrature):
    """Composite panel integral of ``f`` under the quadrature's domain map.

    ``f`` maps the 1-D array of points to values with the points on the
    last axis; a stacked integrand (shape ``(k, npts)``) gives ``k``
    integrals from one set of evaluations.  The panel mesh is refined
    (deeper endpoint grading plus interior subdivision) until two
    successive refinements agree to ``1e-10`` relative to the largest
    total, with an absolute floor taken from the largest total variation
    so integrals that are genuinely zero converge too.
    """
    prev = None
    for level in range(_MAX_REFINEMENTS + 1):
        total, total_abs = _level_sums(f, q, level)
        if prev is not None and np.max(np.abs(total - prev)) <= _RTOL * max(
            np.max(np.abs(total)), 1e-3 * np.max(total_abs)
        ):
            return total
        prev = total
    raise ConvergenceError(
        f"integral did not settle to rtol {_RTOL:g} after "
        f"{_MAX_REFINEMENTS} panel refinements"
    )

"""Scalar and polynomial primitives used by every other module.

Dense real-coefficient polynomials, a double-precision gamma function,
the classical Jacobi family, exact Sturm-chain real-root counting, and
composite Gauss-Legendre quadrature.  This module imports nothing else
from the package apart from the error types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, ConvergenceError, EvaluationError, PoleError

__all__ = [
    "Polynomial",
    "gamma",
    "classical_jacobi",
    "poly_eval_derivs",
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
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ArgumentError("a polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0.0:
            raise ArgumentError(
                "trailing zero coefficient; build with Polynomial.from_coeffs"
            )

    @classmethod
    def from_coeffs(cls, cs) -> "Polynomial":
        """Build from any coefficient sequence, trimming trailing zeros."""
        cs = [float(c) for c in cs]
        if not cs:
            cs = [0.0]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        return cls(tuple(cs))

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

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial.from_coeffs(
            [j * c for j, c in enumerate(self.coeffs)][1:]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_coeffs([-c for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [0.0] * n
        for j, c in enumerate(self.coeffs):
            cs[j] += c
        for j, c in enumerate(other.coeffs):
            cs[j] += c
        return Polynomial.from_coeffs(cs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial((0.0,))
            return Polynomial.from_coeffs(
                np.convolve(self.coeffs, other.coeffs)
            )
        return Polynomial.from_coeffs([float(other) * c for c in self.coeffs])

    __rmul__ = __mul__


def poly_eval_derivs(p: Polynomial, x, m: int):
    """Evaluate ``p`` and its first ``m`` derivatives at ``x``.

    Single Horner-style sweep carrying ``m + 1`` accumulators; ``x`` may be
    real or complex.  Returns the tuple ``(p(x), p'(x), ..., p^(m)(x))``.
    """
    if not isinstance(m, int) or m < 0 or m > 3:
        raise ArgumentError(f"derivative order must be an integer in 0..3, got {m}")
    vals = [0.0 * x for _ in range(m + 1)]
    for c in p.coeffs[::-1]:
        for j in range(m, 0, -1):
            vals[j] = vals[j] * x + vals[j - 1]
        vals[0] = vals[0] * x + c
    fact = 1
    out = [vals[0]]
    for j in range(1, m + 1):
        fact *= j
        out.append(vals[j] * fact)
    return tuple(out)


# ---------------------------------------------------------------------------
# classical Jacobi family
# ---------------------------------------------------------------------------


def classical_jacobi(n: int, a: float, b: float) -> Polynomial:
    """Jacobi polynomial ``P_n^(a,b)`` with ``a, b > -1``.

    Standard normalization: ``P_n^(a,b)(1)`` equals the binomial
    coefficient ``C(n + a, n)``.
    """
    _check_degree(n)
    a, b = float(a), float(b)
    if not (a > -1.0 and b > -1.0):
        raise ArgumentError(f"jacobi indices need a, b > -1, got ({a:g}, {b:g})")
    prev = np.array([1.0])
    if n == 0:
        return Polynomial.from_coeffs(prev)
    cur = np.array([(a - b) / 2.0, (a + b + 2.0) / 2.0])
    for k in range(2, n + 1):
        s = 2 * k + a + b
        c0 = 2.0 * k * (k + a + b) * (s - 2.0)
        c1 = (s - 1.0) * (a * a - b * b)
        c2 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        nxt = np.zeros(k + 1)
        nxt[: k] += c1 * cur
        nxt[1 : k + 1] += c2 * cur
        nxt[: k - 1] -= c3 * prev
        nxt /= c0
        prev, cur = cur, nxt
    return Polynomial.from_coeffs(cur)


def _check_degree(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ArgumentError(f"degree must be a non-negative integer, got {n!r}")


# ---------------------------------------------------------------------------
# Sturm-chain root counting
# ---------------------------------------------------------------------------

# Every float is an exact binary rational, so a polynomial with float
# coefficients is, up to a positive power-of-two factor, one with integer
# coefficients.  The chain below is built and evaluated in Python
# integers, with no rounding anywhere.  Coefficient lists are descending.


def _integer_coeffs(p: Polynomial) -> list[int]:
    """Descending integer coefficients of a positive multiple of ``p``."""
    ratios = [c.as_integer_ratio() for c in reversed(p.coeffs)]
    scale = max(den for _, den in ratios)  # every denominator is a power of 2
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

    Exact: the coefficients are scaled to integers, reduced to the
    squarefree part ``p / gcd(p, p')``, and Sturm's theorem is applied to
    its primitive pseudo-remainder chain with signs evaluated in integer
    arithmetic.  For a squarefree chain, V(lo) - V(hi) counts the roots
    in (lo, hi]; a root at ``hi`` is then subtracted.  ``lo``/``hi`` may
    be ``-inf``/``inf``.
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

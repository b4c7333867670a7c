"""Degree-one exceptional Laguerre and Jacobi families.

Both families start at degree one and stay complete in their weighted
L2 spaces.  Each family's second-order ODE is written once, as the
polynomials A, B, C of ``A y'' + B y' + C y = 0`` with its denominators
cleared.  Members solve the banded system those polynomials define, by
exact back-substitution in ``fractions.Fraction``, not by
classical-polynomial identities, and the point canonical transformation
in :mod:`xspectra.pct` reads the same A, B, C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    ArgumentError,
    ConstructionError,
    EvaluationError,
    SingularityError,
    refuse_overflow,
)
from .polycore import Polynomial, gamma

__all__ = [
    "X1Family",
    "x1_polynomial",
    "x1_weight",
    "x1_laguerre_norm",
    "x1_jacobi_norm",
]


@dataclass(frozen=True)
class X1Family:
    """Parameter bundle for one exceptional family.

    ``kind`` is ``"laguerre"`` (index ``a > 0``) or ``"jacobi"``
    (indices ``a, b > -1`` with ``a != b``; equality collapses the
    rational part of the ODE and no degree-one family exists).
    """

    kind: str
    a: float
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("laguerre", "jacobi"):
            raise ArgumentError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "a", float(self.a))
        if self.kind == "laguerre":
            if self.b is not None:
                raise ArgumentError("laguerre family takes no second index")
            if not self.a > 0.0:
                raise ArgumentError(f"laguerre family needs a > 0, got a = {self.a:g}")
        else:
            if self.b is None:
                raise ArgumentError("jacobi family needs a second index b")
            object.__setattr__(self, "b", float(self.b))
            if not (self.a > -1.0 and self.b > -1.0):
                raise ArgumentError(
                    f"jacobi family needs a, b > -1, got ({self.a:g}, {self.b:g})"
                )
            if self.a == self.b:
                raise ArgumentError("jacobi family needs a != b")


def _check_member_index(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ArgumentError(
            f"family members are indexed by integers n >= 1, got {n!r}"
        )


def _cleared_ode_polys(kind: str, a, b, n: int):
    """Coefficients A, B, C (ascending arrays) of ``A y'' + B y' + C y = 0``,
    the family's ODE with its denominators cleared.

    The arithmetic follows the type of ``a`` and ``b`` (``b`` is unused
    for Laguerre): floats give float64 arrays, ``Fraction`` gives exact
    object arrays.  The other constants are ints, which neither converts.

    Laguerre, in the variable ``g`` on (0, inf), multiplied through by
    ``g (g + a)``:

    ``A = g (g + a)``, ``B = -(g - a)(g + a + 1)``,
    ``C = n g + a (n - 2)``

    Jacobi, in ``g`` on (-1, 1), writing ``T = (b - a) g - (a + b)`` and
    multiplying through by ``(1 - g^2) T``:

    ``A = (1 - g^2) T``,
    ``B = -((a + b + 2) g + a - b) T - 2 (b - a)(1 - g^2)``,
    ``C = -((b - a) g - (n + a + b)(n - 1)) T - (a - b)^2 (1 - g^2)``
    """
    if kind == "laguerre":
        A = np.array([0, a, 1])
        B = np.array([a * (a + 1), -1, -1])
        C = np.array([a * (n - 2), n])
        return A, B, C
    ev = (n + a + b) * (n - 1)
    A = np.array([-(a + b), b - a, a + b, -(b - a)])
    B = np.array(
        [
            (a - b) * (a + b + 2),
            (b - a) ** 2 + (a + b) * (a + b + 2),
            -(b - a) * (a + b),
        ]
    )
    C = np.array([-ev * (a + b) - (a - b) ** 2, (b - a) * (a + b + ev)])
    return A, B, C


def _exact_singular_points(family: X1Family) -> tuple:
    """The distinct roots of the cleared ODE's ``A``, in ``Fraction``:
    ``0, -a`` for Laguerre and ``1, -1, (a + b) / (b - a)`` for Jacobi,
    where the last meets ``1`` at ``a = 0`` and ``-1`` at ``b = 0``."""
    a = Fraction(family.a)
    if family.kind == "laguerre":
        return (Fraction(0), -a)
    b = Fraction(family.b)
    return tuple(dict.fromkeys((Fraction(1), Fraction(-1), (a + b) / (b - a))))


# ---------------------------------------------------------------------------
# member construction
# ---------------------------------------------------------------------------

_KEEP_SVD_TOL = 1e-14  # relative agreement under which the float SVD member is kept


def _ode_matrix(A, B, C, n: int) -> np.ndarray:
    """Map from monomial coefficients c_0..c_n of y to the coefficients of
    A y'' + B y' + C y, one column per c_j; exact for exact A, B, C."""
    m = np.zeros((n + 2, n + 1), dtype=A.dtype)
    # A (at most 4 coefficients) enters column j from row j - 2, B (at
    # most 3) from row j - 1 and C (2) from row j: none passes row j + 1
    for j in range(n + 1):
        if j >= 2:
            m[j - 2 : j - 2 + len(A), j] += A * (j * (j - 1))
        if j >= 1:
            m[j - 1 : j - 1 + len(B), j] += B * j
        m[j : j + len(C), j] += C
    return m


def x1_polynomial(family: X1Family, n: int) -> Polynomial:
    """Degree-``n`` member of the family, built from its ODE.

    The cleared ODE maps the ``n + 1`` monomial coefficients linearly to
    the residual's coefficients.  The matrix is banded: row ``r`` touches
    only ``c_{r-1}`` to ``c_{r+2}``, and row ``n + 1`` vanishes
    identically (the eigenvalue condition).  Every float index is a
    binary rational, so the matrix is built exactly in ``Fraction`` and
    the member comes by exact back-substitution: ``c_n`` is fixed by the
    normalization, and row ``r`` gives ``c_{r-1}`` through its pivot,
    ``n - r + 1`` for Laguerre and
    ``(b - a)[(n - 1)(n + a + b) - (r - 2)(r - 1 + a + b)]`` for Jacobi.
    That pivot vanishes only at ``r = 1`` with ``n = 1, a + b = 0`` or
    ``n = 2, a + b = -1``; there row 0 gives ``c_0``.  The rows left
    over must vanish exactly, else :class:`ConstructionError` is raised.
    Each coefficient is rounded once, except that the float SVD null
    vector of the matrix is returned where it agrees to ``1e-14`` of the
    largest coefficient, which keeps outputs computed from it
    byte-identical.  Those kept bits are accurate only normwise, so a
    coefficient of size O(a) can be noise: at a = 1e-15 the degree-2
    member comes back as (0, 4e-15, 1) for about (-2e-15, 0, 1), with
    roots 0 and -4e-15 instead of +-4.5e-8.  The exact coefficients ride
    along as ``Polynomial.exact``, which root counting reads.

    Normalization: Laguerre members get leading coefficient
    ``(-1)^n / (n - 1)!``; Jacobi members get ``-1/2`` times the leading
    coefficient ``(m + a + b + 1)_m / (2^m m!)`` of the classical
    ``P_m^(a,b)``, m = n - 1, each correctly rounded to a float.
    Both conventions reproduce the closed-form degree-1 and degree-2
    members and the quadrature norms of the family.  A leading
    coefficient out of the float range, as the Laguerre one is from
    n = 172, raises :class:`ConstructionError`, and so does a member
    whose coefficients or float ODE overflow as they are rounded, as the
    Laguerre ones do at a = 1e155 from n = 2.

    Members are cached per family and degree; ``n`` is checked before
    the lookup, and every integer type of ``n`` shares one entry.
    """
    _check_member_index(n)
    return _member(family, int(n))


@lru_cache(maxsize=None)
def _member(family: X1Family, n: int) -> Polynomial:
    kind, a, b = family.kind, family.a, family.b
    exact_b = None if b is None else Fraction(b)
    m = _ode_matrix(*_cleared_ode_polys(kind, Fraction(a), exact_b, n), n)
    c = np.zeros(n + 1, dtype=object)
    what = f"the leading coefficient of the degree-{n} {kind} member"
    if kind == "laguerre":
        lead = refuse_overflow(lambda: (-1.0) ** n / math.factorial(n - 1), ConstructionError, what)
    else:
        rising = math.prod(n + Fraction(a) + exact_b + j for j in range(n - 1))
        ratio = rising / (2 ** (n - 1) * math.factorial(n - 1))
        lead = refuse_overflow(lambda: -0.5 * float(ratio), ConstructionError, what)
    c[n] = Fraction(lead)
    # (row, unknown) pairs: row r fixes c_{r-1}, except that row 0 fixes
    # c_0 where row 1's pivot vanishes; every other pivot is nonzero for
    # the indices X1Family accepts, and so is m[0, 0] where it is used
    steps = [(r, r - 1) for r in range(n, 1, -1)] + [(1, 0) if m[1, 0] else (0, 0)]
    for r, k in steps:
        c[k] = -(m[r, k + 1 : r + 3] @ c[k + 1 : r + 3]) / m[r, k]
    for r in {0, 1, n + 1} - {r for r, _ in steps}:
        if m[r] @ c:
            raise ConstructionError(
                f"row {r} of the degree-{n} {kind} ODE does not vanish "
                f"on the back-substituted member"
            )

    def rounded():
        # c.astype(float) and the float Jacobi ODE's (b - a) ** 2 raise
        # OverflowError where they overflow
        v = c.astype(float)
        w = np.linalg.svd(_ode_matrix(*_cleared_ode_polys(kind, a, b, n), n))[2][-1]
        w = w * (v[n] / w[-1])
        return w if np.max(np.abs(w - v)) <= _KEEP_SVD_TOL * np.max(np.abs(v)) else v

    what = f"the float form of the degree-{n} {kind} member"
    return Polynomial(tuple(refuse_overflow(rounded, ConstructionError, what)), exact=tuple(c))


# ---------------------------------------------------------------------------
# weights and norms
# ---------------------------------------------------------------------------


def x1_weight(family: X1Family) -> Callable:
    """Orthogonality weight of the family as a vectorized evaluator.

    Laguerre, on (0, inf):

    ``W(x) = exp(-x) x^a / (x + a)^2``

    Jacobi, on (-1, 1):

    ``W(u) = (1 - u)^a (1 + u)^b / (a + b - (b - a) u)^2``

    The Jacobi form follows from substituting ``u = sin(k x)`` in the
    bound-state orthogonality integral of the trigonometric model: with
    states proportional to
    ``(1 - u)^(a/2 + 1/4) (1 + u)^(b/2 + 1/4) / (a + b - (b - a) u)``
    times a member, ``dx = du / (k sqrt(1 - u^2))`` cancels the quarter
    powers and leaves the weight above (up to the constant 1/k).

    For indices of mixed sign the rational denominator has its double
    pole inside (-1, 1); evaluating there raises
    :class:`SingularityError`.
    """
    if family.kind == "laguerre":
        a = family.a

        def weight(x):
            x = np.asarray(x, dtype=float)
            den = x + a
            if np.any(den == 0.0):
                raise SingularityError(f"weight pole at x = {-a:g}")
            out = np.exp(-x) * np.power(x, a) / (den * den)
            return out if out.ndim else out[()]

        return weight

    a, b = family.a, family.b

    def weight(u):
        u = np.asarray(u, dtype=float)
        den = a + b - (b - a) * u
        if np.any(den == 0.0):
            raise SingularityError(
                f"weight pole at u = {(a + b) / (b - a):g}"
            )
        out = np.power(1.0 - u, a) * np.power(1.0 + u, b) / (den * den)
        return out if out.ndim else out[()]

    return weight


def x1_laguerre_norm(n: int, a: float) -> float:
    """Squared weighted norm of the degree-``n`` exceptional Laguerre member.

    ``(a + n) * gamma(a + n - 1) / (n - 1)!`` for ``a > 0``, ``n >= 1``;
    from n = 142 at a = 2 the gamma function overflows, and
    :class:`EvaluationError` is raised.
    """
    _check_member_index(n)
    a = float(a)
    if not a > 0.0:
        raise ArgumentError(f"norm needs a > 0, got a = {a:g}")
    # a + (n - 1), not a + n - 1.0: at n = 1 the latter rounds a tiny a
    # away (to 0.0, a gamma pole, below a = 1.1e-16)
    return refuse_overflow(
        lambda: (a + n) * gamma(a + (n - 1)) / math.factorial(n - 1),
        EvaluationError,
        f"the squared norm of the degree-{n} X1 Laguerre member at a = {a:g}",
    )


def x1_jacobi_norm(n: int, a: float, b: float) -> float:
    """Squared weighted norm of the degree-``n`` exceptional Jacobi member.

    ``h_{n-1}^(a-1, b+1) (n + a) / (4 (b - a)^2 (n + b - 1))``, where
    ``h_m^(p,q) = 2^(p+q+1) Gamma(m+p+1) Gamma(m+q+1)
    / ((2m+p+q+1) Gamma(m+p+q+1) m!)`` is the squared norm of the
    classical ``P_m^(p,q)`` (Gomez-Ullate, Kamran & Milson, J. Math.
    Anal. Appl. 359, 2009), for ``a, b > -1`` with ``ab > 0``, where the
    weight's pole lies outside [-1, 1].  Where a factor leaves the float
    range (from n = 97 at (1.75, 3)) :class:`EvaluationError` is raised.
    """
    _check_member_index(n)
    a, b = float(a), float(b)
    if not (a > -1.0 and b > -1.0 and a * b > 0.0 and a != b):
        raise ArgumentError(f"norm needs a != b, a, b > -1 and ab > 0, got ({a:g}, {b:g})")

    def norm():
        # (2m + p + q + 1) Gamma(m + p + q + 1) is Gamma(a + b + 2) at m = 0,
        # which stays finite where a + b = -1
        if n == 1:
            den = math.gamma(a + b + 2.0)
        else:
            den = (2 * n + a + b - 1.0) * math.gamma(n + a + b) * math.factorial(n - 1)
        h = 2.0 ** (a + b + 1.0) * math.gamma(n - 1.0 + a) * math.gamma(n + b + 1.0) / den
        return h * (n + a) / (4.0 * (b - a) ** 2 * (n + b - 1.0))

    what = f"the squared norm of the degree-{n} X1 Jacobi member at ({a:g}, {b:g})"
    return refuse_overflow(norm, EvaluationError, what)

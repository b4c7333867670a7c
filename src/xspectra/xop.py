"""Degree-one exceptional Laguerre and Jacobi families.

Both families start at degree one and stay complete in their weighted
L2 spaces.  Each family's second-order ODE is written once, as the
polynomials A, B, C of ``A y'' + B y' + C y = 0`` with its denominators
cleared.  Members are the null space of the coefficient matrix those
polynomials define, not classical-polynomial identities, and the
rational coefficients ``q, dq, r`` that the point canonical
transformation reads are derived from the same A, B, C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import ArgumentError, ConstructionError, SingularityError
from .polycore import Polynomial, gamma

__all__ = [
    "X1Family",
    "OdeCoefficients",
    "x1_ode_coefficients",
    "x1_polynomial",
    "x1_weight",
    "x1_laguerre_norm",
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


@dataclass(frozen=True)
class OdeCoefficients:
    """First- and zeroth-order coefficients of ``y'' + q y' + r y = 0``.

    ``q`` and ``r`` are vectorized evaluators in the polynomial variable,
    ``dq`` is the analytic derivative of ``q``, and ``singular_points``
    lists the finite poles of the rational coefficients.  ``r`` carries
    the member index ``n`` of the eigenvalue term.
    """

    family: X1Family
    n: int
    q: Callable
    dq: Callable
    r: Callable
    singular_points: tuple[float, ...]


def _check_member_index(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ArgumentError(
            f"family members are indexed by integers n >= 1, got {n!r}"
        )


def _cleared_ode_polys(family: X1Family, n: int):
    """Coefficients A, B, C (ascending arrays) of ``A y'' + B y' + C y = 0``,
    the family's ODE with its denominators cleared.

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
    if family.kind == "laguerre":
        a = family.a
        A = np.array([0.0, a, 1.0])
        B = np.array([a * (a + 1.0), -1.0, -1.0])
        C = np.array([a * (n - 2.0), float(n)])
        return A, B, C
    a, b = family.a, family.b
    ev = (n + a + b) * (n - 1.0)
    A = np.array([-(a + b), b - a, a + b, -(b - a)])
    B = np.array(
        [
            (a - b) * (a + b + 2.0),
            (b - a) ** 2 + (a + b) * (a + b + 2.0),
            -(b - a) * (a + b),
        ]
    )
    C = np.array([-ev * (a + b) - (a - b) ** 2, (b - a) * (a + b + ev)])
    return A, B, C


def x1_ode_coefficients(family: X1Family, n: int) -> OdeCoefficients:
    """ODE data for the degree-``n`` member of ``family``.

    Derived from the cleared polynomials of :func:`_cleared_ode_polys`:
    ``q = B / A``, ``r = C / A`` and ``dq = (B' A - B A') / A^2``.  The
    singular points are the roots of ``A``: ``0, -a`` for Laguerre and
    ``1, -1, (a + b) / (b - a)`` for Jacobi.
    """
    _check_member_index(n)
    A, B, C = _cleared_ode_polys(family, n)
    dA, dB = npp.polyder(A), npp.polyder(B)

    def q(g):
        return npp.polyval(g, B) / npp.polyval(g, A)

    def dq(g):
        a_g = npp.polyval(g, A)
        return (npp.polyval(g, dB) * a_g - npp.polyval(g, B) * npp.polyval(g, dA)) / (
            a_g * a_g
        )

    def r(g):
        return npp.polyval(g, C) / npp.polyval(g, A)

    if family.kind == "laguerre":
        poles = (0.0, -family.a)
    else:
        poles = (1.0, -1.0, (family.a + family.b) / (family.b - family.a))
    return OdeCoefficients(family, int(n), q, dq, r, poles)


# ---------------------------------------------------------------------------
# member construction
# ---------------------------------------------------------------------------

_NULL_TOL = 1e-10  # relative singular-value threshold for the null space
_KEEP_SVD_TOL = 1e-14  # relative agreement under which a Laguerre SVD member is kept


def _ode_matrix(A, B, C, n: int) -> np.ndarray:
    """Map from monomial coefficients c_0..c_n of y to the coefficients of
    A y'' + B y' + C y, one column per c_j."""
    rows = n + 2
    m = np.zeros((rows, n + 1))

    def add(col, poly, shift):
        for i, c in enumerate(poly):
            if 0 <= i + shift < rows:
                m[i + shift, col] += c

    for j in range(n + 1):
        if j >= 2:
            add(j, A * (j * (j - 1)), j - 2)
        if j >= 1:
            add(j, B * j, j - 1)
        add(j, C, j)
    return m


def _jacobi_null_vector(m: np.ndarray, n: int) -> np.ndarray:
    _, s, vt = np.linalg.svd(m)
    if s[-1] > _NULL_TOL * s[0]:
        raise ConstructionError(
            f"jacobi ODE has no degree-{n} polynomial null vector "
            f"(smallest singular value {s[-1]:.3e} vs scale {s[0]:.3e})"
        )
    if len(s) >= 2 and s[-2] <= _NULL_TOL * s[0]:
        raise ConstructionError(
            f"jacobi ODE null space is not one-dimensional at n = {n}"
        )
    v = vt[-1]
    if abs(v[-1]) <= _NULL_TOL * np.max(np.abs(v)):
        raise ConstructionError(f"jacobi null vector has degree below {n}")
    return v


def _jacobi_lead(n: int, a: float, b: float) -> float:
    """Leading coefficient of the classical Jacobi ``P_n^(a,b)``.

    The top entry of the three-term recurrence, with the same float
    operations in the same order, so the bits match the full recurrence;
    the closed-form product rounds differently in the last place.
    """
    if n == 0:
        return 1.0
    lead = (a + b + 2.0) / 2.0
    for k in range(2, n + 1):
        s = 2 * k + a + b
        lead = (s - 1.0) * s * (s - 2.0) * lead / (2.0 * k * (k + a + b) * (s - 2.0))
    return lead


def x1_polynomial(family: X1Family, n: int) -> Polynomial:
    """Degree-``n`` member of the family, built from its ODE.

    The cleared ODE maps the ``n + 1`` monomial coefficients linearly to
    the residual's coefficients; the member spans the one-dimensional null
    space of that matrix.  The matrix is banded: row ``r`` touches only
    ``c_{r-1}`` to ``c_{r+2}``, and row ``n + 1`` vanishes identically
    (the eigenvalue condition).

    Laguerre members come by back-substitution: ``c_n`` is fixed by the
    normalization, and row ``r`` gives ``c_{r-1}`` through its entry
    ``n - r + 1``.  Their coefficients span many orders of magnitude, so
    an SVD null vector, accurate only relative to its largest entry,
    loses about a digit per degree.  The SVD member is still returned
    where it agrees with back-substitution to ``1e-14`` relative (low
    degrees), which keeps earlier outputs byte-identical.  Jacobi members
    come from the SVD alone (singular values below ``1e-10 * s_max``
    count as zero; anything but exactly one null direction raises
    :class:`ConstructionError`), since their back-substitution amplifies
    rounding and fails row 0 from about n = 8.  Either way a residual of
    the whole system above ``1e-10`` of its scale raises
    :class:`ConstructionError`.

    Normalization: Laguerre members get leading coefficient
    ``(-1)^n / (n - 1)!``; Jacobi members get ``-1/2`` times the leading
    coefficient of the classical ``P_{n-1}^(a,b)``.  Both conventions
    reproduce the closed-form degree-1 and degree-2 members and the
    quadrature norms of the family.
    """
    _check_member_index(n)
    n = int(n)
    A, B, C = _cleared_ode_polys(family, n)
    m = _ode_matrix(A, B, C, n)
    if family.kind == "laguerre":
        v = np.zeros(n + 1)
        v[n] = (-1.0) ** n / math.factorial(n - 1)
        for r in range(n, 0, -1):
            v[r - 1] = -(m[r, r:] @ v[r:]) / m[r, r - 1]
        # members used to come from the SVD null vector; where it agrees
        # with back-substitution its bits are kept, so tables and golden
        # digests computed from it stay byte-identical
        w = np.linalg.svd(m)[2][-1]
        w = w * (v[n] / w[-1])
        if np.max(np.abs(w - v)) <= _KEEP_SVD_TOL * np.max(np.abs(v)):
            v = w
    else:
        v = _jacobi_null_vector(m, n)
        lead = -0.5 * _jacobi_lead(n - 1, family.a, family.b)
        v = v * (lead / v[-1])
    resid = m @ v
    scale = np.max(np.abs(m)) * np.max(np.abs(v))
    if np.max(np.abs(resid)) > 1e-10 * scale:
        raise ConstructionError(
            f"cleared-ODE residual {np.max(np.abs(resid)):.3e} exceeds "
            f"1e-10 of scale {scale:.3e}"
        )
    return Polynomial(tuple(v))


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

    ``(a + n) * gamma(a + n - 1) / (n - 1)!`` for ``a > 0``, ``n >= 1``.
    """
    _check_member_index(n)
    a = float(a)
    if not a > 0.0:
        raise ArgumentError(f"norm needs a > 0, got a = {a:g}")
    return (a + n) * gamma(a + n - 1.0) / math.factorial(n - 1)

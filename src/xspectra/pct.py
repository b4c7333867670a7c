"""Point-canonical-transformation engine.

Substituting psi = f(x) F(g(x)) into the Schroedinger equation, where F
solves F'' + Q(g) F' + R(g) F = 0 and f = g'^(-1/2) exp((1/2) Integral Q dg),
gives

    E - V(x) = g'''/(2 g') - (3/4)(g''/g')^2
               + g'^2 (R - (1/2) dQ/dg - (1/4) Q^2)

with Q = B / A and R = C / A read from the cleared polynomials A, B, C
of :mod:`xspectra.xop`, the one form of each ODE.  For the maps used by
the solvable models, (E - V) / k^2 is a rational function of g, split
here exactly by partial fractions: the constant is the energy and the
rest is the potential.  The prefactor f is not evaluated here; the
closed-form states are in :mod:`xspectra.models`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import ArgumentError, ConsistencyError, SingularityError, refuse_where
from .xop import X1Family, _check_member_index, _cleared_ode_polys, _exact_singular_points

__all__ = [
    "GMap",
    "pct_e_minus_v",
    "PotentialExtraction",
    "extract_potential_report",
]


@dataclass(frozen=True)
class GMap:
    """Change of variable g with analytic derivatives up to third order.

    kinds:
      - ``quadratic``: g(x) = (kx + d)^2 / 4, so g'^2 / g = k^2
      - ``sine``:      g(x) = sin(kx + d),    so g'^2 / (1 - g^2) = k^2

    ``d`` is any complex shift: its real part is a plain coordinate
    shift, such as the pi/2 of the Scarf cos branch, and its imaginary
    part the non-Hermitian deformation x -> x + i Im(d)/k.
    """

    kind: str
    k: float
    d: complex = 0.0

    def __post_init__(self):
        if self.kind not in ("quadratic", "sine"):
            raise ArgumentError(f"unknown map kind {self.kind!r}")
        k = float(self.k)
        if k == 0.0:
            raise ArgumentError("map scale k must be nonzero")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", complex(self.d))

    @property
    def is_complex(self) -> bool:
        return self.d.imag != 0.0

    def derivatives(self, x) -> tuple:
        """(g, g', g'', g''') at ``x``, all from one w = kx + d."""
        w = self.k * np.asarray(x) + (self.d if self.is_complex else self.d.real)
        k2 = self.k * self.k
        if self.kind == "quadratic":
            return 0.25 * w * w, 0.5 * self.k * w, 0.5 * k2 * np.ones_like(w), np.zeros_like(w)
        sin, cos = np.sin(w), np.cos(w)
        return sin, self.k * cos, -k2 * sin, -self.k ** 3 * cos


# With the cleared ODE A F'' + B F' + C F = 0, g'^2 = k^2 M(g) and
# g'''/(2 g') - (3/4)(g''/g')^2 = k^2 T(g), both maps give
#     (E - V) / k^2 = M (4 C A - 2 B' A + 2 B A' - B^2) / (4 A^2) + T
#   quadratic: M = g,        T = -3 / (16 g)
#   sine:      M = 1 - g^2,  T = -1/2 - (3/4) g^2 / (1 - g^2)
#                                = 1/4 + (3/8) / (g - 1) - (3/8) / (g + 1)
# Per kind: M, and T in partial fractions keyed as PotentialExtraction.terms.
_MAP_TERMS = {
    "quadratic": ((0, 1), {(0, 1): Fraction(-3, 16)}),
    "sine": (
        (1, 0, -1),
        {(0, 0): Fraction(1, 4), (1, 1): Fraction(3, 8), (-1, 1): Fraction(-3, 8)},
    ),
}


def pct_e_minus_v(gm: GMap, family: X1Family, n: int, x):
    """E_n - V(x) for the degree-``n`` member of ``family``, in float.

    Reads the member's cleared A, B, C as ``q = B / A``, ``r = C / A``
    and ``dq = (B' A - B A') / A^2``.  It is the float evaluation of the
    transformation, independent of the exact split in
    :func:`extract_potential_report`, which measures the two against
    each other.  A point where g' vanishes or g lands on the float value
    of a root of A is refused.
    """
    _check_member_index(n)
    A, B, C = _cleared_ode_polys(family.kind, family.a, family.b, n)
    xs = np.asarray(x)
    gv, dgv, d2gv, d3gv = gm.derivatives(xs)
    refuse_where(dgv == 0.0, xs, SingularityError, "g' vanishes")
    for s in map(float, _exact_singular_points(family)):
        refuse_where(gv == s, xs, SingularityError, f"g(x) hits the ODE singular point {s:g}")
    dA, dB = npp.polyder(A), npp.polyder(B)
    a_g, b_g = npp.polyval(gv, A), npp.polyval(gv, B)
    q, r = b_g / a_g, npp.polyval(gv, C) / a_g
    dq = (npp.polyval(gv, dB) * a_g - b_g * npp.polyval(gv, dA)) / (a_g * a_g)
    out = (
        d3gv / (2.0 * dgv)
        - 0.75 * (d2gv / dgv) ** 2
        + dgv * dgv * (r - 0.5 * dq - 0.25 * q ** 2)
    )
    refuse_where(~np.isfinite(out), xs, SingularityError, "transformation not finite")
    return out if np.ndim(x) else complex(out) if gm.is_complex else float(out)


# ---------------------------------------------------------------------------
# separating energy from potential
# ---------------------------------------------------------------------------


def _partial_fractions(num, den, roots) -> dict:
    """num / den as ``{(p, j): c}``, the sum of ``c (g - p)^-j``, given
    den's distinct roots: the polynomial part at p = 0, j <= 0, then at
    each root r of multiplicity m (the number of leading zeros of
    den(r + t)) the first m terms of the series num(r + t) t^m / den(r + t).
    """
    parts = {(0, -j): c for j, c in enumerate(npp.polydiv(num, den)[0])}
    for r in roots:
        # Taylor shifts: the coefficients of num(r + t) and den(r + t)
        u, d = ([sum(c * comb(j, i) * r ** (j - i) for j, c in enumerate(p[i:], i))
                 for i in range(len(p))] for p in (num, den))
        m = next(i for i, c in enumerate(d) if c)
        u, d, s = u + [0] * m, d[m:] + [0] * m, []
        for i in range(m):
            s.append((u[i] - sum(d[j] * s[i - j] for j in range(1, i + 1))) / d[0])
        parts.update({(r, m - i): c for i, c in enumerate(s)})
    return parts


@lru_cache(maxsize=None)
def _exact_split(family: X1Family, kind: str, n: int) -> tuple:
    """``(E_n / k^2, terms, float terms)`` of the degree-``n`` member
    under the map ``kind``, where ``terms`` is V / k^2 as in
    :class:`PotentialExtraction` and the float terms are its
    ``(p, j, c)`` rounded; neither depends on ``k`` or ``d``."""
    a, b = Fraction(family.a), None if family.b is None else Fraction(family.b)
    A, B, C = (list(map(Fraction, p)) for p in _cleared_ode_polys(family.kind, a, b, n))
    dA, dB = npp.polyder(A), npp.polyder(B)
    rest = npp.polysub(
        npp.polyadd(4 * npp.polymul(C, A), 2 * npp.polymul(B, dA)),
        npp.polyadd(2 * npp.polymul(dB, A), npp.polymul(B, B)),
    )
    m, t = _MAP_TERMS[kind]
    num, den = npp.polymul(m, rest), 4 * npp.polymul(A, A)
    parts = _partial_fractions(num, den, _exact_singular_points(family))
    for key, c in t.items():
        parts[key] = parts.get(key, 0) + c
    energy = parts.pop((0, 0))
    # V = E - (E - V)
    terms = {(Fraction(p), j): -c for (p, j), c in parts.items() if c}
    return energy, terms, tuple((float(p), j, float(c)) for (p, j), c in terms.items())


@dataclass(frozen=True)
class PotentialExtraction:
    """E_{n1}, E_{n2} and V of one member pair, split exactly.

    ``terms`` is V / k^2 as a rational function of g, in ``Fraction``:
    ``terms[(p, j)]`` multiplies ``(g - p)^-j``.  The poles p are the
    roots of the ODE's A and of the map term; the polynomial part sits
    at p = 0 with j < 0.  With D = a + b - (b - a) g, the Jacobi 1/D^j
    coefficient is ``terms[((a + b) / (b - a), j)] * (a - b)^j``.
    ``v_values`` is V on the grid, ``energies`` is (E_{n1}, E_{n2}) as
    floats, and ``dw_spread`` is the largest distance on the grid of the
    float E - V difference of the two members from the exact
    E_{n1} - E_{n2}.
    """

    v_values: np.ndarray
    energies: tuple
    terms: dict
    dw_spread: float


def extract_potential_report(
    gm: GMap,
    family: X1Family,
    n_pair: Sequence[int],
    grid: Sequence[float],
) -> PotentialExtraction:
    """Split E_n - V into the energies E_{n1}, E_{n2} and V.

    Each member's (E - V) / k^2 is split exactly into partial fractions
    in g: the constant is E_n / k^2, rounded once to E_n, and the rest is
    V / k^2, which must be the same for both members, else the map does
    not match the family and :class:`ConsistencyError` is raised.  The
    split is cached per family, map kind and member.  ``v_values`` is the
    exact V evaluated at g on ``grid``, real or complex, and
    ``dw_spread`` measures :func:`pct_e_minus_v` there.
    """
    n1, n2 = n_pair
    if n1 == n2:
        raise ArgumentError("need two distinct member indices")
    for n in n_pair:
        _check_member_index(n)
    (c1, terms, floats), (c2, terms2, _) = (_exact_split(family, gm.kind, int(n)) for n in n_pair)
    if terms != terms2:
        raise ConsistencyError(
            f"E - V of members {n1} and {n2} differ by more than a constant "
            f"under the {gm.kind} map; the map does not match this family"
        )
    k2 = Fraction(gm.k) ** 2
    xs = np.asarray(grid, dtype=float)
    w1, w2 = (pct_e_minus_v(gm, family, n, xs) for n in n_pair)
    dw = w1 - w2 - float((c1 - c2) * k2)
    g = gm.derivatives(xs)[0]
    return PotentialExtraction(
        v_values=gm.k * gm.k * sum(c * (g - p) ** -j for p, j, c in floats),
        energies=(float(c1 * k2), float(c2 * k2)),
        terms=terms,
        dw_spread=float(np.max(np.abs(dw), initial=0.0)),
    )

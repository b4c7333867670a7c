"""Closed-form rationally extended models and their similarity identities.

Two families:

  - ``radial_extended``: harmonic plus centrifugal core with a rational
    correction, bound states on (0, inf) built on the exceptional
    Laguerre members.
  - ``scarf_extended``: trigonometric Scarf core with a rational
    correction, bound states on one period cell, built on the
    exceptional Jacobi members.

Either family admits an imaginary coordinate shift ``eps`` that makes
the potential complex while (provably, and verified numerically
elsewhere) keeping the spectrum real.  The shift is implemented by the
substitution w = kx + i*eps inside the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    ArgumentError,
    BranchCutError,
    DomainError,
    EvaluationError,
    SingularityError,
    refuse_overflow,
    refuse_where,
)
from .polycore import finite_quadrature, integrate
from .xop import X1Family, _check_member_index, x1_laguerre_norm, x1_polynomial

__all__ = [
    "PotentialModel",
    "validate_params",
    "cell",
    "real_poles",
    "x1_family",
    "potential",
    "energy",
    "wavefunction",
    "quasi_hermiticity_residual",
    "pseudo_hermiticity_residual",
    "pt_symmetry_residual",
]

_FAMILIES = ("radial_extended", "scarf_extended")
_BRANCHES = ("sin", "cos")


@dataclass(frozen=True)
class PotentialModel:
    """Immutable parameter set for one model.

    ``eps = 0`` is the Hermitian case.  ``branch`` selects which
    trigonometric solution the Scarf family uses; the cos branch is the
    sin branch evaluated at kx + pi/2.
    """

    family: str
    a: float
    b: Optional[float] = None
    k: float = 1.0
    eps: float = 0.0
    branch: Optional[str] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ArgumentError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "eps", float(self.eps))
        if self.k == 0.0:
            raise ArgumentError("scale k must be nonzero")
        if self.family == "radial_extended":
            if self.b is not None:
                raise ArgumentError("radial model takes no index b")
            if self.branch is not None:
                raise ArgumentError("radial model has no branch choice")
        else:
            if self.b is None:
                raise ArgumentError("scarf model needs the second index b")
            object.__setattr__(self, "b", float(self.b))
            branch = self.branch if self.branch is not None else "sin"
            if branch not in _BRANCHES:
                raise ArgumentError(
                    f"unknown branch {branch!r}; expected one of {_BRANCHES}"
                )
            object.__setattr__(self, "branch", branch)


def validate_params(m: PotentialModel) -> list:
    """Physics-level parameter diagnostics; an empty list means valid.

    Structural problems (unknown family, k = 0) are rejected earlier at
    construction; this reports the constraints that decide whether the
    model actually has regular normalizable states, and every pole the
    parameters put on the real line beyond those :func:`real_poles` lists.
    """
    out = []
    if m.family == "radial_extended":
        if not m.a > 0.0:
            out.append(f"index a must be positive, got a = {m.a:g}")
        elif m.eps != 0.0 and abs(m.eps * m.eps - 4.0 * m.a) <= 1e-12 * 4.0 * m.a:
            out.append(
                f"eps^2 = 4a (eps = {m.eps:g}, a = {m.a:g}) places the "
                "rational term's pole at x = 0 on the real line"
            )
        return out
    if not (m.a > -0.5 and m.b > -0.5):
        out.append(
            f"states are regular only for a, b > -1/2, got ({m.a:g}, {m.b:g})"
        )
    # D = 0 where sin w = (a + b)/(b - a), which leaves [-1, 1] (the X1
    # Jacobi weight's condition) only for ab > 0; a shift then puts D = 0
    # on a cell edge where cosh(eps) = |a + b|/|b - a|
    if m.a == m.b:
        out.append("indices must differ (a = b collapses the rational term)")
    elif not m.a * m.b > 0.0:
        out.append(
            f"indices with ab <= 0 (a = {m.a:g}, b = {m.b:g}) place the "
            "rational term's pole in the closed cell"
        )
    elif m.eps != 0.0:
        ratio = abs(m.a + m.b) / abs(m.b - m.a)
        try:
            cosh = math.cosh(m.eps)
        except OverflowError:  # |eps| > 710.48, past every finite ratio
            cosh = math.inf
        if abs(cosh - ratio) <= 1e-12 * ratio:
            out.append(
                f"cosh(eps) = |a+b|/|b-a| = {ratio:g} places the rational "
                "term's pole on the real line"
            )
    return out


def _require_valid(m: PotentialModel) -> None:
    diagnostics = validate_params(m)
    if diagnostics:
        raise DomainError("; ".join(diagnostics))


def _offset(m: PotentialModel) -> float:
    """Phase added to kx: the cos branch is the sin branch at kx + pi/2."""
    return 0.5 * math.pi if m.branch == "cos" else 0.0


def cell(m: PotentialModel) -> tuple:
    """Centre and half-width of a Scarf model's central cell, where
    |kx + phase| < pi/2."""
    if m.family != "scarf_extended":
        raise ArgumentError("only the scarf family lives on a cell")
    return -_offset(m) / m.k, 0.5 * math.pi / abs(m.k)


def real_poles(m: PotentialModel, lo: float, hi: float) -> list:
    """Poles of a valid model's potential inside (lo, hi), in order: x = 0
    for the Hermitian radial model, the cell edges for the Hermitian Scarf
    model, none once the shift moves them off the line.  Poles within
    1e-12 (|lo| + |hi| + 1) of an end are left out, as a Dirichlet grid
    never touches them; an invalid model raises :class:`DomainError`."""
    _require_valid(m)
    if m.eps != 0.0:
        return []
    if m.family == "radial_extended":
        poles = [0.0]
    else:
        centre, half = cell(m)
        edges = range(math.ceil((lo - centre) / half), math.floor((hi - centre) / half) + 1)
        poles = [centre + j * half for j in edges if j % 2]
    tol = 1e-12 * (abs(lo) + abs(hi) + 1.0)
    return [p for p in poles if lo + tol < p < hi - tol]


def x1_family(m: PotentialModel) -> X1Family:
    """The X1 family the model's states are built on."""
    kind = "laguerre" if m.family == "radial_extended" else "jacobi"
    return X1Family(kind, m.a, m.b)


def potential(m: PotentialModel, x):
    """Potential value(s) at ``x`` (real, or complex for continuations).

    radial, with w = kx + i eps:

      V = k^2 w^2 / 16 + k^2 (a^2 - 1/4) / w^2
          + 4 k^2 / (w^2 + 4a) - 32 a k^2 / (w^2 + 4a)^2

    scarf, with w = kx + i eps (+ pi/2 on the cos branch) and
    D = a + b - (b - a) sin w:

      V = k^2 (2a^2 + 2b^2 - 1)/4 * sec^2 w
          - k^2 (b^2 - a^2)/2 * sec w tan w
          + 2 k^2 (a + b) / D - 8 k^2 a b / D^2

    The result is a float array for eps = 0 and real input, complex
    otherwise.  Singular points raise :class:`SingularityError` naming
    the offending x.
    """
    xs = np.asarray(x)
    scalar = xs.ndim == 0
    want_complex = m.eps != 0.0 or np.iscomplexobj(xs)
    xs = xs.astype(complex if want_complex else float)
    k2 = m.k * m.k
    if m.family == "radial_extended":
        a = m.a
        w = m.k * xs + (1j * m.eps if want_complex else 0.0)
        w2 = w * w
        refuse_where(w == 0.0, xs, SingularityError, "centrifugal pole")
        den = w2 + 4.0 * a
        refuse_where(den == 0.0, xs, SingularityError, "rational-term pole")
        out = (
            k2 * w2 / 16.0
            + k2 * (a * a - 0.25) / w2
            + 4.0 * k2 / den
            - 32.0 * a * k2 / (den * den)
        )
    else:
        a, b = m.a, m.b
        w = m.k * xs + _offset(m) + (1j * m.eps if want_complex else 0.0)
        c = np.cos(w)
        refuse_where(c == 0.0, xs, SingularityError, "sec-type pole")
        s = np.sin(w)
        d = a + b - (b - a) * s
        refuse_where(d == 0.0, xs, SingularityError, "rational-term pole")
        sec2 = 1.0 / (c * c)
        # the -8ab rational coefficient is pinned by the exact partial
        # fractions of the transformation engine; see the verify check
        # scarf-rational-matches-minus-8ab
        out = (
            k2 * (2.0 * a * a + 2.0 * b * b - 1.0) / 4.0 * sec2
            - k2 * (b * b - a * a) / 2.0 * s * sec2
            + 2.0 * k2 * (a + b) / d
            - 8.0 * k2 * a * b / (d * d)
        )
    return out[()] if scalar else out


def energy(m: PotentialModel, n: int) -> float:
    """n-th bound-state energy; independent of ``eps`` by construction.

    radial: k^2 (2n + a - 1) / 2
    scarf:  (k^2 / 4) (2n + a + b - 1)^2
    """
    _check_member_index(n)
    k2 = m.k * m.k
    if m.family == "radial_extended":
        return k2 * (2.0 * n + m.a - 1.0) / 2.0
    return 0.25 * k2 * (2.0 * n + m.a + m.b - 1.0) ** 2


@lru_cache(maxsize=None)
def _scarf_norm_constant(m: PotentialModel, n: int) -> float:
    """1/sqrt of the squared norm of the unnormalized Hermitian state.

    Computed once per Hermitian sin-branch model and level by quadrature
    over the period cell; the closed form publishes the state only up to
    a constant, which the cos branch and the shift share.
    """
    a, b, k = m.a, m.b, m.k
    p = x1_polynomial(x1_family(m), n)
    _, half = cell(m)

    def integrand(x):
        s = np.sin(k * x)
        d = a + b - (b - a) * s
        pn = p(s)
        return (
            np.power(1.0 - s, a + 0.5)
            * np.power(1.0 + s, b + 0.5)
            / (d * d)
            * pn
            * pn
        )

    value = integrate(integrand, finite_quadrature(-half, half))
    return 1.0 / math.sqrt(value)


def wavefunction(m: PotentialModel, n, x):
    """Normalized bound state psi_n at ``x``; complex-valued.

    radial (z = x + i eps / k, u = k^2 z^2 / 4):

      psi_n = N z^(a + 1/2) exp(-k^2 z^2 / 8) Lhat_n(u) / (k^2 z^2 + 4a),
      N^2 = (n-1)! k^(2a+2) / (2^(2a-3) (a+n) Gamma(a+n-1))

    scarf (w = kx + i eps (+ pi/2 on the cos branch), s = sin w):

      psi_n = C (1-s)^(a/2+1/4) (1+s)^(b/2+1/4) Phat_n(s)
                / (a + b - (b-a) s)

    with C fixed numerically so the Hermitian state has unit norm.

    An int ``n`` gives psi_n shaped like ``x``; a sequence of levels
    gives a ``(len(n),) + x.shape`` array, row i holding level n[i].  The
    factors every level shares are evaluated once per call, and each row
    is bit-identical to the single-level call.  A point's bits do not
    depend on the rest of a 1-d ``x``, even at one element; a 0-d ``x``
    can round apart from it in the last bit.

    All fractional powers use the principal branch.  The shifted
    coordinate keeps a fixed-sign imaginary part for either sign of
    ``eps``, so the principal branch agrees with the analytic
    continuation of the Hermitian state; for the scarf family with
    eps != 0 that holds only inside the central cell |kx| < pi/2
    (|kx + pi/2| < pi/2 on the cos branch), and points beyond raise
    :class:`BranchCutError`.  Complex ``x`` is accepted for
    continuation work and skips the real-domain checks.  A model
    :func:`validate_params` refuses raises :class:`DomainError`, and a
    radial norm N out of the float range (as at a = 50, k = 1e4)
    :class:`EvaluationError`.
    """
    try:
        levels, single = tuple(n), False
    except TypeError:
        levels, single = (n,), True
    if not levels:
        raise ArgumentError("wavefunction needs at least one level")
    for level in levels:
        _check_member_index(level)
    _require_valid(m)
    xs = np.asarray(x)
    complex_input = np.iscomplexobj(xs)
    members = [x1_polynomial(x1_family(m), level) for level in levels]
    # psi_n = norm_n * left * right / den * P_n(t), every level in this
    # order; all but norm_n and P_n are shared and evaluated once
    if m.family == "radial_extended":
        a, k = m.a, m.k
        if not complex_input and m.eps == 0.0 and np.any(xs <= 0.0):
            raise DomainError("Hermitian radial states live on x > 0")
        norms = [
            refuse_overflow(
                lambda: math.sqrt(
                    abs(k) ** (2.0 * a + 2.0)
                    / (2.0 ** (2.0 * a - 3.0) * x1_laguerre_norm(level, a))
                ),
                EvaluationError,
                f"the norm of radial state {level} at a = {a:g}, k = {k:g}",
            )
            for level in levels
        ]
        z = xs.astype(complex) + 1j * m.eps / k
        refuse_where(z == 0.0, xs, SingularityError, "state has a branch point")
        refuse_where(
            (z.real < 0.0) & (z.imag == 0.0), xs, BranchCutError,
            "shifted coordinate lands on the branch cut",
        )
        t = 0.25 * k * k * z * z
        den = k * k * z * z + 4.0 * a
        refuse_where(den == 0.0, xs, SingularityError, "rational-term pole")
        left = np.power(z, a + 0.5)
        right = np.exp(-0.125 * k * k * z * z)
        del z
    else:
        a, b, k = m.a, m.b, m.k
        off = _offset(m)
        if not complex_input:
            centre, half = cell(m)
            dist = np.abs(xs.astype(float) - centre)
            where = f"|kx{' + pi/2' if off else ''}|"
            if m.eps == 0.0 and np.any(dist > half * (1.0 + 1e-12)):
                raise DomainError(f"Hermitian scarf states live on the cell {where} <= pi/2")
            if m.eps != 0.0 and np.any(dist >= half):
                raise BranchCutError(
                    "principal powers stop matching the analytic continuation "
                    f"beyond the central cell {where} < pi/2"
                )
        w = k * xs.astype(complex) + off + 1j * m.eps
        t = np.sin(w)
        del w
        one, two = 1.0 - t, 1.0 + t
        for name, factor in (("1 - sin w", one), ("1 + sin w", two)):
            refuse_where(
                (factor.real < 0.0) & (factor.imag == 0.0), xs, BranchCutError,
                f"factor {name} lands on the branch cut",
            )
        den = a + b - (b - a) * t
        refuse_where(den == 0.0, xs, SingularityError, "rational-term pole")
        left = np.power(one, 0.5 * a + 0.25)
        right = np.power(two, 0.5 * b + 0.25)
        del one, two, factor
        hermitian = replace(m, eps=0.0, branch="sin")
        norms = [_scarf_norm_constant(hermitian, level) for level in levels]
    out = np.empty((len(levels),) + xs.shape, complex)
    for i, (norm, p) in enumerate(zip(norms, members)):
        out[i] = norm * left * right / den * p(t)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# similarity structure
# ---------------------------------------------------------------------------


def quasi_hermiticity_residual(m: PotentialModel, grid) -> float:
    """max over the grid of |Vtilde(x - i eps/k) - V(x)|.

    V is the same model with eps = 0; the residual vanishes identically
    when the shifted potential is the analytic continuation it claims
    to be.
    """
    xs = np.asarray(grid, dtype=float)
    shifted = potential(m, xs - 1j * m.eps / m.k)
    base = potential(replace(m, eps=0.0), xs)
    return float(np.max(np.abs(shifted - base)))


def pseudo_hermiticity_residual(m: PotentialModel, grid) -> float:
    """max over the grid of |Vtilde(x - 2 i eps/k) - conj(Vtilde(x))|.

    This is the pointwise form of eta Vtilde eta^(-1) = Vtilde^dagger
    with eta the squared shift operator; it holds by Schwarz reflection
    because the eps = 0 potential is real-analytic.
    """
    xs = np.asarray(grid, dtype=float)
    shifted = potential(m, xs - 2j * m.eps / m.k)
    return float(np.max(np.abs(shifted - np.conj(potential(m, xs)))))


def pt_symmetry_residual(m: PotentialModel, grid) -> float:
    """max over the grid of |conj(Vtilde(-x)) - Vtilde(x)|.

    Zero for the radial family and for the scarf cos branch; the scarf
    sin branch breaks it whenever a != b.
    """
    xs = np.asarray(grid, dtype=float)
    return float(
        np.max(np.abs(np.conj(potential(m, -xs)) - potential(m, xs)))
    )

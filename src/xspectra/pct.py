"""Point-canonical-transformation engine.

Substituting psi = f(x) F(g(x)) into the Schroedinger equation, where F
solves F'' + Q(g) F' + R(g) F = 0 and f = g'^(-1/2) exp((1/2) Integral Q dg),
gives

    E - V(x) = g'''/(2 g') - (3/4)(g''/g')^2
               + g'^2 (R - (1/2) dQ/dg - (1/4) Q^2)

This module evaluates E - V for the maps used by the solvable models and
separates the x-independent energy from the potential mechanically.  The
prefactor f is not evaluated here; the closed-form states are in
:mod:`xspectra.models`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, ConsistencyError, SingularityError, refuse_where
from .xop import OdeCoefficients, X1Family, x1_ode_coefficients

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

    ``d`` must be purely real (a plain coordinate shift) or purely
    imaginary (the non-Hermitian deformation); anything mixed is
    rejected, since no model here uses it.
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
        d = complex(self.d)
        if d.real != 0.0 and d.imag != 0.0:
            raise ArgumentError(
                f"shift d must be purely real or purely imaginary, got {d}"
            )
        object.__setattr__(self, "d", d)

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


def pct_e_minus_v(gm: GMap, ode: OdeCoefficients, x):
    """E - V(x) for the member whose ODE data is ``ode``.

    For fixed member index n the result equals E_n - V(x), with the split
    into constant and x-dependent parts left to
    :func:`extract_potential_report`.
    """
    xs = np.asarray(x)
    gv, dgv, d2gv, d3gv = gm.derivatives(xs)
    refuse_where(dgv == 0.0, xs, SingularityError, "g' vanishes")
    for s in ode.singular_points:
        refuse_where(gv == s, xs, SingularityError, f"g(x) hits the ODE singular point {s:g}")
    out = (
        d3gv / (2.0 * dgv)
        - 0.75 * (d2gv / dgv) ** 2
        + dgv * dgv * (ode.r(gv) - 0.5 * ode.dq(gv) - 0.25 * ode.q(gv) ** 2)
    )
    refuse_where(~np.isfinite(out), xs, SingularityError, "transformation not finite")
    return out if np.ndim(x) else complex(out) if gm.is_complex else float(out)


# ---------------------------------------------------------------------------
# separating energy from potential
# ---------------------------------------------------------------------------


def _family_basis(family: X1Family) -> dict:
    """Rational basis spanning the x-dependent part of E - V over g.

    Partial fractions of the transformed coefficient combination leave
    poles only at the ODE's singular points (orders <= 2) plus, for the
    quadratic map, a term linear in g.  The constant function is excluded
    on purpose: it is the energy, and keeping it out of the basis is what
    makes the energy/potential split unique.
    """
    if family.kind == "laguerre":
        a = family.a
        return {
            "g": lambda g: g,
            "1/g": lambda g: 1.0 / g,
            "1/g^2": lambda g: 1.0 / g ** 2,
            "1/(g+a)": lambda g: 1.0 / (g + a),
            "1/(g+a)^2": lambda g: 1.0 / (g + a) ** 2,
        }
    a, b = family.a, family.b
    return {
        "1/(1-g)": lambda g: 1.0 / (1.0 - g),
        "1/(1-g)^2": lambda g: 1.0 / (1.0 - g) ** 2,
        "1/(1+g)": lambda g: 1.0 / (1.0 + g),
        "1/(1+g)^2": lambda g: 1.0 / (1.0 + g) ** 2,
        "1/D": lambda g: 1.0 / (a + b - (b - a) * g),
        "1/D^2": lambda g: 1.0 / (a + b - (b - a) * g) ** 2,
    }


@dataclass(frozen=True)
class PotentialExtraction:
    """Result of separating E_n from V(x) on a grid.

    ``terms[name]`` multiplies the basis function ``name`` in V(g);
    ``D`` abbreviates a + b - (b - a) g.
    """

    v_values: np.ndarray
    energies: tuple
    terms: dict
    dw_spread: float
    fit_residual: float


def extract_potential_report(
    gm: GMap,
    family: X1Family,
    n_pair: Sequence[int],
    grid: Sequence[float],
) -> PotentialExtraction:
    """Split E_n - V(x) into constants E_{n1}, E_{n2} and pointwise V.

    The split is a joint linear fit of both members' E - V values against
    the constant (energy) plus the family's rational basis in g
    (potential).  ``v_values`` holds V on the grid, ``energies`` the pair
    (E_{n1}, E_{n2}) and ``terms`` the fitted coefficients of V.
    """
    n1, n2 = n_pair
    if n1 == n2:
        raise ArgumentError("need two distinct member indices")
    xs = np.asarray(grid, dtype=float)
    if xs.size < 4:
        raise ArgumentError("grid too small to separate energy from potential")
    ode1 = x1_ode_coefficients(family, n1)
    ode2 = x1_ode_coefficients(family, n2)
    w1 = pct_e_minus_v(gm, ode1, xs)
    w2 = pct_e_minus_v(gm, ode2, xs)

    # W_{n1} - W_{n2} = E_{n1} - E_{n2} must be x-independent; a spread
    # here means the map does not linearize this family's n dependence.
    dw = w1 - w2
    mean = complex(np.mean(dw))
    spread = float(np.max(np.abs(dw - mean)))
    if spread > 1e-9 * abs(mean):
        raise ConsistencyError(
            f"W_{n1} - W_{n2} varies by {spread:.3e} across the grid "
            f"(mean {mean:.6g}); the map does not match this family"
        )

    basis = _family_basis(family)
    gv = gm.derivatives(xs)[0]
    dtype = complex if gm.is_complex else float
    m = np.zeros((2 * xs.size, 2 + len(basis)), dtype=dtype)
    m[: xs.size, 0] = 1.0
    m[xs.size :, 1] = 1.0
    for j, fn in enumerate(basis.values()):
        col = fn(gv)
        m[: xs.size, 2 + j] = -col
        m[xs.size :, 2 + j] = -col
    rhs = np.concatenate([w1, w2]).astype(dtype)
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    resid = float(np.max(np.abs(m @ sol - rhs)))
    scale = float(np.max(np.abs(rhs)))
    if resid > 1e-9 * max(scale, 1.0):
        raise ConsistencyError(
            f"transformed coefficients leave residual {resid:.3e} outside "
            "the family's rational basis"
        )
    e1, e2 = sol[0], sol[1]
    if not gm.is_complex:
        e1, e2 = float(e1), float(e2)
    v = e1 - w1
    return PotentialExtraction(
        v_values=v,
        energies=(e1, e2),
        terms=dict(zip(basis, sol[2:])),
        dw_spread=spread,
        fit_residual=resid,
    )

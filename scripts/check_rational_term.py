#!/usr/bin/env python3
"""Settle the 1/D^2 coefficient of the extended Scarf potential by fit.

Two closed forms for the coefficient of 1/(a + b - (b-a) sin w)^2 are in
circulation: -8 k^2 a b and 2 k^2 ((a-b)^2 - 4 a b).  They disagree for
every a != b, so the transformation engine decides: it rebuilds V(x)
from the polynomial family's ODE alone and fits the rational terms.
"""

import argparse
import sys

import numpy as np

from xspectra import GMap, PotentialModel, extract_potential_report
from xspectra.models import cell, x1_family


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=1.75)
    ap.add_argument("--b", type=float, default=3.0)
    ap.add_argument("--k", type=float, default=1.25)
    args = ap.parse_args()
    a, b, k = args.a, args.b, args.k

    m = PotentialModel("scarf_extended", a, b, k)
    fam = x1_family(m)
    _, half = cell(m)
    grid = np.linspace(-0.9 * half, 0.9 * half, 50)
    rep = extract_potential_report(GMap("sine", k), fam, (1, 2), grid)

    print(f"a = {a:g}, b = {b:g}, k = {k:g}")
    print(f"fit residual {rep.fit_residual:.3e}, level-spacing spread "
          f"{rep.dw_spread:.3e}")
    for name, coef in rep.terms.items():
        print(f"  {name:10s} -> {float(np.real(coef)):+.12f}")

    fitted = float(np.real(rep.terms["1/D^2"]))
    product_form = -8.0 * k * k * a * b
    difference_form = 2.0 * k * k * ((a - b) ** 2 - 4.0 * a * b)
    print(f"candidate -8 k^2 a b             = {product_form:+.12f}")
    print(f"candidate 2 k^2 ((a-b)^2 - 4ab)  = {difference_form:+.12f}")
    if abs(fitted - product_form) <= 1e-8 * abs(product_form):
        print("fit matches the product form")
        return 0
    print("fit does NOT match the product form", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

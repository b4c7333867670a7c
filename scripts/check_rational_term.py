#!/usr/bin/env python3
"""Settle the 1/D^2 coefficient of the extended Scarf potential exactly.

Two closed forms for the coefficient of 1/(a + b - (b-a) sin w)^2 are in
circulation: -8 k^2 a b and 2 k^2 ((a-b)^2 - 4 a b).  They disagree for
every a != b, so the transformation engine decides: it rebuilds V from
the polynomial family's ODE alone, split exactly into partial fractions
in sin w, and its coefficient must equal one form exactly.
"""

import argparse
import sys
from fractions import Fraction

from xspectra import GMap, X1Family, extract_potential_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=1.75)
    ap.add_argument("--b", type=float, default=3.0)
    ap.add_argument("--k", type=float, default=1.25)
    args = ap.parse_args()
    rep = extract_potential_report(
        GMap("sine", args.k), X1Family("jacobi", args.a, args.b), (1, 2), []
    )

    print(f"a = {args.a:g}, b = {args.b:g}, k = {args.k:g}")
    print("V / k^2 = sum of c (g - p)^-j, g = sin w:")
    for (p, j), c in rep.terms.items():
        print(f"  p = {str(p):>10s}  j = {j:2d}  c = {c}")

    a, b, k2 = Fraction(args.a), Fraction(args.b), Fraction(args.k) ** 2
    exact = rep.terms.get(((a + b) / (b - a), 2), Fraction(0)) * (a - b) ** 2 * k2
    product_form = -8 * k2 * a * b
    difference_form = 2 * k2 * ((a - b) ** 2 - 4 * a * b)
    print(f"1/D^2 coefficient of V           = {exact} = {float(exact):+.12f}")
    print(f"candidate -8 k^2 a b             = {product_form} = {float(product_form):+.12f}")
    print(f"candidate 2 k^2 ((a-b)^2 - 4ab)  = {difference_form} = "
          f"{float(difference_form):+.12f}")
    if exact == product_form:
        print("exact coefficient matches the product form")
        return 0
    print("exact coefficient does NOT match the product form", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xspectra import (
    ArgumentError,
    Polynomial,
    PoleError,
    X1Family,
    count_real_roots_in,
    gamma,
    x1_polynomial,
)
from xspectra.polycore import classical_jacobi, poly_eval_derivs


class TestGamma:
    def test_matches_math_gamma_on_positives(self):
        for x in (0.1, 0.5, 1.0, 1.5, 3.7, 10.0, 20.5, 70.25):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_matches_math_gamma_on_negatives(self):
        for x in (-0.5, -1.5, -2.25, -7.75):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_poles_at_nonpositive_integers(self):
        for x in (0.0, -1.0, -2.0, -37.0):
            with pytest.raises(PoleError):
                gamma(x)

    @given(st.floats(min_value=0.05, max_value=40.0))
    def test_functional_equation(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @given(st.floats(min_value=-20.0, max_value=-0.05))
    def test_functional_equation_negative(self, x):
        # stay away from the poles, where the recurrence loses digits
        if abs(x - round(x)) < 1e-3:
            return
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-9)


coeff_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=8
)


class TestPolynomial:
    @given(coeff_lists, st.floats(min_value=-3.0, max_value=3.0))
    def test_matches_polyval(self, coeffs, x):
        p = Polynomial.from_coeffs(coeffs)
        coeffs = list(p.coeffs)
        assert p(x) == pytest.approx(
            np.polyval(coeffs[::-1], x), rel=1e-12, abs=1e-12
        )

    def test_complex_and_array_evaluation(self):
        p = Polynomial((1.0, 0.0, 1.0))  # 1 + x^2
        assert p(1j) == pytest.approx(0.0)
        np.testing.assert_allclose(p(np.array([0.0, 1.0, 2.0])), [1.0, 2.0, 5.0])

    def test_derivative(self):
        p = Polynomial((5.0, -3.0, 0.0, 2.0))
        assert p.derivative().coeffs == (-3.0, 0.0, 6.0)

    def test_arithmetic(self):
        p = Polynomial((1.0, 1.0))
        q = Polynomial((-1.0, 1.0))
        assert (p * q).coeffs == (-1.0, 0.0, 1.0)
        assert (p + q).coeffs == (0.0, 2.0)

    @given(coeff_lists, st.floats(min_value=-2.0, max_value=2.0))
    def test_eval_derivs_consistent_with_derivative(self, coeffs, x):
        p = Polynomial.from_coeffs(coeffs)
        vals = poly_eval_derivs(p, x, 2)
        assert vals[0] == pytest.approx(p(x), rel=1e-12, abs=1e-9)
        assert vals[1] == pytest.approx(p.derivative()(x), rel=1e-12, abs=1e-9)
        assert vals[2] == pytest.approx(
            p.derivative().derivative()(x), rel=1e-12, abs=1e-9
        )


class TestClassicalFamilies:
    def test_jacobi_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        xs = np.linspace(-1.0, 1.0, 25)
        for n in range(0, 7):
            for a, b in ((1.75, 3.0), (0.5, 1.5), (-0.25, 0.75)):
                got = classical_jacobi(n, a, b)(xs)
                want = scipy_special.eval_jacobi(n, a, b, xs)
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


class TestRootCounting:
    def test_known_cubic(self):
        # (x + 2)(x - 1)(x - 3) = -6 + 7x^2 ... expand: x^3 - 2x^2 - 5x + 6
        p = Polynomial((6.0, -5.0, -2.0, 1.0))
        assert count_real_roots_in(p, -math.inf, 0.0) == 1
        assert count_real_roots_in(p, 0.0, math.inf) == 2
        assert count_real_roots_in(p, 0.9, 3.1) == 2
        assert count_real_roots_in(p, 1.0, 3.0) == 0  # open interval
        assert count_real_roots_in(p, -math.inf, math.inf) == 3

    def test_no_real_roots(self):
        p = Polynomial((1.0, 0.0, 1.0))
        assert count_real_roots_in(p, -math.inf, math.inf) == 0

    def test_repeated_root_counted_once(self):
        p = Polynomial((1.0, -2.0, 1.0))  # (x - 1)^2
        assert count_real_roots_in(p, 0.0, 2.0) == 1

    def test_endpoints_on_repeated_roots(self):
        p = Polynomial((-2.0, 5.0, -4.0, 1.0))  # (x - 1)^2 (x - 2)
        assert count_real_roots_in(p, 1.0, 2.0) == 0
        assert count_real_roots_in(p, 1.0, 3.0) == 1
        assert count_real_roots_in(p, 0.0, 3.0) == 2
        square = Polynomial((1.0, -2.0, 1.0))  # (x - 1)^2
        assert count_real_roots_in(square, 0.0, 1.0) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficients_are_rejected(self, bad):
        with pytest.raises(ArgumentError):
            count_real_roots_in(Polynomial((1.0, bad, 1.0)), -1.0, 1.0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 5.0])
    def test_x1_laguerre_zero_pattern_to_degree_20(self, a):
        # n - 1 zeros in (0, inf) and one in (-inf, -a) for every member
        fam = X1Family("laguerre", a)
        for n in range(1, 21):
            p = x1_polynomial(fam, n)
            assert count_real_roots_in(p, -math.inf, -a) == 1, n
            assert count_real_roots_in(p, 0.0, math.inf) == n - 1, n

    @settings(max_examples=40)
    @given(
        st.lists(
            st.floats(min_value=-4.0, max_value=4.0), min_size=2, max_size=5
        )
    )
    def test_counts_match_constructed_roots(self, roots):
        # well-separated roots only; clustered ones are a conditioning
        # question, not a counting one
        roots = sorted(roots)
        if any(b - a < 0.05 for a, b in zip(roots, roots[1:])):
            return
        p = Polynomial((1.0,))
        for r in roots:
            p = p * Polynomial((-r, 1.0))
        assert count_real_roots_in(p, -5.0, 5.0) == len(roots)
        mid = 0.5 * (roots[0] + roots[-1])
        if all(abs(mid - r) > 0.01 for r in roots):
            left = sum(1 for r in roots if r < mid)
            assert count_real_roots_in(p, -5.0, mid) == left

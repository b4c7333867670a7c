import math
import random
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xspectra import xop
from xspectra import (
    ArgumentError,
    ConstructionError,
    Polynomial,
    SingularityError,
    X1Family,
    x1_jacobi_norm,
    x1_laguerre_norm,
    x1_ode_coefficients,
    x1_polynomial,
    x1_weight,
)

# Closed-form members, ascending coefficients.  Frozen from an exact
# rational null-space solve of the same ODEs (sympy), so any regression
# in the float construction shows up against these.
MEMBERS = {
    ("laguerre", 2.0, None, 1): [-3.0, -1.0],
    ("laguerre", 2.0, None, 2): [-8.0, 0.0, 1.0],
    ("laguerre", 2.0, None, 3): [-15.0, 5.0, 2.5, -0.5],
    ("laguerre", 2.0, None, 4): [-24.0, 16.0, 3.0, -2.0, 1.0 / 6.0],
    ("laguerre", 0.5, None, 1): [-1.5, -1.0],
    ("laguerre", 0.5, None, 2): [-1.25, 0.0, 1.0],
    ("jacobi", 1.75, 3.0, 1): [2.7, -0.5],
    ("jacobi", 1.75, 3.0, 2): [-27.0 / 16.0, 69.0 / 8.0, -27.0 / 16.0],
    ("jacobi", 0.5, 1.5, 1): [2.0, -0.5],
    ("jacobi", 0.5, 1.5, 2): [-1.0, 3.25, -1.0],
}


# Jacobi members whose row-1 pivot vanishes (n = 1, a + b = 0 and
# n = 2, a + b = -1), so that row 0 fixes c_0; frozen from the float SVD
# null vector that built them before the exact back-substitution
ZERO_PIVOT_MEMBERS = {
    (0.5, -0.5, 1): (-1.0, -0.5),
    (0.25, -0.25, 1): (-2.0, -0.5),
    (-0.25, -0.75, 2): (-0.24999999999999933, 1.375, -0.25),
}


def _family(kind, a, b):
    return X1Family(kind, a) if kind == "laguerre" else X1Family(kind, a, b)


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for poly in (p, q):
        for i, x in enumerate(poly):
            out[i] += x
    return out


def _scaled(s, p):
    return [s * x for x in p]


def _exact_null_vector(kind, a, b, n):
    """The member by an independent exact solve: the cleared A, B, C
    multiplied out from their factored forms in rational arithmetic, the
    ODE applied to each monomial, and the one-dimensional null space of
    that matrix by Gauss-Jordan elimination.  Scaled to c_pivot = 1 for
    the free column."""
    a = Fraction(a)
    if kind == "laguerre":
        A = _pmul([0, 1], [a, 1])
        B = _scaled(-1, _pmul([-a, 1], [a + 1, 1]))
        C = [a * (n - 2), Fraction(n)]
    else:
        b = Fraction(b)
        t = [-(a + b), b - a]  # T = (b - a) g - (a + b)
        w = [1, 0, -1]  # 1 - g^2
        A = _pmul(w, t)
        B = _padd(_scaled(-1, _pmul([a - b, a + b + 2], t)), _scaled(-2 * (b - a), w))
        C = _padd(
            _scaled(-1, _pmul([-(n + a + b) * (n - 1), b - a], t)),
            _scaled(-((a - b) ** 2), w),
        )
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 2)]
    for j in range(n + 1):
        for poly, scale, shift in ((A, j * (j - 1), j - 2), (B, j, j - 1), (C, 1, j)):
            for i, x in enumerate(poly):
                if scale and x:
                    rows[i + shift][j] += scale * x
    pivots = []
    for col in range(n + 1):
        p = next((i for i in range(len(pivots), n + 2) if rows[i][col]), None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(n + 2):
            f = rows[i][col]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    free = [c for c in range(n + 1) if c not in pivots]
    assert len(free) == 1, free
    v = [Fraction(0)] * (n + 1)
    v[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        v[col] = -rows[r][free[0]]
    return v


def poly_eval_derivs(p, x, m):
    """``(p(x), p'(x), ..., p^(m)(x))`` from one Horner-style sweep
    carrying ``m + 1`` accumulators; ``x`` may be real or complex."""
    vals = [0.0 * x for _ in range(m + 1)]
    for c in p.coeffs[::-1]:
        for j in range(m, 0, -1):
            vals[j] = vals[j] * x + vals[j - 1]
        vals[0] = vals[0] * x + c
    return tuple(v * math.factorial(j) for j, v in enumerate(vals))


class TestPolyEvalDerivs:
    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=8
        ).filter(lambda cs: cs[-1] != 0.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_matches_numpy_polyder(self, coeffs, x):
        vals = poly_eval_derivs(Polynomial(tuple(coeffs)), x, 2)
        for j in range(3):
            want = npp.polyval(x, npp.polyder(coeffs, j))
            assert vals[j] == pytest.approx(want, rel=1e-12, abs=1e-9)


class TestConstruction:
    @pytest.mark.parametrize("key", sorted(MEMBERS, key=str))
    def test_members_match_closed_forms(self, key):
        kind, a, b, n = key
        p = x1_polynomial(_family(kind, a, b), n)
        want = np.array(MEMBERS[key])
        got = np.array(p.coeffs)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_jacobi_leading_coefficient_against_scipy(self):
        # -1/2 times the leading coefficient of the classical P_{n-1}^(a,b)
        scipy_special = pytest.importorskip("scipy.special")
        for a, b in ((1.75, 3.0), (0.5, 1.5), (-0.25, 0.75)):
            fam = X1Family("jacobi", a, b)
            for n in range(1, 11):
                want = -0.5 * scipy_special.jacobi(n - 1, a, b).coeffs[0]
                got = x1_polynomial(fam, n).coeffs[-1]
                assert got == pytest.approx(want, rel=1e-12), (a, b, n)

    def test_jacobi_lead_is_the_exact_lead_correctly_rounded(self, monkeypatch):
        # -1/2 (m + a + b + 1)_m / (2^m m!), m = n - 1, rounded once; the
        # float SVD bits are never kept here, as their rescaling can move
        # the lead by an ulp
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(xop, "_KEEP_SVD_TOL", -1.0)
        rng = random.Random(2009)
        cases = [(1.75, 3.0, n) for n in range(1, 9)] + [
            (rng.uniform(-0.9, 6.0), rng.uniform(-0.9, 6.0), rng.randint(1, 16))
            for _ in range(60)
        ]
        with mp.workdps(50):
            for a, b, n in cases:
                m = n - 1
                lead = mp.rf(m + mp.mpf(a) + b + 1, m) / (2**m * mp.factorial(m))
                want = -0.5 * float(mp.nstr(lead, 40))
                got = xop._member.__wrapped__(X1Family("jacobi", a, b), n).coeffs[-1]
                assert got == want, (a, b, n)

    def test_degree_and_leading_coefficient(self):
        fam = X1Family("laguerre", 3.25)
        for n in range(1, 9):
            p = x1_polynomial(fam, n)
            assert p.degree == n
            assert p.coeffs[-1] == pytest.approx(
                (-1.0) ** n / math.factorial(n - 1), rel=1e-12
            )

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=6.0),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.3, max_value=4.0),
    )
    def test_laguerre_member_solves_its_ode(self, a, n, g):
        fam = X1Family("laguerre", a)
        p = x1_polynomial(fam, n)
        ode = x1_ode_coefficients(fam, n)
        v, dv, d2v = poly_eval_derivs(p, g, 2)
        terms = (d2v, ode.q(g) * dv, ode.r(g) * v)
        scale = max(abs(t) for t in terms) + 1.0
        assert abs(sum(terms)) <= 1e-10 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-0.9, max_value=4.0),
        st.floats(min_value=-0.9, max_value=4.0),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=-0.95, max_value=0.95),
    )
    @example(0.5, -0.5, 1, 0.5)  # zero pivot at row 1: n = 1, a + b = 0
    @example(0.25, -0.25, 1, 0.5)
    @example(-0.25, -0.75, 2, 0.5)  # zero pivot at row 1: n = 2, a + b = -1
    def test_jacobi_member_solves_its_ode(self, a, b, n, g):
        if abs(a - b) < 0.05:
            return
        fam = X1Family("jacobi", a, b)
        ode = x1_ode_coefficients(fam, n)
        pole = (a + b) / (b - a)
        if abs(g - pole) < 0.05:
            return
        p = x1_polynomial(fam, n)
        v, dv, d2v = poly_eval_derivs(p, g, 2)
        terms = (d2v, ode.q(g) * dv, ode.r(g) * v)
        scale = max(abs(t) for t in terms) + 1.0
        assert abs(sum(terms)) <= 1e-9 * scale


    @pytest.mark.parametrize("key", sorted(ZERO_PIVOT_MEMBERS))
    def test_zero_pivot_members_keep_their_coefficients(self, key):
        a, b, n = key
        got = x1_polynomial(X1Family("jacobi", a, b), n).coeffs
        assert got == ZERO_PIVOT_MEMBERS[key]

    def test_high_degree_members_match_an_exact_solve(self):
        # a seeded sweep up to degree 20; the reference is scaled to the
        # returned leading coefficient, whose convention the tests above
        # check, so this measures the solve alone
        rng = random.Random(20091)
        for _ in range(3):
            a = rng.uniform(0.2, 6.0)
            ja, jb = rng.uniform(-0.9, 4.0), rng.uniform(-0.9, 4.0)
            while abs(ja - jb) < 0.05:
                jb = rng.uniform(-0.9, 4.0)
            for kind, a, b in (("laguerre", a, None), ("jacobi", ja, jb)):
                fam = _family(kind, a, b)
                for n in range(1, 21):
                    got = np.array(x1_polynomial(fam, n).coeffs)
                    ref = _exact_null_vector(kind, a, b, n)
                    scale = Fraction(float(got[-1])) / ref[-1]
                    want = np.array([float(scale * c) for c in ref])
                    err = np.max(np.abs(got - want))
                    assert err <= 1e-14 * np.max(np.abs(want)), (kind, a, b, n, err)

    @pytest.mark.parametrize("fam", [X1Family("laguerre", 2.0), X1Family("jacobi", 1.75, 3.0)])
    def test_rows_left_over_must_vanish_exactly(self, monkeypatch, fam):
        cleared = xop._cleared_ode_polys

        def next_eigenvalue(kind, a, b, n):
            return cleared(kind, a, b, n + 1)

        monkeypatch.setattr(xop, "_cleared_ode_polys", next_eigenvalue)
        with pytest.raises(ConstructionError, match="does not vanish"):
            xop._member.__wrapped__(fam, 3)


class TestMemberCache:
    def test_index_is_checked_before_the_lookup(self):
        fam = X1Family("laguerre", 2.0)
        x1_polynomial(fam, 1)
        with pytest.raises(ArgumentError):
            x1_polynomial(fam, True)

    def test_integer_types_share_an_entry(self):
        fam = X1Family("jacobi", 1.75, 3.0)
        p = x1_polynomial(fam, 2)
        size = xop._member.cache_info().currsize
        assert x1_polynomial(fam, np.int64(2)) is p
        assert xop._member.cache_info().currsize == size


class TestValidation:
    def test_family_rejects_bad_parameters(self):
        with pytest.raises(ArgumentError):
            X1Family("hermite", 1.0)
        with pytest.raises(ArgumentError):
            X1Family("laguerre", 0.0)
        with pytest.raises(ArgumentError):
            X1Family("laguerre", 1.0, 2.0)
        with pytest.raises(ArgumentError):
            X1Family("jacobi", 1.0)
        with pytest.raises(ArgumentError):
            X1Family("jacobi", -1.5, 1.0)
        with pytest.raises(ArgumentError):
            X1Family("jacobi", 2.0, 2.0)

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_member_index_must_be_positive_integer(self, n):
        fam = X1Family("laguerre", 2.0)
        with pytest.raises(ArgumentError):
            x1_polynomial(fam, n)
        with pytest.raises(ArgumentError):
            x1_ode_coefficients(fam, n)


class TestOdeData:
    def test_jacobi_q_at_origin(self, jacobi_family):
        ode = x1_ode_coefficients(jacobi_family, 2)
        # -(a - b) - 2 (b - a) / (-(a + b)) at a=1.75, b=3
        assert ode.q(0.0) == pytest.approx(1.7763157894736842, rel=1e-13)

    def test_dq_matches_finite_difference(self, jacobi_family):
        ode = x1_ode_coefficients(jacobi_family, 3)
        for g in (-0.6, -0.1, 0.3, 0.8):
            h = 1e-6
            fd = (ode.q(g + h) - ode.q(g - h)) / (2.0 * h)
            assert ode.dq(g) == pytest.approx(fd, rel=1e-8)

    def test_singular_points(self, laguerre_family, jacobi_family):
        assert x1_ode_coefficients(laguerre_family, 1).singular_points == (
            0.0,
            -2.0,
        )
        sp = x1_ode_coefficients(jacobi_family, 1).singular_points
        assert sp[:2] == (1.0, -1.0)
        assert sp[2] == pytest.approx(4.75 / 1.25)


def _hand_written_ode(family, n):
    """The rational q, dq, r of each family written out by hand, the
    reference for the ones derived from the cleared polynomials."""
    a, b = family.a, family.b
    if family.kind == "laguerre":

        def q(g):
            return -(g - a) * (g + a + 1.0) / (g * (g + a))

        def dq(g):
            num = g * g + g - a * (a + 1.0)
            den = g * (g + a)
            return -((2.0 * g + 1.0) * den - num * (2.0 * g + a)) / (den * den)

        def r(g):
            return (g - a) / (g * (g + a)) + (n - 1.0) / g

        return q, dq, r

    def q(g):
        t = (b - a) * g - (a + b)
        return -((a + b + 2.0) * g + a - b) / (1.0 - g * g) - 2.0 * (b - a) / t

    def dq(g):
        t = (b - a) * g - (a + b)
        first = -((a + b + 2.0) * (1.0 + g * g) + 2.0 * (a - b) * g) / (
            (1.0 - g * g) ** 2
        )
        return first + 2.0 * (b - a) ** 2 / (t * t)

    def r(g):
        t = (b - a) * g - (a + b)
        ev = (n + a + b) * (n - 1.0)
        return -((b - a) * g - ev) / (1.0 - g * g) - (a - b) ** 2 / t

    return q, dq, r


class TestOdeDerivation:
    """q, dq and r come from the cleared polynomials A, B, C; they must
    agree with the hand-written rational forms away from the poles."""

    @staticmethod
    def _check(family, n, g):
        ode = x1_ode_coefficients(family, n)
        if min(abs(g - s) for s in ode.singular_points) < 0.05:
            return
        for got, want in zip((ode.q, ode.dq, ode.r), _hand_written_ode(family, n)):
            w = want(g)
            assert abs(got(g) - w) <= 1e-11 * (1.0 + abs(w))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=6.0),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_laguerre_matches_hand_written(self, a, n, x, y):
        fam = X1Family("laguerre", a)
        self._check(fam, n, x)
        self._check(fam, n, complex(x, y))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-0.95, max_value=5.0),
        st.floats(min_value=-0.95, max_value=5.0),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_jacobi_matches_hand_written(self, a, b, n, x, y):
        if abs(a - b) < 0.05:
            return
        fam = X1Family("jacobi", a, b)
        self._check(fam, n, x)
        self._check(fam, n, complex(x, y))

    def test_arrays_evaluate_elementwise(self, jacobi_family):
        ode = x1_ode_coefficients(jacobi_family, 3)
        g = np.array([-0.6, -0.1, 0.3, 0.8])
        for got, want in zip((ode.q, ode.dq, ode.r), _hand_written_ode(jacobi_family, 3)):
            np.testing.assert_allclose(got(g), want(g), rtol=1e-12)


class TestWeightsAndNorms:
    def test_laguerre_weight_positive_and_singular(self, laguerre_family):
        w = x1_weight(laguerre_family)
        xs = np.linspace(0.1, 20.0, 50)
        assert np.all(w(xs) > 0.0)
        with pytest.raises(SingularityError):
            w(-2.0)

    def test_jacobi_weight_pole_inside_for_mixed_signs(self):
        fam = X1Family("jacobi", -0.5, 1.5)
        w = x1_weight(fam)
        pole = (fam.a + fam.b) / (fam.b - fam.a)  # 0.5, inside (-1, 1)
        assert -1.0 < pole < 1.0
        with pytest.raises(SingularityError):
            w(pole)
        assert w(0.9) > 0.0

    def test_norm_formula_small_integers(self):
        # (a + n) gamma(a + n - 1) / (n - 1)! at a = 2 gives (n + 2) n!
        assert [x1_laguerre_norm(n, 2.0) for n in range(1, 6)] == [
            pytest.approx(v, rel=1e-13) for v in (3.0, 8.0, 15.0, 24.0, 35.0)
        ]

    def test_norm_formula_half_integer_index(self):
        # frozen from 50-digit numeric integration of W Lhat_n^2 on (0, inf)
        want = {
            1: 2.6586807763582740409,
            2: 2.2155673136318950341,
            3: 2.3263456793134897858,
        }
        for n, v in want.items():
            assert x1_laguerre_norm(n, 0.5) == pytest.approx(v, rel=1e-12)

    def test_norm_matches_direct_integral(self):
        mp = pytest.importorskip("mpmath")
        a, n = 0.75, 3
        fam = X1Family("laguerre", a)
        p = x1_polynomial(fam, n)

        def integrand(x):
            x = float(x)
            return math.exp(-x) * x**a / (x + a) ** 2 * p(x) ** 2

        val = float(mp.quad(integrand, [0, 1, 10, mp.inf]))
        assert x1_laguerre_norm(n, a) == pytest.approx(val, rel=1e-10)

    def test_norm_rejects_bad_arguments(self):
        with pytest.raises(ArgumentError):
            x1_laguerre_norm(0, 2.0)
        with pytest.raises(ArgumentError):
            x1_laguerre_norm(1, -1.0)

    @pytest.mark.parametrize("a, b", [
        (1.75, 3.0), (3.0, 0.25), (-0.5, -0.25), (-0.25, -0.75),
    ], ids=["reference", "a-above-b", "negative", "a-plus-b-minus-one"])
    def test_jacobi_norm_matches_direct_integral(self, a, b):
        # u = -1 + v^4 and u = 1 - v^4 take the endpoint powers, which
        # are singular for negative indices, out of the integrand
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in range(1, 7):
                c = [mp.mpf(x) for x in reversed(x1_polynomial(X1Family("jacobi", a, b), n).coeffs)]

                def weighted(u, left, right):
                    return left**a * right**b / (a + b - (b - a) * u) ** 2 * mp.polyval(c, u) ** 2

                val = mp.quad(lambda v: 4 * v**3 * weighted(-1 + v**4, 2 - v**4, v**4), [0, 1])
                val += mp.quad(lambda v: 4 * v**3 * weighted(1 - v**4, v**4, 2 - v**4), [0, 1])
                assert x1_jacobi_norm(n, a, b) == pytest.approx(float(val), rel=1e-14), n

    @pytest.mark.parametrize("n, a, b", [
        (0, 1.75, 3.0), (1, 1.75, 1.75), (1, -0.25, 1.0), (1, 0.0, 1.0), (1, -1.0, -0.5),
    ])
    def test_jacobi_norm_rejects_bad_arguments(self, n, a, b):
        with pytest.raises(ArgumentError):
            x1_jacobi_norm(n, a, b)

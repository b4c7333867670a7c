import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xspectra import numerics
from xspectra import (
    ArgumentError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    FactorizationError,
    SingularityError,
    TridiagonalOperator,
    X1Family,
    discretize,
    eigen_near_shift,
    finite_quadrature,
    gram_matrix,
    integrate,
    lowest_eigenvalues,
    schrodinger_residual,
    semi_infinite_algebraic_quadrature,
    semi_infinite_exp_quadrature,
    tridiagonal_from_potential,
    x1_laguerre_norm,
    x1_polynomial,
    x1_weight,
)


class TestQuadrature:
    def test_finite_rule_shape(self):
        q = finite_quadrature(-2.0, 3.0)
        assert np.all(q.weights > 0.0)

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=9))
    def test_polynomials_integrate_exactly(self, coeffs):
        # Gauss-Legendre with panels is exact for these degrees
        q = finite_quadrature(0.0, 2.0)
        val = integrate(lambda x: np.polyval(coeffs, x), q)
        anti = np.polyint(np.array(coeffs))
        want = np.polyval(anti, 2.0) - np.polyval(anti, 0.0)
        assert val == pytest.approx(want, rel=1e-11, abs=1e-9)

    def test_unit_exponential_both_maps(self):
        for q in (semi_infinite_exp_quadrature(), semi_infinite_algebraic_quadrature()):
            assert integrate(lambda x: np.exp(-x), q) == pytest.approx(1.0, rel=1e-11)

    def test_moments_of_exponential(self):
        q = semi_infinite_exp_quadrature()
        for m in (1, 2, 5):
            val = integrate(lambda x, m=m: x**m * np.exp(-x), q)
            assert val == pytest.approx(math.factorial(m), rel=1e-10)

    def test_divergent_integrand_does_not_converge(self):
        q = finite_quadrature(0.0, 1.0)
        with pytest.raises(ConvergenceError):
            integrate(lambda x: 1.0 / (1.0 - x), q)

    def test_nonfinite_integrand_is_reported(self):
        q = finite_quadrature(0.0, 1.0)

        def bad(x):
            out = np.asarray(x, dtype=float).copy()
            out[np.abs(out - 0.5) < 0.2] = np.nan
            return out

        with pytest.raises(EvaluationError):
            integrate(bad, q)

    def test_stacked_rows_match_scalar_integrals(self):
        q = semi_infinite_exp_quadrature()
        rows = [
            lambda x: np.exp(-x),
            lambda x: x**3 * np.exp(-x),
            lambda x: np.sqrt(x) * np.exp(-2.0 * x) / (x + 0.5) ** 2,
            lambda x: np.sin(x) * np.exp(-x),
        ]
        stacked = integrate(lambda x: np.array([f(x) for f in rows]), q)
        scalars = np.array([integrate(f, q) for f in rows])
        assert stacked.shape == (len(rows),)
        assert np.all(np.abs(stacked - scalars) <= 1e-10 * np.abs(scalars))

    def test_single_row_keeps_scalar_bits(self):
        q = finite_quadrature(-1.0, 2.0)

        def f(x):
            return np.power(1.0 + x, 1.5) * np.exp(x)

        assert integrate(lambda x: f(x)[None, :], q)[0] == integrate(f, q)

    def test_nonfinite_row_names_its_x(self):
        q = finite_quadrature(0.0, 1.0)

        def rows(x):
            bad = np.where(np.abs(x - 0.7) < 0.01, np.nan, x)
            return np.array([x, bad, 1.0 - x])

        with pytest.raises(EvaluationError) as info:
            integrate(rows, q)
        at = float(str(info.value).rsplit("x = ", 1)[1])
        assert abs(at - 0.7) < 0.01


def _gram_reference(family, nmax, q):
    """One scalar integral per entry, the way the Gram matrix was first
    assembled."""
    weight = x1_weight(family)
    members = [x1_polynomial(family, n) for n in range(1, nmax + 1)]
    g = np.zeros((nmax, nmax))
    for i in range(nmax):
        for j in range(i, nmax):
            val = integrate(lambda x: weight(x) * members[i](x) * members[j](x), q)
            g[i, j] = g[j, i] = float(val)
    return g


def _worst_offdiag_ratio(g):
    ratio = 0.0
    for i in range(len(g)):
        for j in range(len(g)):
            if i != j:
                ratio = max(ratio, abs(g[i, j]) / math.sqrt(g[i, i] * g[j, j]))
    return ratio


class TestGram:
    @pytest.mark.parametrize(
        "family, nmax, quadrature",
        [
            (X1Family("laguerre", a), 6, make)
            for a in (0.5, 2.0)
            for make in (semi_infinite_exp_quadrature, semi_infinite_algebraic_quadrature)
        ]
        + [(X1Family("jacobi", 1.75, 3.0), 4, lambda: finite_quadrature(-1.0, 1.0))],
    )
    def test_matches_per_entry_reference(self, family, nmax, quadrature):
        g, ratio = gram_matrix(family, nmax, quadrature())
        want = _gram_reference(family, nmax, quadrature())
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.diag(want))
        np.testing.assert_array_equal(g, g.T)
        assert ratio == _worst_offdiag_ratio(g)

    def test_diagonal_matches_norms(self):
        fam = X1Family("laguerre", 2.0)
        gram, ratio = gram_matrix(fam, 3, semi_infinite_exp_quadrature())
        want = [x1_laguerre_norm(n, 2.0) for n in (1, 2, 3)]
        np.testing.assert_allclose(np.diag(gram), want, rtol=1e-9)
        assert ratio <= 1e-9

    def test_maps_agree(self):
        fam = X1Family("laguerre", 0.5)
        g1, _ = gram_matrix(fam, 6, semi_infinite_exp_quadrature())
        g2, _ = gram_matrix(fam, 6, semi_infinite_algebraic_quadrature())
        assert np.max(np.abs(g1 - g2)) <= 1e-9 * np.max(np.diag(g1))

    def test_jacobi_gram_is_diagonal(self):
        fam = X1Family("jacobi", 1.75, 3.0)
        _, ratio = gram_matrix(fam, 4, finite_quadrature(-1.0, 1.0))
        assert ratio <= 1e-10


class TestDiscretization:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal(6)
        e = rng.standard_normal(5)
        t = TridiagonalOperator(d, e)
        v = rng.standard_normal(6)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        np.testing.assert_allclose(t.matvec(v), dense @ v, rtol=1e-13)

    def test_particle_in_a_box(self):
        t = tridiagonal_from_potential(None, 0.0, math.pi, 1500)
        ev = lowest_eigenvalues(t, 3)
        np.testing.assert_allclose(ev, [1.0, 4.0, 9.0], rtol=1e-4)

    def test_harmonic_oscillator(self):
        t = tridiagonal_from_potential(lambda x: x * x, -10.0, 10.0, 2000)
        ev = lowest_eigenvalues(t, 3)
        np.testing.assert_allclose(ev, [1.0, 3.0, 5.0], rtol=1e-4)

    def test_needs_enough_points(self):
        with pytest.raises(ArgumentError):
            tridiagonal_from_potential(None, 0.0, 1.0, 10)

    def test_complex_diagonal_rejected_by_sturm(self):
        d = np.array([2.0 + 3.0j, 5.0, 7.0, 9.0])
        t = TridiagonalOperator(d, np.zeros(3))
        with pytest.raises(TypeError):
            lowest_eigenvalues(t, 2)

    def test_pole_inside_interval_is_rejected(self, radial_hermitian, scarf_hermitian):
        with pytest.raises(SingularityError):
            discretize(radial_hermitian, -1.0, 5.0, 500)
        half = 0.5 * math.pi / scarf_hermitian.k
        with pytest.raises(SingularityError):
            discretize(scarf_hermitian, -half, 3.0 * half, 500)

    def test_endpoint_pole_is_allowed(self, radial_hermitian):
        op = discretize(radial_hermitian, 0.0, 10.0, 500)
        assert op.size == 500


@st.composite
def symmetric_tridiagonals(draw):
    """Small symmetric tridiagonals on a 0.01 grid in [-10, 10], with
    optional repeated diagonals and zeroed off-diagonal entries."""
    n = draw(st.integers(min_value=1, max_value=60))
    entry = st.integers(min_value=-1000, max_value=1000).map(lambda k: k / 100.0)
    if draw(st.booleans()):
        d = np.full(n, draw(entry))
    else:
        d = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    e = np.array(draw(st.lists(entry, min_size=n - 1, max_size=n - 1)))
    if n > 1:
        e[np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))] = 0.0
    m = draw(st.integers(min_value=1, max_value=n))
    return TridiagonalOperator(d, e), m


def _reference_sturm_counts(d, e2, pivmin, sigmas):
    """The counting recurrence with a fresh array per row: pivots with
    |q| < pivmin become -pivmin, then the negative pivots are counted."""
    q = d[0] - sigmas
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    cnt = (q < 0.0).astype(int)
    for i in range(1, len(d)):
        q = (d[i] - sigmas) - e2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        cnt += q < 0.0
    return cnt


@st.composite
def _sturm_count_cases(draw):
    """Tridiagonals on a 1/64 grid with some zero off-diagonals, a
    power-of-two pivmin, and probes that sit on diagonal entries or
    exactly 0, 1/2, 1 or 2 pivmin away from them, so pivots of exactly
    0, +-pivmin and in between occur; plus NaN, +-inf and free probes."""
    n = draw(st.integers(min_value=1, max_value=30))
    entry = st.integers(min_value=-640, max_value=640).map(lambda k: k / 64.0)
    d = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    e = np.array(draw(st.lists(entry, min_size=n - 1, max_size=n - 1)))
    if n > 1:
        e[np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))] = 0.0
    pivmin = draw(st.sampled_from([2.0**-10, 2.0**-6, 2.0**-2, 1e-290]))
    on_diagonal = st.builds(
        lambda di, k: di + k * pivmin,
        st.sampled_from(d.tolist()),
        st.sampled_from([0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0]),
    )
    special = st.sampled_from([math.nan, math.inf, -math.inf])
    sigmas = draw(st.lists(st.one_of(on_diagonal, entry, special), min_size=1, max_size=40))
    return d, e * e, pivmin, np.array(sigmas)


class TestSturmCounts:
    @settings(max_examples=300, deadline=None)
    @given(_sturm_count_cases())
    def test_matches_reference_recurrence(self, case):
        d, e2, pivmin, sigmas = case
        got = numerics._sturm_counts(d, e2, pivmin, sigmas)
        assert np.array_equal(got, _reference_sturm_counts(d, e2, pivmin, sigmas))


class TestLowestEigenvalues:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_tridiagonals())
    def test_matches_dense_solver(self, case):
        t, m = case
        dense = np.diag(t.diagonal) + np.diag(t.off_diagonal, 1) + np.diag(t.off_diagonal, -1)
        want = np.linalg.eigvalsh(dense)[:m]
        got = lowest_eigenvalues(t, m)
        # both solvers are backward stable to O(n eps ||T||)
        assert np.all(np.abs(got - want) <= 8.0 * t.size * np.finfo(float).eps * t.scale)

    def test_spectra_suite_operators_match_stebz(self, radial_hermitian, scarf_hermitian):
        linalg = pytest.importorskip("scipy.linalg")
        half = 0.5 * math.pi / scarf_hermitian.k
        for model, lo, hi in ((radial_hermitian, 1e-8, 12.0), (scarf_hermitian, -half, half)):
            for npts in (2000, 4000):
                t = discretize(model, lo, hi, npts)
                want = linalg.eigvalsh_tridiagonal(
                    t.diagonal, t.off_diagonal, select="i", select_range=(0, 3),
                    lapack_driver="stebz", tol=1e-300,
                )
                got = lowest_eigenvalues(t, 4)
                # absolute in ||T||: both stop at relative widths, but
                # the Sturm counts themselves are only that accurate
                assert np.max(np.abs(got - want)) <= 8.0 * np.finfo(float).eps * t.scale

    def test_spectra_suite_operators_take_eight_sweeps(
        self, monkeypatch, radial_hermitian, scarf_hermitian
    ):
        # one count per sweep; the geometric first sweep isolates the four
        # lowest levels, which evenly spaced probes take 3 sweeps to do
        calls = []
        counts = numerics._sturm_counts

        def counted(*args):
            calls.append(1)
            return counts(*args)

        monkeypatch.setattr(numerics, "_sturm_counts", counted)
        half = 0.5 * math.pi / scarf_hermitian.k
        for model, lo, hi in ((radial_hermitian, 1e-8, 12.0), (scarf_hermitian, -half, half)):
            for npts in (2000, 4000):
                calls.clear()
                lowest_eigenvalues(discretize(model, lo, hi, npts), 4)
                assert len(calls) <= 8

    def test_whole_spectrum_at_the_top_of_the_bracket(self):
        # every eigenvalue but one sits in the top part of the first
        # sweep's geometric probes, the widest, which gains fewest bits
        n = 40
        d = np.full(n, 10.0)
        d[0] = -10.0
        e = 1e-3 * np.cos(np.arange(n - 1))
        t = TridiagonalOperator(d, e)
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        got = lowest_eigenvalues(t, n)
        assert np.all(np.abs(got - want) <= 8.0 * n * np.finfo(float).eps * t.scale)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entries_are_rejected(self, bad):
        for diagonal in (True, False):
            d = np.array([1.0, 2.0, 3.0, 4.0])
            e = np.array([0.5, 0.5, 0.5])
            (d if diagonal else e)[1] = bad
            t = TridiagonalOperator(d, e)
            with pytest.raises(ArgumentError):
                lowest_eigenvalues(t, 2)

    @pytest.mark.parametrize("s", [1e-270, 1e-295])
    def test_tiny_norm_operator(self, s):
        # unscaled, e*e underflows at 1e-270 and the pivmin floor
        # swamps the counts at 1e-295
        d = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.array([0.5, 0.5, 0.5])
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[:2]
        t = TridiagonalOperator(s * d, s * e)
        got = lowest_eigenvalues(t, 2) / s
        assert np.all(np.abs(got - want) <= 32.0 * np.finfo(float).eps * np.max(d))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_bracket_is_rejected(self):
        # finite entries whose squares overflow leave no finite start bracket
        t = TridiagonalOperator(np.ones(3), np.full(2, 1e200))
        with pytest.raises(ArgumentError):
            lowest_eigenvalues(t, 1)

    def test_sweep_cap_raises(self, monkeypatch):
        t = tridiagonal_from_potential(None, 0.0, math.pi, 200)
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError):
            lowest_eigenvalues(t, 3)


@st.composite
def _tridiagonal_systems(draw):
    """Complex tridiagonal systems of size 1-60.  Each row's flag puts its
    subdiagonal entry 2^6 above or below the diagonal scale, so rows take
    both pivot branches; the values come from a drawn numpy seed."""
    n = draw(st.integers(min_value=1, max_value=60))
    swap_favoured = np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def entries(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z * np.exp2(rng.integers(-3, 4, size))

    d, du, rhs = entries(n), entries(n - 1), entries(n)
    dl = entries(n - 1) * np.where(swap_favoured, 2.0**6, 2.0**-6)
    sigma = draw(st.sampled_from([0.0, 0.5 + 0.25j]))
    return dl, d, du, sigma, rhs


class TestTridiagonalLU:
    @settings(max_examples=300, deadline=None)
    @given(_tridiagonal_systems())
    def test_matches_dense_solve(self, system):
        dl, d, du, sigma, rhs = system
        n = len(d)
        a = np.diag(d - sigma) + np.diag(dl, -1) + np.diag(du, 1)
        y = numerics._tri_lu_solve(numerics._tri_lu_factor(dl, d, du, sigma), rhs)
        assert isinstance(y, np.ndarray) and y.dtype == complex
        eps = np.finfo(float).eps
        norm_a = np.linalg.norm(a, 2)
        # backward stable: the residual is a few ulps of |A| |y| (worst of
        # 20000 draws: 1.1 n eps); the forward error follows from cond(A)
        assert np.linalg.norm(a @ y - rhs) <= 8.0 * n * eps * norm_a * np.linalg.norm(y)
        cond = np.linalg.cond(a)
        if cond < 1e8:
            ref = np.linalg.solve(a, rhs)
            assert np.linalg.norm(y - ref) <= 16.0 * n * eps * cond * np.linalg.norm(ref)

    def test_both_pivot_branches_agree_with_dense_solve(self):
        # rows 0 and 2 keep their pivot, rows 1 and 3 swap
        d = np.array([4.0, 0.01j, 3.0, 0.02, 5.0 - 1.0j])
        dl = np.array([1.0, 2.0 + 1.0j, 0.5, 3.0])
        du = np.array([1.0j, 0.5, 2.0, -1.0])
        rhs = np.array([1.0, 2.0j, -1.0, 0.5, 3.0])
        factors = numerics._tri_lu_factor(dl, d, du, 0.0)
        assert factors[1] == [False, True, False, True]
        a = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        y = numerics._tri_lu_solve(factors, rhs)
        assert np.allclose(y, np.linalg.solve(a, rhs), rtol=1e-14, atol=0.0)

    def test_zero_first_pivot(self):
        # row 0 is decoupled, so sigma = 1 leaves a zero pivot and a zero
        # subdiagonal below it
        d = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.array([0.0, 1.0, 1.0])
        with pytest.raises(FactorizationError):
            numerics._tri_lu_factor(e, d, e, 1.0)
        t = TridiagonalOperator(d, e)
        res = eigen_near_shift(t, 1.0)
        assert res.shift_retries == 1
        assert res.converged
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-10)


class TestEigenNearShift:
    def test_diagonal_complex_operator(self):
        d = np.array([2.0 + 3.0j, 5.0 - 1.0j, 7.0, 11.0 + 0.5j])
        t = TridiagonalOperator(d, np.zeros(3))
        res = eigen_near_shift(t, 2.2 + 2.8j)
        assert res.converged
        assert res.shift_retries == 0
        assert res.eigenvalue == pytest.approx(2.0 + 3.0j, abs=1e-10)

    def test_agrees_with_sturm_bisection(self, radial_hermitian):
        op = discretize(radial_hermitian, 1e-8, 12.0, 1200)
        sturm = lowest_eigenvalues(op, 1)[0]
        near = eigen_near_shift(op, sturm + 0.05)
        assert near.converged
        assert abs(near.eigenvalue - sturm) <= 1e-8 * abs(sturm)
        assert abs(near.eigenvalue.imag) <= 1e-10

    def test_iteration_budget_is_respected(self, radial_figure):
        op = discretize(radial_figure, -12.0, 12.0, 400)
        res = eigen_near_shift(op, 4.9 + 0.3j, iters=1)
        assert res.iterations == 1

    def test_rejects_zero_iterations(self, radial_figure):
        op = discretize(radial_figure, -12.0, 12.0, 400)
        with pytest.raises(ArgumentError):
            eigen_near_shift(op, 1.0, iters=0)

    @pytest.mark.parametrize(
        "sigma", [complex(math.nan, 0.3), complex(4.9, math.inf), math.nan]
    )
    def test_rejects_non_finite_shift(self, radial_figure, sigma):
        op = discretize(radial_figure, -12.0, 12.0, 400)
        with pytest.raises(ArgumentError):
            eigen_near_shift(op, sigma)

    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    def test_rejects_non_finite_entries(self, where):
        d = np.array([1.0, 2.0, 3.0], dtype=complex)
        e = np.array([0.5, 0.5])
        if where == "diagonal":
            d[1] = complex(0.0, math.nan)
        else:
            e[0] = math.inf
        t = TridiagonalOperator(d, e)
        with pytest.raises(ArgumentError):
            eigen_near_shift(t, 1.0 + 0.1j)


class TestSchrodingerResidual:
    def test_small_for_true_eigenpairs(self, radial_hermitian, scarf_hermitian):
        xs = np.linspace(0.4, 6.0, 20)
        assert schrodinger_residual(radial_hermitian, 1, xs) <= 1e-6
        half = 0.5 * math.pi / scarf_hermitian.k
        xs = np.linspace(-0.9 * half, 0.9 * half, 20)
        assert schrodinger_residual(scarf_hermitian, 2, xs) <= 1e-6

    def test_grid_touching_the_domain_edge_raises(self, radial_hermitian):
        # the offset stencil crosses x = 0
        with pytest.raises(DomainError):
            schrodinger_residual(radial_hermitian, 1, np.array([1e-5, 1.0]))

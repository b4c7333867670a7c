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


class TestGram:
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
        t = TridiagonalOperator(d, e, 0.1, np.arange(6, dtype=float))
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
        t = TridiagonalOperator(d, np.zeros(3), 1.0, np.arange(4, dtype=float))
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
    return TridiagonalOperator(d, e, 1.0, np.arange(n, dtype=float)), m


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entries_are_rejected(self, bad):
        for diagonal in (True, False):
            d = np.array([1.0, 2.0, 3.0, 4.0])
            e = np.array([0.5, 0.5, 0.5])
            (d if diagonal else e)[1] = bad
            t = TridiagonalOperator(d, e, 1.0, np.arange(4, dtype=float))
            with pytest.raises(ArgumentError):
                lowest_eigenvalues(t, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_bracket_is_rejected(self):
        # finite entries whose squares overflow leave no finite start bracket
        t = TridiagonalOperator(np.ones(3), np.full(2, 1e200), 1.0, np.arange(3, dtype=float))
        with pytest.raises(ArgumentError):
            lowest_eigenvalues(t, 1)

    def test_sweep_cap_raises(self, monkeypatch):
        t = tridiagonal_from_potential(None, 0.0, math.pi, 200)
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError):
            lowest_eigenvalues(t, 3)


class TestEigenNearShift:
    def test_diagonal_complex_operator(self):
        d = np.array([2.0 + 3.0j, 5.0 - 1.0j, 7.0, 11.0 + 0.5j])
        t = TridiagonalOperator(d, np.zeros(3), 1.0, np.arange(4, dtype=float))
        res = eigen_near_shift(t, 2.2 + 2.8j)
        assert res.converged
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

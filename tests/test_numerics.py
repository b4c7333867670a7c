import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xspectra import cli, models, numerics, polycore
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
    x1_laguerre_norm,
    x1_polynomial,
    x1_weight,
)


class TestQuadrature:
    def test_finite_rule_shape(self):
        q = finite_quadrature(-2.0, 3.0)
        assert (q.domain_map, q.lo, q.hi) == ("finite", -2.0, 3.0)
        assert np.all(polycore._WEIGHTS > 0.0)

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

    @pytest.mark.parametrize("infinite_start", [False, True])
    def test_one_part_mesh_is_the_graded_points(self, infinite_start):
        # at refinement 0 each cell is one part, x + 0 * (next - x) = x
        depth = polycore._GRADE_LEVELS
        pts = np.array(
            [0.0]
            + [2.0 ** -j for j in range(depth, 0, -1)]
            + [1.0 - 2.0 ** -j for j in range(2, depth + 1)]
            + [1.0]
        )
        edges = polycore._unit_edges(0, infinite_start)
        assert edges.dtype == pts.dtype and edges.tobytes() == pts.tobytes()

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

    @pytest.mark.parametrize("nmax", [9, 12])
    def test_high_degree_diagonal_matches_norms(self, nmax):
        # the exp map puts infinity at t -> 0, where the panel grading
        # deepens without a cap; with infinity at t -> 1 these raised
        # ConvergenceError, the tail beyond x = 55 sitting in one cell
        fam = X1Family("laguerre", 5.0)
        for quadrature in (semi_infinite_exp_quadrature, semi_infinite_algebraic_quadrature):
            gram, ratio = gram_matrix(fam, nmax, quadrature())
            want = np.array([x1_laguerre_norm(n, 5.0) for n in range(1, nmax + 1)])
            assert np.max(np.abs(np.diag(gram) - want) / want) <= 1e-11
            assert ratio <= 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_members_under_an_underflowed_weight(self):
        # near x = 3e19 the degree-18 Horner sums overflow to inf where
        # the weight has underflowed to 0; their product was NaN and
        # the integral refused
        fam = X1Family("laguerre", 2.0)
        gram, ratio = gram_matrix(fam, 18, semi_infinite_algebraic_quadrature())
        want = np.array([x1_laguerre_norm(n, 2.0) for n in range(1, 19)])
        assert np.max(np.abs(np.diag(gram) - want) / want) <= 1e-9
        assert ratio <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_under_a_nonzero_weight_is_refused(self, monkeypatch):
        # only a zero weight zeroes a member: under the weight 1 a member
        # that has overflowed to inf must still reach the integral's
        # finiteness check
        monkeypatch.setattr(numerics, "x1_weight", lambda family: np.ones_like)
        monkeypatch.setattr(
            numerics, "x1_polynomial",
            lambda family, n: lambda x: np.where(x > 0.5, np.inf, 1.0),
        )
        with pytest.raises(EvaluationError, match="integrand not finite at x = 0.5"):
            gram_matrix(X1Family("laguerre", 2.0), 2, finite_quadrature(0.0, 1.0))

    def test_maps_agree(self):
        fam = X1Family("laguerre", 0.5)
        g1, _ = gram_matrix(fam, 6, semi_infinite_exp_quadrature())
        g2, _ = gram_matrix(fam, 6, semi_infinite_algebraic_quadrature())
        assert np.max(np.abs(g1 - g2)) <= 1e-9 * np.max(np.diag(g1))

    def test_jacobi_gram_is_diagonal(self):
        fam = X1Family("jacobi", 1.75, 3.0)
        _, ratio = gram_matrix(fam, 4, finite_quadrature(-1.0, 1.0))
        assert ratio <= 1e-10


def _stencil(v, lo, hi, n):
    """The Dirichlet stencil of -psi'' + v psi written out: h = (hi - lo) /
    (n + 1), x_i = lo + i h, diagonal 2/h^2 + v(x_i), off-diagonal -1/h^2."""
    h = (hi - lo) / (n + 1)
    d = 2.0 / (h * h) + v(np.array([lo + i * h for i in range(1, n + 1)]))
    return TridiagonalOperator(d, np.full(n - 1, -1.0 / (h * h), dtype=d.dtype))


class TestDiscretization:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal(6)
        e = rng.standard_normal(5)
        t = TridiagonalOperator(d, e)
        v = rng.standard_normal(6)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        np.testing.assert_allclose(t.matvec(v), dense @ v, rtol=1e-13)

    @pytest.mark.parametrize("d, e", [
        (np.array([]), np.array([])),
        (np.ones(2), np.ones(2)),
        (np.ones(3), np.ones(1)),
        (np.ones((2, 2)), np.ones(1)),
        (np.float64(1.0), np.array([])),
    ], ids=["empty", "long-off-diagonal", "short-off-diagonal", "2d-diagonal", "0d-diagonal"])
    def test_shape_is_checked_at_construction(self, d, e):
        # an empty operator reached the complex LU and raised a bare
        # IndexError; a 2-entry off-diagonal beside a 2-entry diagonal
        # broke matvec's broadcast, while the Sturm counts ignored the
        # extra entry and returned a level
        with pytest.raises(ArgumentError, match="off-diagonal one shorter"):
            TridiagonalOperator(d, e)

    def test_particle_in_a_box(self):
        t = _stencil(np.zeros_like, 0.0, math.pi, 1500)
        ev = lowest_eigenvalues(t, 3)
        np.testing.assert_allclose(ev, [1.0, 4.0, 9.0], rtol=1e-4)

    def test_harmonic_oscillator(self):
        t = _stencil(lambda x: x * x, -10.0, 10.0, 2000)
        ev = lowest_eigenvalues(t, 3)
        np.testing.assert_allclose(ev, [1.0, 3.0, 5.0], rtol=1e-4)

    @pytest.mark.parametrize("m, lo, hi", [
        (models.PotentialModel("radial_extended", 2.0, k=1.75), 1e-8, 12.0),
        (models.PotentialModel("radial_extended", 2.0, k=1.75, eps=1.2), -12.0, 12.0),
        (models.PotentialModel("scarf_extended", 1.75, 3.0, k=1.25), -1.0, 1.2),
    ], ids=["radial-hermitian", "radial-shifted", "scarf-hermitian"])
    def test_is_the_stencil_bit_for_bit(self, m, lo, hi):
        t = discretize(m, lo, hi, 357)
        want = _stencil(lambda x: models.potential(m, x), lo, hi, 357)
        assert t.diagonal.dtype == t.off_diagonal.dtype == (complex if m.eps else float)
        assert t.diagonal.tobytes() == want.diagonal.tobytes()
        assert t.off_diagonal.tobytes() == want.off_diagonal.tobytes()

    def test_needs_enough_points(self, radial_hermitian):
        with pytest.raises(ArgumentError, match="at least 100 interior points"):
            discretize(radial_hermitian, 0.0, 10.0, 99)
        assert discretize(radial_hermitian, 0.0, 10.0, 100).size == 100

    @pytest.mark.parametrize(
        "model", ["radial_hermitian", "radial_figure", "scarf_hermitian", "scarf_figure"]
    )
    @pytest.mark.parametrize("lo, hi", [
        (math.nan, 1.0), (0.5, math.nan), (-math.inf, 1.0), (0.5, math.inf),
        (-math.inf, math.inf), (1.0, 0.5), (0.5, 0.5),
    ], ids=["nan-lo", "nan-hi", "minus-inf-lo", "inf-hi", "both-inf", "reversed", "empty"])
    def test_refuses_ends_that_are_not_finite_and_ordered(self, request, model, lo, hi):
        # refused before the pole search, whose ceil raised ValueError on
        # nan and OverflowError on an infinite end, and before a radial
        # grid of NaNs
        with pytest.raises(ArgumentError, match=r"need finite lo < hi"):
            discretize(request.getfixturevalue(model), lo, hi, 100)

    @pytest.mark.parametrize("model", ["radial_hermitian", "radial_figure"])
    def test_refuses_a_step_whose_square_underflows(self, request, model):
        # h = 8.9e-302, so h * h is 0.0 and 2 / h^2 raised ZeroDivisionError
        with pytest.raises(ArgumentError, match=r"grid step 8\.91089e-302 .* squares to zero"):
            discretize(request.getfixturevalue(model), 1e-300, 1e-299, 100)

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

    @pytest.mark.parametrize("m", [
        models.PotentialModel("radial_extended", 0.0, k=1.75),
        models.PotentialModel("radial_extended", -1.0, k=1.75, eps=1.2),
        models.PotentialModel("radial_extended", 1.0, k=1.75, eps=2.0),
        models.PotentialModel("scarf_extended", 2.0, 2.0, k=1.25),
        models.PotentialModel("scarf_extended", -0.75, 3.0, k=1.25),
        models.PotentialModel("scarf_extended", -0.5, -0.25, k=1.25, eps=1.0),
        models.PotentialModel("scarf_extended", -0.25, 1.0, k=1.25),
        models.PotentialModel("scarf_extended", 0.0, 1.0, k=1.25, eps=1.0),
        models.PotentialModel("scarf_extended", -0.25, -0.4, k=1.25, eps=math.acosh(0.65 / 0.15)),
        models.PotentialModel("scarf_extended", 1.0, 3.0, k=1.25, eps=math.acosh(2.0)),
    ], ids=[
        "radial-a-zero", "radial-a-negative", "radial-eps2-4a", "scarf-a-equals-b",
        "scarf-a-below-half", "scarf-a-at-half", "scarf-mixed-signs", "scarf-a-zero",
        "scarf-negative-sum-cosh", "scarf-cosh",
    ])
    def test_refused_models_raise_validate_params_lines(self, m):
        # one gate: whatever validate_params refuses, discretize and
        # wavefunction refuse with its diagnostics
        diagnostics = models.validate_params(m)
        assert diagnostics
        lo, hi = (0.05, 8.0) if m.family == "radial_extended" else (-1.2, 1.2)
        for call in (
            lambda: discretize(m, lo, hi, 100),
            lambda: models.wavefunction(m, 1, 0.3),
        ):
            with pytest.raises(DomainError) as exc_info:
                call()
            assert type(exc_info.value) is DomainError
            assert str(exc_info.value) == "; ".join(diagnostics)


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


@st.composite
def _multi_slab_cases(draw):
    """Tridiagonals of up to three slabs plus a remainder on a 1/64 grid,
    with values from a drawn numpy seed and some zero off-diagonals.
    Pivots of 0 or +-pivmin / 2 are planted in rows after the first
    slab: a zero e_{i-1} and a probe at d_i or d_i -+ pivmin / 2 give
    row i exactly that pivot.  Free, NaN and +-inf probes ride along."""
    slab = numerics._SLAB
    edges = [slab - 1, slab, slab + 1, slab + 2, 2 * slab + 1, 3 * slab + 8]
    n = draw(st.one_of(st.sampled_from(edges), st.integers(min_value=1, max_value=3 * slab + 8)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = rng.integers(-640, 641, n) / 64.0
    e = rng.integers(-640, 641, n - 1) / 64.0
    e[rng.random(n - 1) < 0.1] = 0.0
    pivmin = draw(st.sampled_from([2.0**-10, 2.0**-2, 1e-290]))
    # row 0 is the first pivot and rows 1 to slab fill the first slab
    later = list(range(slab + 1, n)) or list(range(n))
    sigmas = []
    for i in draw(st.lists(st.sampled_from(later), max_size=4)):
        if i > 0:
            e[i - 1] = 0.0
        sigmas.append(d[i] + draw(st.sampled_from([0.0, -0.5, 0.5])) * pivmin)
    sigmas += (rng.integers(-700, 701, draw(st.integers(0, 20))) / 64.0).tolist()
    sigmas += draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3))
    if not sigmas:
        sigmas.append(0.0)
    return d, e * e, pivmin, np.array(sigmas)


@st.composite
def _rising_tail_cases(draw):
    """Tridiagonals of up to four slabs plus a remainder whose diagonal
    rises linearly after a random head on a 1/64 grid, so the rows after
    some slab start s are a forbidden tail for low probes.  Probes sit at
    that start's tail threshold min d[s:] - 2 max |e[s-1:]|, one ulp or
    half a pivmin either side of it, some way below it, on diagonal
    entries, and at NaN and +-inf."""
    slab = numerics._SLAB
    n = draw(st.integers(min_value=2, max_value=4 * slab + 8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = rng.integers(-640, 641, n) / 64.0
    head = draw(st.integers(min_value=1, max_value=n))
    slope = draw(st.sampled_from([1.0 / 64.0, 0.25, 2.0]))
    d[head:] = d[head - 1] + slope * np.arange(1, n - head + 1)
    e = rng.integers(-640, 641, n - 1) / 64.0 * draw(st.sampled_from([1.0 / 64.0, 0.25, 1.0]))
    e[rng.random(n - 1) < 0.1] = 0.0
    pivmin = draw(st.sampled_from([2.0**-10, 2.0**-6, 2.0**-2, 1e-290]))
    e2 = e * e
    s = draw(st.sampled_from(range(1, n, slab)))
    edge = d[s:].min() - 2.0 * math.sqrt(e2[s - 1 :].max())
    near = st.sampled_from([
        edge,
        math.nextafter(edge, math.inf),
        math.nextafter(edge, -math.inf),
        edge + 0.5 * pivmin,
        edge - 0.5 * pivmin,
        edge - 1.0,
        edge - 16.0,
    ])
    on_diagonal = st.sampled_from(d.tolist())
    special = st.sampled_from([math.nan, math.inf, -math.inf])
    sigmas = draw(st.lists(
        st.one_of(near, near, on_diagonal, special), min_size=1, max_size=20
    ))
    return d, e2, pivmin, np.array(sigmas)


def _logged_sturm_counts(monkeypatch) -> list:
    """Patch numerics._sturm_counts to read its diagonal through an
    ndarray subclass that logs the rows of every slab it reads as
    d[start:stop, None]; returns the list of those row counts."""
    rows = []
    counts = numerics._sturm_counts

    class SlabRows(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, tuple) and len(key) == 2 and key[1] is None:
                rows.append(len(range(*key[0].indices(len(self)))))
            return np.asarray(self)[key]

    def logged(d, e2, pivmin, sigmas, e2_rows):
        return counts(d.view(SlabRows), e2, pivmin, sigmas, e2_rows)

    monkeypatch.setattr(numerics, "_sturm_counts", logged)
    return rows


def _probe_rows(monkeypatch) -> list:
    """Patch numerics._sturm_counts as _logged_sturm_counts does; returns
    the list of (probes, slab rows) of every count."""
    rows = _logged_sturm_counts(monkeypatch)
    sweeps = []
    counts = numerics._sturm_counts

    def logged(d, e2, pivmin, sigmas, e2_rows):
        before = len(rows)
        got = counts(d, e2, pivmin, sigmas, e2_rows)
        sweeps.append((len(sigmas), sum(rows[before:])))
        return got

    monkeypatch.setattr(numerics, "_sturm_counts", logged)
    return sweeps


class TestSturmCounts:
    @settings(max_examples=300, deadline=None)
    @given(_sturm_count_cases())
    def test_matches_reference_recurrence(self, case):
        d, e2, pivmin, sigmas = case
        got = numerics._sturm_counts(d, e2, pivmin, sigmas, numerics._zero_d_rows(e2))
        assert np.array_equal(got, _reference_sturm_counts(d, e2, pivmin, sigmas))

    @settings(max_examples=300, deadline=None)
    @given(_multi_slab_cases())
    def test_matches_reference_across_slabs(self, case):
        d, e2, pivmin, sigmas = case
        got = numerics._sturm_counts(d, e2, pivmin, sigmas, numerics._zero_d_rows(e2))
        assert np.array_equal(got, _reference_sturm_counts(d, e2, pivmin, sigmas))

    def test_redone_slab_raises_no_floating_point_error(self, monkeypatch):
        # a zero pivot in the second slab makes the next row divide by
        # zero, and one in the third, with a zero e_j too, forms 0 / 0;
        # both slabs are redone and nothing reaches the caller's errstate
        calls = []
        guarded = numerics._guarded_sturm_rows

        def counted(*args):
            calls.append(1)
            return guarded(*args)

        monkeypatch.setattr(numerics, "_guarded_sturm_rows", counted)
        slab = numerics._SLAB
        n = 3 * slab + 8
        rng = np.random.default_rng(7)
        d = rng.integers(-640, 641, n) / 64.0
        e = rng.integers(1, 641, n - 1) / 64.0
        i, j = slab + 10, 2 * slab + 5
        e[i - 1] = 0.0
        e[j - 1] = e[j] = 0.0
        e2, pivmin = e * e, 2.0**-10
        sigmas = np.array([d[i], d[j], 0.3, -2.0, 11.0])
        with np.errstate(all="raise"):
            got = numerics._sturm_counts(d, e2, pivmin, sigmas, numerics._zero_d_rows(e2))
        assert np.array_equal(got, _reference_sturm_counts(d, e2, pivmin, sigmas))
        assert len(calls) >= 2

    @settings(max_examples=300, deadline=None)
    @given(_rising_tail_cases())
    def test_tail_exit_matches_reference(self, case):
        d, e2, pivmin, sigmas = case
        got = numerics._sturm_counts(d, e2, pivmin, sigmas, numerics._zero_d_rows(e2))
        assert np.array_equal(got, _reference_sturm_counts(d, e2, pivmin, sigmas))

    def test_tail_exit_never_fires_below_the_discriminant(self, monkeypatch):
        # the discrete Laplacian d = 2, e = -1 has D = 2 - max sigma < 2,
        # so D^2 < 4 E2 at every slab start although every pivot is
        # positive there; the probe between lambda_1 and lambda_2 meets
        # its one negative pivot only in the last rows
        rows = _logged_sturm_counts(monkeypatch)
        n = 5 * numerics._SLAB + 9
        d, e2 = np.full(n, 2.0), np.ones(n - 1)
        lam1 = 2.0 - 2.0 * math.cos(math.pi / (n + 1))
        sigmas = np.array([0.5 * lam1, 1.5 * lam1])
        got = numerics._sturm_counts(d, e2, 2.0**-10, sigmas, numerics._zero_d_rows(e2))
        assert got.tolist() == [0, 1]
        assert np.array_equal(got, _reference_sturm_counts(d, e2, 2.0**-10, sigmas))
        assert sum(rows) == n - 1

    @pytest.mark.parametrize("tail, count, slabs", [(2.625, 1, 2)])
    def test_tail_exit_needs_the_float_test(self, monkeypatch, tail, count, slabs):
        # the first slab ends on a pivot of exactly the computed smaller
        # fixed point p of x = tail - 1 / x, about 0.46.  From slab start
        # 1 on, D = p and E2 = 1, so the floor sqrt(E2) = 1 fails the
        # float test and the count may not stop, though every pivot of
        # the first row is 5.  At the second slab start the floor passes
        # the test, but the pivot p is below it: fl(D - fl(1 / p)) falls
        # just below p, the pivots leave the repelling fixed point
        # downwards and one turns negative.  The third slab starts from
        # pivots near the larger fixed point, over the floor, so it is
        # not counted
        rows = _logged_sturm_counts(monkeypatch)
        slab = numerics._SLAB
        n = 3 * slab + 1
        floor = 1.0 / (0.5 * tail + math.sqrt(0.25 * tail * tail - 1.0))
        d = np.full(n, 5.0)
        d[slab] = floor
        d[slab + 1 :] = tail
        e2 = np.ones(n - 1)
        e2[slab - 1] = 0.0
        sigmas = np.array([0.0])
        got = numerics._sturm_counts(d, e2, 2.0**-10, sigmas, numerics._zero_d_rows(e2))
        assert got.tolist() == [count]
        assert np.array_equal(got, _reference_sturm_counts(d, e2, 2.0**-10, sigmas))
        assert rows == [slab] * slabs

    def test_tail_exit_fires_on_a_forbidden_tail(self, monkeypatch):
        # a steep ramp from the second slab on: the pivots of the two
        # probes that meet negative pivots in the first slab recover in
        # the second, and the count stops at the third
        rows = _logged_sturm_counts(monkeypatch)
        slab = numerics._SLAB
        n = 4 * slab + 1
        d = np.where(np.arange(n) <= slab, 1.0, 100.0 + np.arange(n))
        e2 = np.full(n - 1, 0.25)
        sigmas = np.array([-math.inf, -3.0, 0.5, 0.9])
        got = numerics._sturm_counts(d, e2, 1e-290, sigmas, numerics._zero_d_rows(e2))
        assert np.array_equal(got, _reference_sturm_counts(d, e2, 1e-290, sigmas))
        assert rows == [slab, slab]


def _spectra_suite_operators(radial_hermitian, scarf_hermitian):
    """Four grid operators on the intervals of `spectrum`: radial, then
    Scarf, each at 2000 points and at `spectrum`'s default 4000."""
    half = 0.5 * math.pi / scarf_hermitian.k
    for model, lo, hi in ((radial_hermitian, 1e-8, 12.0), (scarf_hermitian, -half, half)):
        for npts in (2000, 4000):
            yield discretize(model, lo, hi, npts)


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

    def test_spectra_suite_operators_redo_no_slab(
        self, monkeypatch, radial_hermitian, scarf_hermitian
    ):
        # every slab of these counts takes the unguarded two-ufunc rows;
        # a redo per slab would bring back the slower guarded loop
        calls = []
        guarded = numerics._guarded_sturm_rows

        def counted(*args):
            calls.append(1)
            return guarded(*args)

        monkeypatch.setattr(numerics, "_guarded_sturm_rows", counted)
        half = 0.5 * math.pi / scarf_hermitian.k
        for model, lo, hi in ((radial_hermitian, 1e-8, 12.0), (scarf_hermitian, -half, half)):
            for npts in (2000, 4000):
                lowest_eigenvalues(discretize(model, lo, hi, npts), 4)
        assert calls == []

    def test_spectra_suite_operators_stop_at_the_absolute_floor(
        self, monkeypatch, radial_hermitian, scarf_hermitian
    ):
        # brackets close at eps max(|gl|, |gu|) instead of 4 eps |lambda|,
        # sweep 0 counts its 127 probes once, not once per bracket, and
        # later sweeps count 63 per bracket, a 252-probe share of the
        # budget.  The sweeps' probe-rows (slab rows times probes) are
        # the work: 25712547 with 127 probes per bracket in every sweep.
        sweeps = _probe_rows(monkeypatch)
        per_operator, work = [], 0
        for t in _spectra_suite_operators(radial_hermitian, scarf_hermitian):
            sweeps.clear()
            lowest_eigenvalues(t, 4)
            per_operator.append(len(sweeps))
            assert sweeps[0][0] == len(numerics._GEOMETRIC) - 2 == 127
            assert all(p <= numerics._PROBES for p, _ in sweeps)
            work += sum(p * rows for p, rows in sweeps)
        assert per_operator == [7, 7, 7, 7]
        assert work == 16111736

    def test_spectra_suite_operators_stop_counting_in_the_forbidden_tail(
        self, monkeypatch, radial_hermitian, scarf_hermitian
    ):
        # slab rows counted per operator; without the tail exit every
        # count runs all n - 1 rows, 83972 in all over the 28 sweeps
        rows = _logged_sturm_counts(monkeypatch)
        per_operator = []
        for t in _spectra_suite_operators(radial_hermitian, scarf_hermitian):
            rows.clear()
            lowest_eigenvalues(t, 4)
            per_operator.append(sum(rows))
        assert per_operator == [9679, 18783, 13978, 27898]
        assert sum(per_operator) == 70338 < 83972

    def test_spectra_suite_work_is_pinned(self, monkeypatch, tmp_path):
        # each family's four Hermitian levels on 1000 and 2000 points, the
        # 2000-point solve seeded by the 1000-point levels; with 127 probes
        # per bracket in every sweep they took 26 sweeps, 32619 slab rows
        # and 13627608 probe-rows, and unseeded 29, 36001 and 8148431
        sweeps = _probe_rows(monkeypatch)
        sizes = []
        lowest = numerics.lowest_eigenvalues

        def sized(t, m, **kw):
            sizes.append(t.size)
            return lowest(t, m, **kw)

        monkeypatch.setattr(numerics, "lowest_eigenvalues", sized)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--suite", "spectra"]) == 0
        assert sizes == [1000, 2000, 1000, 2000]
        work = sum(p * rows for p, rows in sweeps)
        assert (len(sweeps), sum(rows for _, rows in sweeps), work) == (25, 30034, 7054542)

    def test_spectra_suite_operators_stay_within_one_eps_norm_of_stebz(
        self, radial_hermitian, scarf_hermitian
    ):
        # dstebz's own default tolerance lands 0.2-0.33 eps ||T|| away;
        # a looser stopping floor would show here first
        linalg = pytest.importorskip("scipy.linalg")
        for t in _spectra_suite_operators(radial_hermitian, scarf_hermitian):
            want = linalg.eigvalsh_tridiagonal(
                t.diagonal, t.off_diagonal, select="i", select_range=(0, 3),
                lapack_driver="stebz", tol=1e-300,
            )
            got = lowest_eigenvalues(t, 4)
            assert np.max(np.abs(got - want)) <= 1.0 * np.finfo(float).eps * t.scale

    def test_many_levels_keep_to_the_probe_budget(self, monkeypatch, radial_hermitian):
        # 200 brackets are bisected, 200 probes a sweep, where 127 per
        # bracket made 25400; the last few brackets get more parts
        linalg = pytest.importorskip("scipy.linalg")
        sweeps = _probe_rows(monkeypatch)
        t = discretize(radial_hermitian, 1e-8, 12.0, 1000)
        got = lowest_eigenvalues(t, 200)
        want = linalg.eigvalsh_tridiagonal(
            t.diagonal, t.off_diagonal, select="i", select_range=(0, 199),
            lapack_driver="stebz", tol=1e-300,
        )
        assert np.max(np.abs(got - want)) <= 1.0 * np.finfo(float).eps * t.scale
        calls = [p for p, _ in sweeps]
        assert calls[0] == 127
        # at most 200 brackets are open in any sweep
        assert all(p <= max(numerics._PROBES, 200) for p in calls[1:])
        assert max(calls[1:]) > 200 and calls.count(200) > 1

    def test_doubled_spectrum_counts_each_probe_once(self, monkeypatch):
        # two copies of one block: every eigenvalue is double, so each
        # pair of brackets coincides and their probes are counted once
        calls = []
        counts = numerics._sturm_counts

        def counted(d, e2, pivmin, sigmas, e2_rows):
            calls.append(sigmas.copy())
            return counts(d, e2, pivmin, sigmas, e2_rows)

        monkeypatch.setattr(numerics, "_sturm_counts", counted)
        block = _stencil(lambda x: x * x, -5.0, 5.0, 100)
        d = np.concatenate([block.diagonal, block.diagonal])
        e = np.concatenate([block.off_diagonal, [0.0], block.off_diagonal])
        t = TridiagonalOperator(d, e)
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[:4]
        got = lowest_eigenvalues(t, 4)
        assert got[0] == got[1] and got[2] == got[3]
        assert np.all(np.abs(got - want) <= 8.0 * t.size * np.finfo(float).eps * t.scale)
        assert calls
        for sigmas in calls:
            assert len(np.unique(sigmas)) == len(sigmas)

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

    @pytest.mark.parametrize("d, e", [
        (np.ones(3), np.full(2, 1e200)),
        (np.full(3, 1e200), np.full(2, 1e200)),
        (np.full(3, 1e300), np.full(2, 1e300)),
        (np.full(3, 1e-300), np.full(2, 1e-300)),
    ], ids=["e1e200", "s1e200", "s1e300", "s1e-300"])
    def test_entries_whose_squares_leave_the_float_range(self, d, e):
        # the exact power-of-two scaling keeps every e*e representable
        t = TridiagonalOperator(d, e)
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        got = lowest_eigenvalues(t, 3)
        assert np.all(np.abs(got - want) <= 8.0 * 3 * np.finfo(float).eps * t.scale)

    @pytest.mark.parametrize("c, j", [(1.0, 21), (1.0, 30), (0.75, 25), (3.0, 19)])
    def test_bracket_a_few_ulps_over_its_stopping_width(self, c, j):
        # d = c, e = c eps j / 16: the Gershgorin bracket, scaled to norm
        # below 1, is 1 to 4 ulps wider than 4 eps max(|lo|, |hi|); every
        # probe the sweeps place inside it still closes it
        eps = np.finfo(float).eps
        d, e = np.full(3, c), np.full(2, c * eps * j / 16)
        shift = math.frexp(c)[1]
        lo, hi = np.ldexp(c - 2.0 * e[0], -shift), np.ldexp(c + 2.0 * e[0], -shift)
        assert 0.0 < (hi - lo) - 4.0 * eps * hi <= 4.0 * np.spacing(hi)
        t = TridiagonalOperator(d, e)
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        got = lowest_eigenvalues(t, 3)
        assert np.all(np.abs(got - want) <= 8.0 * 3 * eps * t.scale)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_bracket_is_rejected(self):
        # the scaled bracket is finite, its top scaled back is not
        t = TridiagonalOperator(np.ones(3), np.array([1.5e308, 1.0]))
        with pytest.raises(ArgumentError, match="Gershgorin bracket"):
            lowest_eigenvalues(t, 1)

    def test_seeded_suite_operators_keep_their_levels(
        self, monkeypatch, radial_hermitian, scarf_hermitian
    ):
        # each operator seeded, as the spectra suite seeds its fine grid,
        # by the levels of the grid with half its points: the hint moves
        # the probes, and the levels by no more than the stopping floor
        linalg = pytest.importorskip("scipy.linalg")
        sweeps = _probe_rows(monkeypatch)
        half = 0.5 * math.pi / scarf_hermitian.k
        eps = np.finfo(float).eps
        for model, lo, hi in ((radial_hermitian, 1e-8, 12.0), (scarf_hermitian, -half, half)):
            for npts in (2000, 4000):
                hint = lowest_eigenvalues(discretize(model, lo, hi, npts // 2), 4)
                t = discretize(model, lo, hi, npts)
                spread = 2.0 * np.max(np.abs(t.off_diagonal))
                floor = eps * max(abs(t.diagonal.min() - spread), abs(t.diagonal.max() + spread))
                unhinted = lowest_eigenvalues(t, 4)
                sweeps.clear()
                got = lowest_eigenvalues(t, 4, near=hint)
                assert len(sweeps) <= 5
                assert np.max(np.abs(got - unhinted)) <= floor
                want = linalg.eigvalsh_tridiagonal(
                    t.diagonal, t.off_diagonal, select="i", select_range=(0, 3),
                    lapack_driver="stebz", tol=1e-300,
                )
                assert np.max(np.abs(got - want)) <= 8.0 * eps * t.scale

    @settings(max_examples=200, deadline=None)
    @given(symmetric_tridiagonals(), st.data())
    def test_any_finite_hint_keeps_the_levels(self, case, data):
        # hints near the levels, in reverse order, or anywhere in the
        # float range only cost sweeps: each level stays within the stop
        # width max(4 eps |lambda|, eps max(|gl|, |gu|)) of the unhinted
        t, m = case
        unhinted = lowest_eigenvalues(t, m)
        near = data.draw(st.one_of(
            st.just(unhinted[::-1]),
            st.lists(
                st.floats(-1.0, 1.0).map(lambda r: 1e-3 * r), min_size=m, max_size=m
            ).map(lambda noise: unhinted + np.array(noise)),
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False), min_size=m, max_size=m
            ),
        ))
        got = lowest_eigenvalues(t, m, near=near)
        eps = np.finfo(float).eps
        spread = 2.0 * np.max(np.abs(t.off_diagonal), initial=0.0)
        floor = eps * max(abs(t.diagonal.min() - spread), abs(t.diagonal.max() + spread))
        assert np.all(np.abs(got - unhinted) <= np.maximum(4.0 * eps * np.abs(unhinted), floor))

    @pytest.mark.parametrize("m", [4, 20, 36])
    @pytest.mark.parametrize("hint", [-1e300, -1e6, 2e6, 1e300])
    def test_hints_beyond_a_narrow_bracket_keep_the_levels(self, m, hint):
        # a spectrum 1e-6 wide at 1e6: a hint below gl or above gu is
        # clipped onto an end of the bracket, and ladder steps under 5e-5
        # of its width vanish in rounding there, so with 20 or 36 levels
        # (steps of 1e-12, 1e-6 and 1 width) every seeded probe sits on
        # an end; the brackets stay open and the later sweeps find the
        # levels
        rng = np.random.default_rng(0)
        t = TridiagonalOperator(1e6 + rng.uniform(0.0, 1e-6, 80), rng.uniform(1e-9, 2e-9, 79))
        unhinted = lowest_eigenvalues(t, m)
        got = lowest_eigenvalues(t, m, near=np.full(m, hint))
        eps = np.finfo(float).eps
        spread = 2.0 * np.max(np.abs(t.off_diagonal))
        floor = eps * (t.diagonal.max() + spread)
        assert np.all(np.abs(got - unhinted) <= np.maximum(4.0 * eps * np.abs(unhinted), floor))

    @pytest.mark.parametrize("m", [37, 100])
    def test_many_levels_ignore_the_hint(self, monkeypatch, m):
        # past 36 levels sweep 0 would give each bracket a ladder of at
        # most one step, which never reaches the far levels, so near is
        # ignored: the same probes, sweep for sweep, and the same levels
        sweeps = _probe_rows(monkeypatch)
        t = _stencil(lambda x: x * x, -10.0, 10.0, 1000)
        unhinted = lowest_eigenvalues(t, m)
        plain = list(sweeps)
        for hint in (-1e300, 1e300):
            sweeps.clear()
            assert np.array_equal(lowest_eigenvalues(t, m, near=np.full(m, hint)), unhinted)
            assert sweeps == plain

    @pytest.mark.parametrize("near", [
        [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]],
        [1.0, math.nan, 3.0], [1.0, 2.0, math.inf], [-math.inf, 2.0, 3.0],
    ], ids=["short", "long", "2d", "nan", "inf", "minus-inf"])
    def test_bad_hints_are_rejected_before_any_sweep(self, monkeypatch, near):
        sweeps = _probe_rows(monkeypatch)
        t = _stencil(np.zeros_like, 0.0, math.pi, 200)
        with pytest.raises(ArgumentError):
            lowest_eigenvalues(t, 3, near=near)
        assert sweeps == []

    def test_sweep_cap_raises(self, monkeypatch):
        t = _stencil(np.zeros_like, 0.0, math.pi, 200)
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError):
            lowest_eigenvalues(t, 3)


@st.composite
def _tridiagonal_systems(draw):
    """Complex-symmetric tridiagonal systems of size 1-60.  Each row's
    flag puts its off-diagonal entry 2^6 above or below the diagonal
    scale, so rows take both pivot branches; the values come from a
    drawn numpy seed."""
    n = draw(st.integers(min_value=1, max_value=60))
    swap_favoured = np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def entries(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z * np.exp2(rng.integers(-3, 4, size))

    d, rhs = entries(n), entries(n)
    e = entries(n - 1) * np.where(swap_favoured, 2.0**6, 2.0**-6)
    sigma = draw(st.sampled_from([0.0, 0.5 + 0.25j]))
    return d, e, sigma, rhs


class TestTridiagonalLU:
    @settings(max_examples=300, deadline=None)
    @given(_tridiagonal_systems())
    def test_matches_dense_solve(self, system):
        d, e, sigma, rhs = system
        n = len(d)
        a = np.diag(d - sigma) + np.diag(e, -1) + np.diag(e, 1)
        y = numerics._tri_lu_solve(numerics._tri_lu_factor(d, e, sigma), rhs)
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
        e = np.array([1.0, 2.0 + 1.0j, 0.5, 3.0])
        rhs = np.array([1.0, 2.0j, -1.0, 0.5, 3.0])
        factors = numerics._tri_lu_factor(d, e, 0.0)
        assert factors[1] == [False, True, False, True]
        a = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        y = numerics._tri_lu_solve(factors, rhs)
        assert np.allclose(y, np.linalg.solve(a, rhs), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "d, e",
        [
            # row 0 is decoupled, so sigma = 1 leaves a zero pivot and a
            # zero subdiagonal below it
            ([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0]),
            # T - 1 = [[1, 1], [1, 1]] is singular: the last pivot is 0
            ([2.0, 2.0], [1.0]),
            # as the first, with the largest |entry| of T - 1 off the diagonal
            ([1.0, 5.0, 5.0], [0.0, 10.0]),
        ],
    )
    def test_zero_pivot_is_replaced(self, d, e):
        d, e = np.array(d), np.array(e)
        factors = numerics._tri_lu_factor(d, e, 1.0)
        pivots = np.array(factors[2])
        assert np.isfinite(pivots).all() and (pivots != 0.0).all()
        # the zero became eps times the largest |entry| of T - 1
        assert np.finfo(float).eps * max(np.abs(d - 1.0).max(), np.abs(e).max()) in pivots
        res = eigen_near_shift(TridiagonalOperator(d, e), 1.0)
        assert res.converged
        assert abs(res.eigenvalue - 1.0) <= 1e-14


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def _splitmix64(seed: int, count: int) -> list:
    """Outputs 1 to count of SplitMix64 (Steele, Lea & Flood, 2014), in
    Python integers."""
    out, state, mask = [], seed, 2**64 - 1
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestStartVector:
    def test_reference_stream(self):
        # the published first output of seed 0
        assert _splitmix64(0, 1) == [0xE220A8397B1DCDAF]

    @pytest.mark.parametrize("n", [1, 2, 7, 3000])
    def test_is_splitmix64_of_the_index(self, n):
        parts = np.array(
            [(2 * (z >> 12) + 1) / 2.0**52 - 1.0 for z in _splitmix64(numerics._START_SEED, 2 * n)]
        )
        assert (np.abs(parts) < 1.0).all()
        want = parts.view(complex) / np.linalg.norm(parts.view(complex))
        assert _bits(numerics._start_vector(n)) == _bits(want)


@st.composite
def _ritz_problems(draw):
    """(G, H, sigma) of a 2x2 Ritz problem: G = Q^T Q and H = Q^T T Q for
    a random complex n x 2 basis Q and complex-symmetric T.  With a drawn
    delta, Q is delta away from columns (1, i, 0, 0) and (0, 0, 1, i),
    which are self-orthogonal and c-orthogonal to each other, so G is
    O(delta) and nearly singular.  sigma lies within a few ||M|| of the
    eigenvalues of M = G^-1 H."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    delta = draw(st.sampled_from([None, 1e-2, 1e-5, 1e-8]))
    n = draw(st.integers(min_value=2 if delta is None else 4, max_value=6))

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q = normal(n, 2)
    if delta is not None:
        iso = np.zeros((n, 2), dtype=complex)
        iso[:4, 0], iso[:4, 1] = [1, 1j, 0, 0], [0, 0, 1, 1j]
        q = iso + delta * q
    t = normal(n, n)
    t = t + t.T
    return q.T @ q, q.T @ t @ q, complex(normal())


class TestRitz2x2:
    @settings(max_examples=500, deadline=None)
    @given(_ritz_problems())
    def test_matches_dense_eig(self, problem):
        g, h, offset = problem
        m = np.linalg.solve(g, h)
        theta, vecs = np.linalg.eig(m)
        scale = np.linalg.norm(m)
        sigma = theta.mean() + scale * offset
        dist = np.abs(theta - sigma)
        # skip draws where the nearest member or the eigenvector is
        # ill-posed: a near tie in distance, or a near-defective M
        assume(abs(dist[0] - dist[1]) > 1e-6 * scale)
        assume(abs(theta[0] - theta[1]) > 1e-6 * scale)
        i = int(np.argmin(dist))
        c = numerics._ritz_2x2(g[0, 0], g[0, 1], g[1, 1], h[0, 0], h[0, 1], h[1, 0], h[1, 1], sigma)
        assert c is not None
        c = np.array(c)
        assert abs(max(abs(c)) - 1.0) <= 4.0 * np.finfo(float).eps
        # the same direction as the dense eigenvector of the same member
        assert abs(np.vdot(vecs[:, i], c)) / np.linalg.norm(c) >= 1.0 - 1e-6
        assert np.linalg.norm(m @ c - theta[i] * c) <= 1e-8 * scale * np.linalg.norm(c)

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1e-6, 1e-7, 1e-8, 1e-9, 1e-10]),
        st.integers(min_value=0, max_value=1),
    )
    def test_nearly_degenerate_pair(self, seed, split, member):
        # M = theta0 + split R: a pair split by about split |theta0|.
        # With G = I, M = H exactly, so the reference is M's eigenpair in
        # 50 digits, and the residual of c against the exact eigenvalue
        # must be at rounding level whatever the split
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        theta0, r = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in ((), (2, 2)))
        m = theta0 * np.eye(2) + split * r
        with mp.workdps(50):
            mm = mp.matrix(m.tolist())
            half, p = (mm[0, 0] + mm[1, 1]) / 2, (mm[0, 0] - mm[1, 1]) / 2
            root = mp.sqrt(p * p + mm[0, 1] * mm[1, 0])
            assume(abs(root) > 0.05 * split)
            theta = half + root if member == 0 else half - root
            c = numerics._ritz_2x2(1.0, 0.0, 1.0, *m.ravel().tolist(), complex(theta))
            assert c is not None
            residual = mp.norm((mm - theta * mp.eye(2)) * mp.matrix(list(c)))
        assert residual <= 4.0 * np.finfo(float).eps * np.linalg.norm(m) * np.linalg.norm(c)

    @pytest.mark.parametrize(
        "g, h",
        [
            # G singular: G = 0 for the columns (1, i, 0, 0), (0, 0, 1, i)
            ((0j, 0j, 0j), (1.0, 2.0, 2.0, 3.0)),
            ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0, 3.0)),
            # H = 2 G: every c is an eigenvector
            ((1.0, 0.5j, 2.0), (2.0, 1.0j, 1.0j, 4.0)),
        ],
    )
    def test_no_single_answer(self, g, h):
        assert numerics._ritz_2x2(*g, *h, 1.0) is None


class TestEigenNearShift:
    def test_diagonal_complex_operator(self):
        d = np.array([2.0 + 3.0j, 5.0 - 1.0j, 7.0, 11.0 + 0.5j])
        t = TridiagonalOperator(d, np.zeros(3))
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

    @pytest.mark.parametrize("offset", [1e200, 1e300])
    def test_far_shift_gives_a_finite_eigenvalue(self, radial_figure, offset):
        # the first solve's max|w| is ~1e-202 at 1e200: its norm underflowed
        # to 0 and the normalised w was NaN
        op = discretize(radial_figure, -12.0, 12.0, 1200)
        res = eigen_near_shift(op, models.energy(radial_figure, 1) + 1j * offset)
        assert cmath.isfinite(res.eigenvalue)
        assert math.isfinite(res.residual)

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

    def test_needs_no_lapack_and_no_random_stream(self, radial_figure, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigen_near_shift must not call this")

        for name in ("qr", "eig", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        op = discretize(radial_figure, -12.0, 12.0, 1200)
        for n in range(1, 4):
            res = eigen_near_shift(op, models.energy(radial_figure, n) + 0.3j, 60)
            assert res.converged

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 1.5 + 0.5j, 2.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_multiple_of_the_identity(self, monkeypatch, n, sigma):
        # T = 2I, so w is parallel to v.  At n = 1 the part u of w
        # orthogonal to v is exactly 0; past it rounding leaves a u, and
        # the 2x2 problem is H = 2G, where every c is a Ritz vector.  The
        # step takes w in both cases
        ritz, answers = numerics._ritz_2x2, []

        def logged_ritz(*args):
            answers.append(ritz(*args))
            return answers[-1]

        monkeypatch.setattr(numerics, "_ritz_2x2", logged_ritz)
        res = eigen_near_shift(TridiagonalOperator(np.full(n, 2.0), np.zeros(n - 1)), sigma)
        assert res.converged and res.iterations == 1
        assert abs(res.eigenvalue - 2.0) <= 4.0 * np.finfo(float).eps
        if n == 1:
            assert answers == []
        assert all(c is None for c in answers)

    def test_reports_the_pair_member_nearest_the_shift(self, radial_figure):
        # at a = 2 each level is a grid pair split by O(h^2); the member
        # reported must be the dense eigenvalue nearest sigma, whatever
        # the rounding (following one vector gave level 1 as the farther
        # member, 4.590185)
        op = discretize(radial_figure, -12.0, 12.0, 600)
        dense = (
            np.diag(op.diagonal)
            + np.diag(op.off_diagonal, 1)
            + np.diag(op.off_diagonal, -1)
        )
        eigs = np.linalg.eigvals(dense)
        for n in range(1, 7):
            sigma = models.energy(radial_figure, n) + 0.3j
            want = eigs[np.argmin(np.abs(eigs - sigma))]
            res = eigen_near_shift(op, sigma, 60)
            assert res.converged
            assert abs(res.eigenvalue - want) <= 1e-8 * abs(want)


class TestEigenNearShiftWork:
    @pytest.mark.parametrize("npts, nmax", [(1200, 3), (3000, 6)])
    def test_benchmark_operators_take_few_solves(self, radial_figure, monkeypatch, npts, nmax):
        # the two operators of the benchmark's spectrum_complex ops at
        # seed 0; one step is one solve, and the shift is refactored
        # from step 4 on
        calls = {"factor": 0, "solve": 0}
        factor, solve = numerics._tri_lu_factor, numerics._tri_lu_solve

        def counted_factor(*args):
            calls["factor"] += 1
            return factor(*args)

        def counted_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        monkeypatch.setattr(numerics, "_tri_lu_factor", counted_factor)
        monkeypatch.setattr(numerics, "_tri_lu_solve", counted_solve)
        op = discretize(radial_figure, -12.0, 12.0, npts)
        for n in range(1, nmax + 1):
            calls.update(factor=0, solve=0)
            res = eigen_near_shift(op, models.energy(radial_figure, n) + 0.3j, 60)
            assert res.converged
            assert calls["solve"] == res.iterations <= 7
            assert calls["factor"] <= 4

    # steps per level 1..6 of the single-vector iteration this solver
    # replaced, which had no pair to separate at these a
    @pytest.mark.parametrize(
        "a, before", [(1.8, [6, 6, 6, 6, 6, 6]), (2.5, [5, 5, 6, 5, 6, 5])]
    )
    def test_no_level_slower_off_the_pair(self, a, before):
        m = models.PotentialModel("radial_extended", a=a, k=1.75, eps=1.2)
        op = discretize(m, -12.0, 12.0, 3000)
        for n, steps in enumerate(before, start=1):
            res = eigen_near_shift(op, models.energy(m, n) + 0.3j, 60)
            assert res.converged
            assert res.iterations <= steps + 1


class TestSchrodingerResidual:
    def test_small_for_true_eigenpairs(self, radial_hermitian, scarf_hermitian):
        xs = np.linspace(0.4, 6.0, 20)
        assert schrodinger_residual(radial_hermitian, 1, xs) <= 1e-6
        half = 0.5 * math.pi / scarf_hermitian.k
        xs = np.linspace(-0.9 * half, 0.9 * half, 20)
        assert schrodinger_residual(scarf_hermitian, 2, xs) <= 1e-6

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_small_where_the_energy_is_far_below_the_potential(self, eps):
        # E_1 = 0.048 against max|V psi|/max|psi| = 9.7 (eps = 0) and 2.0
        # (eps = 0.3): divided by |E_1| max|psi| alone, this read 6.3e-6
        # and 8.7e-6
        m = models.PotentialModel("scarf_extended", a=-0.25, b=-0.4, k=1.25, eps=eps)
        half = 0.5 * math.pi / m.k
        xs = np.linspace(-0.9 * half, 0.9 * half, 40)
        assert schrodinger_residual(m, 1, xs) <= 1e-6

    def test_grid_touching_the_domain_edge_raises(self, radial_hermitian):
        # the offset stencil crosses x = 0
        with pytest.raises(DomainError):
            schrodinger_residual(radial_hermitian, 1, np.array([1e-5, 1.0]))

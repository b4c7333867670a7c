import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xspectra import (
    ArgumentError,
    BranchCutError,
    DomainError,
    EvaluationError,
    PotentialModel,
    SingularityError,
    energy,
    potential,
    pseudo_hermiticity_residual,
    pt_symmetry_residual,
    quasi_hermiticity_residual,
    validate_params,
    wavefunction,
)
from xspectra import finite_quadrature, integrate, semi_infinite_exp_quadrature
from xspectra import cli, models
from xspectra.models import (
    _offset,
    _require_valid,
    _scarf_norm_constant,
    cell,
    real_poles,
    x1_family,
)
from xspectra.xop import x1_laguerre_norm, x1_polynomial


def scarf_half_cell(m: PotentialModel) -> float:
    return 0.5 * math.pi / abs(m.k)


class TestParameterChecks:
    def test_structural_errors(self):
        with pytest.raises(ArgumentError):
            PotentialModel("coulomb", 1.0)
        with pytest.raises(ArgumentError):
            PotentialModel("radial_extended", 1.0, b=2.0)
        with pytest.raises(ArgumentError):
            PotentialModel("radial_extended", 1.0, branch="sin")
        with pytest.raises(ArgumentError):
            PotentialModel("scarf_extended", 1.0)
        with pytest.raises(ArgumentError):
            PotentialModel("scarf_extended", 1.0, 2.0, branch="tan")
        with pytest.raises(ArgumentError):
            PotentialModel("radial_extended", 1.0, k=0.0)

    def test_scarf_branch_defaults_to_sin(self):
        m = PotentialModel("scarf_extended", 1.75, 3.0)
        assert m.branch == "sin"

    def test_diagnostics(self):
        assert validate_params(PotentialModel("radial_extended", 2.0)) == []
        assert validate_params(PotentialModel("radial_extended", -1.0))
        # eps^2 = 4a puts the rational pole at the origin
        m = PotentialModel("radial_extended", 1.0, eps=2.0)
        assert any("pole" in d for d in validate_params(m))
        assert validate_params(PotentialModel("scarf_extended", 1.75, 3.0)) == []
        assert any(
            "differ" in d
            for d in validate_params(PotentialModel("scarf_extended", 2.0, 2.0))
        )
        assert validate_params(PotentialModel("scarf_extended", -0.75, 3.0))
        # cosh(eps) = (a+b)/|b-a| puts a pole on the real line
        a, b = 1.0, 3.0
        eps = math.acosh((a + b) / (b - a))
        m = PotentialModel("scarf_extended", a, b, eps=eps)
        assert any("pole" in d for d in validate_params(m))

    @pytest.mark.parametrize("a, b, eps", [
        (-0.25, 1.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (-0.25, 1.0, 1.0),
        (-0.25, -0.4, math.acosh(0.65 / 0.15)),
    ], ids=["mixed-signs", "a-zero", "b-zero", "mixed-signs-shifted", "negative-sum-cosh"])
    def test_scarf_poles_in_the_cell_are_refused(self, a, b, eps):
        # ab <= 0 puts sin w = (a + b)/(b - a) inside [-1, 1]; for a + b < 0
        # the shift's pole condition is cosh(eps) = |a + b|/|b - a|
        diagnostics = validate_params(PotentialModel("scarf_extended", a, b, eps=eps))
        assert len(diagnostics) == 1 and "pole" in diagnostics[0]

    def test_negative_indices_with_a_positive_product_are_valid(self):
        for eps in (0.0, 1.0):
            assert validate_params(PotentialModel("scarf_extended", -0.25, -0.4, eps=eps)) == []

    @pytest.mark.parametrize("eps", [710.4758600739439, 710.476, 800.0, -1e300])
    def test_cosh_past_the_float_range_raises_no_pole_diagnostic(self, eps):
        # math.cosh raised an OverflowError from |eps| = 710.476
        for a, b in ((1.75, 3.0), (-0.25, -0.4)):
            assert validate_params(PotentialModel("scarf_extended", a, b, eps=eps)) == []


class TestRealPoles:
    def test_radial_pole_at_the_origin(self, radial_hermitian):
        assert real_poles(radial_hermitian, -1.0, 5.0) == [0.0]
        assert real_poles(radial_hermitian, 0.0, 5.0) == []

    @pytest.mark.parametrize("k", [1.25, -1.25])
    @pytest.mark.parametrize("branch", ["sin", "cos"])
    def test_scarf_poles_are_the_cell_edges(self, k, branch):
        m = PotentialModel("scarf_extended", 1.75, 3.0, k=k, branch=branch)
        centre, half = cell(m)
        assert half == pytest.approx(0.5 * math.pi / 1.25, rel=1e-15)
        # three cells, and a margin that keeps the outer edges in
        lo, hi = centre - 3.5 * half, centre + 2.5 * half
        want = [centre + j * half for j in (-3, -1, 1)]
        np.testing.assert_allclose(real_poles(m, lo, hi), want, rtol=0, atol=1e-12)
        for x in want:
            w = k * x + (0.5 * math.pi if branch == "cos" else 0.0)
            assert abs(math.cos(w)) < 1e-12
        # poles at the ends of the interval are left out
        assert real_poles(m, centre - half, centre + half) == []

    @pytest.mark.parametrize("m", [
        PotentialModel("radial_extended", 2.0, k=1.75, eps=1.2),
        PotentialModel("radial_extended", 2.0, k=-1.75, eps=-0.3),
        PotentialModel("scarf_extended", 1.75, 3.0, k=1.25, eps=1.0),
        PotentialModel("scarf_extended", 1.75, 3.0, k=-1.25, eps=1.0, branch="cos"),
        PotentialModel("scarf_extended", -0.25, -0.4, k=1.25, eps=0.5),
    ], ids=["radial", "radial-negative-k", "scarf-sin", "scarf-cos-negative-k", "scarf-negative"])
    def test_shift_moves_every_pole_off_the_line(self, m):
        assert real_poles(m, -20.0, 20.0) == []
        xs = np.linspace(-20.0, 20.0, 4001)
        assert np.all(np.isfinite(potential(m, xs)))

    def test_cell_is_scarf_only(self, radial_hermitian):
        with pytest.raises(ArgumentError):
            cell(radial_hermitian)


class TestPotential:
    def test_frozen_point_values(self, radial_hermitian, scarf_hermitian):
        assert potential(radial_hermitian, 1.0) == pytest.approx(
            3.8419430757170874, rel=1e-14
        )
        assert potential(scarf_hermitian, 0.0) == pytest.approx(
            9.249615867382271, rel=1e-14
        )

    def test_complex_point_value(self, radial_figure):
        v = potential(radial_figure, 1.0)
        assert v == pytest.approx(1.0900488076585233 - 0.7383557226652095j)

    def test_hermitian_values_are_real_floats(self, radial_hermitian, scarf_hermitian):
        v = potential(radial_hermitian, np.linspace(0.2, 6.0, 30))
        assert v.dtype == np.float64
        half = scarf_half_cell(scarf_hermitian)
        v = potential(scarf_hermitian, np.linspace(-0.9 * half, 0.9 * half, 30))
        assert v.dtype == np.float64

    def test_shift_is_analytic_continuation(self, radial_figure, scarf_figure):
        for m in (radial_figure, scarf_figure):
            m0 = replace(m, eps=0.0)
            xs = np.linspace(-0.4, 0.4, 11)
            direct = potential(m, xs)
            continued = potential(m0, xs + 1j * m.eps / m.k)
            assert np.max(np.abs(direct - continued)) <= 1e-12 * np.max(
                np.abs(direct)
            )

    def test_oscillator_term_dominates_far_out(self, radial_hermitian):
        k = radial_hermitian.k
        x = 10.0
        leading = k**4 * x**2 / 16.0
        assert abs(potential(radial_hermitian, x) / leading - 1.0) < 0.1

    def test_interior_minimum(self, radial_hermitian):
        xs = np.linspace(0.1, 3.0, 400)
        v = potential(radial_hermitian, xs)
        i = int(np.argmin(v))
        assert 0 < i < len(xs) - 1
        assert v[i - 1] > v[i] < v[i + 1]

    def test_pole_raises(self):
        m = PotentialModel("radial_extended", 1.0, eps=2.0)  # eps^2 = 4a
        with pytest.raises(Exception) as exc_info:
            potential(m, 0.0)
        assert "x = 0" in str(exc_info.value)


class TestEnergy:
    def test_radial_tower(self, radial_hermitian, radial_figure):
        for n, e in ((1, 4.59375), (2, 7.65625), (3, 10.71875), (4, 13.78125)):
            assert energy(radial_hermitian, n) == pytest.approx(e, rel=1e-14)
            # the imaginary shift is isospectral
            assert energy(radial_figure, n) == energy(radial_hermitian, n)

    def test_scarf_tower(self, scarf_hermitian, scarf_figure):
        for n, e in ((1, 12.9150390625), (2, 23.4619140625), (3, 37.1337890625)):
            assert energy(scarf_hermitian, n) == pytest.approx(e, rel=1e-14)
            assert energy(scarf_figure, n) == energy(scarf_hermitian, n)

    def test_rejects_bad_level(self, radial_hermitian):
        for n in (0, -2, 1.5, True):
            with pytest.raises(ArgumentError):
                energy(radial_hermitian, n)


class TestWavefunction:
    @pytest.mark.parametrize("a, k", [(50.0, 1e4), (1e6, 1.75)])
    def test_radial_norm_out_of_float_range_raises(self, a, k):
        # |k|^(2a + 2) and 2^(2a - 3) raised an OverflowError
        m = PotentialModel("radial_extended", a, None, k)
        with pytest.raises(EvaluationError, match="norm of radial state 1"):
            wavefunction(m, [1, 2], np.linspace(0.5, 2.0, 5))

    def test_radial_states_are_normalized(self, radial_hermitian):
        q = semi_infinite_exp_quadrature()
        for n in (1, 2, 3):
            val = integrate(
                lambda x, n=n: np.abs(wavefunction(radial_hermitian, n, x)) ** 2, q
            )
            assert val == pytest.approx(1.0, rel=1e-8)

    def test_radial_ground_state_is_normalized_at_a_tiny_index(self):
        # its squared norm once lost a: |psi_1|^2 integrated to 1.110
        m = PotentialModel("radial_extended", 1e-15, k=1.75)
        q = semi_infinite_exp_quadrature()
        val = integrate(lambda x: np.abs(wavefunction(m, 1, x)) ** 2, q)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_scarf_states_are_normalized(self, scarf_hermitian):
        half = scarf_half_cell(scarf_hermitian)
        q = finite_quadrature(-half, half)
        for n in (1, 2, 3):
            val = integrate(
                lambda x, n=n: np.abs(wavefunction(scarf_hermitian, n, x)) ** 2, q
            )
            assert val == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("a", [2.0, 2.25, 2.5])
    @pytest.mark.parametrize("k", [1.75, -1.75])
    def test_radial_states_keep_unit_norm_at_either_sign_of_k(self, a, k):
        m = PotentialModel("radial_extended", a, k=k)
        q = semi_infinite_exp_quadrature()
        for n in (1, 2):
            val = integrate(lambda x, n=n: np.abs(wavefunction(m, n, x)) ** 2, q)
            assert val == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("k", [1.25, -1.25])
    @pytest.mark.parametrize("branch", ["sin", "cos"])
    def test_scarf_states_keep_unit_norm_at_either_sign_of_k(self, k, branch):
        m = PotentialModel("scarf_extended", 1.75, 3.0, k=k, branch=branch)
        centre, half = cell(m)
        q = finite_quadrature(centre - half, centre + half)
        for n in (1, 2):
            val = integrate(lambda x, n=n: np.abs(wavefunction(m, n, x)) ** 2, q)
            assert val == pytest.approx(1.0, rel=1e-8)

    def test_scarf_sin_state_mirrors_under_negative_k(self, scarf_hermitian):
        mirrored = replace(scarf_hermitian, k=-scarf_hermitian.k)
        half = scarf_half_cell(scarf_hermitian)
        xs = np.linspace(-0.95 * half, 0.95 * half, 41)
        for n in (1, 2, 3):
            np.testing.assert_allclose(
                wavefunction(mirrored, n, xs),
                wavefunction(scarf_hermitian, n, -xs),
                rtol=1e-12, atol=1e-14,
            )

    def test_sign_convention(self, radial_hermitian):
        assert np.real(wavefunction(radial_hermitian, 1, 1.0)) < 0.0

    def test_hermitian_states_real_up_to_rounding(self, radial_hermitian):
        xs = np.linspace(0.3, 6.0, 40)
        psi = wavefunction(radial_hermitian, 2, xs)
        assert np.max(np.abs(psi.imag)) <= 1e-14 * np.max(np.abs(psi))

    def test_scarf_states_vanish_at_cell_ends(self, scarf_hermitian):
        half = scarf_half_cell(scarf_hermitian)
        edge = half * (1.0 - 1e-6)
        interior = np.abs(wavefunction(scarf_hermitian, 1, 0.3))
        for x in (-edge, edge):
            assert np.abs(wavefunction(scarf_hermitian, 1, x)) < 1e-3 * interior

    def test_domain_guards(self, radial_hermitian, scarf_hermitian, scarf_figure):
        with pytest.raises(DomainError):
            wavefunction(radial_hermitian, 1, -1.0)
        half = scarf_half_cell(scarf_hermitian)
        with pytest.raises(DomainError):
            wavefunction(scarf_hermitian, 1, 1.5 * half)
        with pytest.raises(BranchCutError):
            wavefunction(scarf_figure, 1, half)
        bad = PotentialModel("scarf_extended", -0.75, 3.0)
        with pytest.raises(DomainError):
            wavefunction(bad, 1, 0.0)

    def test_complex_argument_is_accepted(self, radial_hermitian, radial_figure):
        # continuation: the shifted state is the Hermitian one at x + i eps/k
        xs = np.linspace(0.5, 3.0, 9)
        shifted = wavefunction(radial_figure, 2, xs)
        continued = wavefunction(
            radial_hermitian, 2, xs + 1j * radial_figure.eps / radial_figure.k
        )
        assert np.max(np.abs(shifted - continued)) <= 1e-12 * np.max(np.abs(shifted))


class TestRefusalMessages:
    # each names the first grid point, in C order, where the model is singular
    @pytest.mark.parametrize("m, x, message", [
        (PotentialModel("radial_extended", 2.0, k=1.75), np.array([1.0, -0.0, 0.0]),
         "centrifugal pole at x = -0"),
        (PotentialModel("radial_extended", 2.0, k=1.75), 0.0, "centrifugal pole at x = 0"),
        (PotentialModel("radial_extended", 1.0, eps=2.0), np.array([[1.0, 0.0], [0.0, 2.0]]),
         "rational-term pole at x = 0"),
        (PotentialModel("scarf_extended", 1.0, -1.0), np.array([0.3, 0.0]),
         "rational-term pole at x = 0"),
    ], ids=["centrifugal", "centrifugal-scalar", "radial-rational", "scarf-rational"])
    def test_potential(self, m, x, message):
        with pytest.raises(SingularityError) as got:
            potential(m, x)
        assert str(got.value) == message

    def test_potential_sec_type_pole(self, monkeypatch):
        # cos(kx) is never exactly 0 at a double x, so the test zeroes it
        monkeypatch.setattr(models.np, "cos", np.zeros_like)
        m = PotentialModel("scarf_extended", 1.75, 3.0, k=1.25)
        with pytest.raises(SingularityError) as got:
            potential(m, np.array([0.5, 0.25]))
        assert str(got.value) == "sec-type pole at x = 0.5"


# the reference states each refusal message itself, as the evaluator
# did before errors.refuse_where, rather than through that helper
def _first_bad(xs, mask) -> float:
    flat = np.atleast_1d(np.real(np.asarray(xs)))
    return float(flat[np.atleast_1d(mask)][0])


def _branch_guard(vals, xs, label):
    bad = (vals.real < 0.0) & (vals.imag == 0.0)
    if np.any(bad):
        raise BranchCutError(
            f"{label} lands on the branch cut at x = {_first_bad(xs, bad):g}"
        )


def _reference_wavefunction(m, n, x):
    """One level at a time, as wavefunction evaluated before it took a
    sequence of levels: the bit-identity reference for every row."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ArgumentError(f"levels are indexed by integers n >= 1, got {n!r}")
    _require_valid(m)
    xs = np.asarray(x)
    scalar = xs.ndim == 0
    complex_input = np.iscomplexobj(xs)
    p = x1_polynomial(x1_family(m), n)
    if m.family == "radial_extended":
        a, k = m.a, m.k
        if not complex_input and m.eps == 0.0 and np.any(xs <= 0.0):
            raise DomainError("Hermitian radial states live on x > 0")
        z = xs.astype(complex) + 1j * m.eps / k
        bad = z == 0.0
        if np.any(bad):
            raise SingularityError(
                f"state has a branch point at x = {_first_bad(xs, bad):g}"
            )
        _branch_guard(z, xs, "shifted coordinate")
        u = 0.25 * k * k * z * z
        den = k * k * z * z + 4.0 * a
        bad = den == 0.0
        if np.any(bad):
            raise SingularityError(
                f"rational-term pole at x = {_first_bad(xs, bad):g}"
            )
        norm = math.sqrt(
            abs(k) ** (2.0 * a + 2.0) / (2.0 ** (2.0 * a - 3.0) * x1_laguerre_norm(n, a))
        )
        out = norm * np.power(z, a + 0.5) * np.exp(-0.125 * k * k * z * z) / den * p(u)
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
        s = np.sin(w)
        one, two = 1.0 - s, 1.0 + s
        _branch_guard(one, xs, "factor 1 - sin w")
        _branch_guard(two, xs, "factor 1 + sin w")
        d = a + b - (b - a) * s
        bad = d == 0.0
        if np.any(bad):
            raise SingularityError(
                f"rational-term pole at x = {_first_bad(xs, bad):g}"
            )
        out = (
            _scarf_norm_constant(replace(m, eps=0.0, branch="sin"), n)
            * np.power(one, 0.5 * a + 0.25)
            * np.power(two, 0.5 * b + 0.25)
            / d
            * p(s)
        )
    return out[()] if scalar else out


_STATE_MODELS = {
    "radial-hermitian": PotentialModel("radial_extended", 2.0, k=1.75),
    "radial-shifted": PotentialModel("radial_extended", 2.0, k=1.75, eps=1.2),
    "radial-negative-k": PotentialModel("radial_extended", 2.5, k=-1.75, eps=1.2),
    "scarf-sin-hermitian": PotentialModel("scarf_extended", 1.75, 3.0, k=1.25),
    "scarf-sin-shifted": PotentialModel("scarf_extended", 1.75, 3.0, k=1.25, eps=1.0),
    "scarf-cos-hermitian": PotentialModel("scarf_extended", 1.75, 3.0, k=1.25, branch="cos"),
    "scarf-cos-shifted": PotentialModel(
        "scarf_extended", 1.75, 3.0, k=1.25, eps=1.0, branch="cos"
    ),
}


def _state_grid(m, points):
    if m.family == "radial_extended":
        return np.linspace(0.4, 6.0, points)
    centre, half = cell(m)
    return np.linspace(centre - 0.9 * half, centre + 0.9 * half, points)


class TestStackedLevels:
    @pytest.mark.parametrize("name", list(_STATE_MODELS))
    @pytest.mark.parametrize("shape", ["scalar", "1-d", "2-d", "complex"])
    @pytest.mark.parametrize("levels", [(1, 2, 3), (3, 1), (2,), [4, 1, 3]])
    def test_rows_match_the_single_level_bytes(self, name, shape, levels):
        m = _STATE_MODELS[name]
        grid = _state_grid(m, 24)
        x = {
            "scalar": float(grid[7]),
            "1-d": grid,
            "2-d": grid.reshape(4, 6).T,  # and not contiguous
            "complex": grid + 0.05j,
        }[shape]
        stacked = wavefunction(m, levels, x)
        assert stacked.dtype == complex
        assert stacked.shape == (len(levels),) + np.shape(x)
        for row, n in zip(stacked, levels):
            want = _reference_wavefunction(m, n, x)
            got = wavefunction(m, n, x)
            assert np.shape(got) == np.shape(x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.asarray(row).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("levels", [
        (0,), (1, 0), (2, -1, 1), (1, True), (1.5, 2), (1, 2, 1.5), (), [],
    ])
    def test_bad_levels_are_refused_before_evaluation(self, radial_hermitian, monkeypatch, levels):
        def evaluated(*args):
            raise AssertionError("a level was evaluated")

        monkeypatch.setattr(models, "x1_polynomial", evaluated)
        # x = -1 would raise DomainError if anything were evaluated
        with pytest.raises(ArgumentError):
            wavefunction(radial_hermitian, levels, -1.0)

    @pytest.mark.parametrize("name, x, error", [
        ("radial-hermitian", -1.0, DomainError),
        ("scarf-sin-hermitian", 1.5 * scarf_half_cell(_STATE_MODELS["scarf-sin-hermitian"]),
         DomainError),
        ("scarf-cos-shifted", 0.0, BranchCutError),
        ("scarf-sin-shifted", scarf_half_cell(_STATE_MODELS["scarf-sin-shifted"]),
         BranchCutError),
        ("scarf-invalid", 0.0, DomainError),
    ])
    def test_domain_errors_keep_their_messages(self, name, x, error):
        m = _STATE_MODELS.get(name, PotentialModel("scarf_extended", -0.75, 3.0))
        with pytest.raises(error) as want:
            _reference_wavefunction(m, 1, x)
        for levels in (1, (1, 2, 3)):
            with pytest.raises(error) as got:
                wavefunction(m, levels, x)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", ["radial-shifted", "scarf-sin-shifted"])
    def test_extra_levels_cost_only_their_rows(self, name):
        # a list of rows stacked at the end, or a row-sized temporary per
        # level, would add at least one more row to the peak; this is
        # tighter than the single-level peak plus the stacked nbytes
        m = _STATE_MODELS[name]
        x = _state_grid(m, 100_000)
        wavefunction(m, (1, 2, 3), x)  # fills the member and norm caches

        def peak(levels):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = wavefunction(m, levels, x)
                return tracemalloc.get_traced_memory()[1] - base, out.nbytes
            finally:
                tracemalloc.stop()

        single, row = peak(1)
        stacked, total = peak((1, 2, 3))
        assert stacked <= single + (total - row) + 64 * 1024


class TestBlockSplits:
    # `table` evaluates its grid one block of rows at a time, so its CSV
    # is the whole grid's only if each point's bits do not depend on the
    # block it lies in, a block of one row included
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(list(_STATE_MODELS)),
        points=st.integers(1, 600),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    def test_blocks_match_the_whole_grid_bitwise(self, name, points, cuts):
        m = _STATE_MODELS[name]
        grid = np.linspace(*cli._default_range(m), points)
        edges = [0]
        for cut in sorted({int(c * points) for c in cuts}):
            if cut - edges[-1] >= 1 and points - cut >= 1:
                edges.append(cut)
        edges.append(points)
        blocks = [grid[start:stop] for start, stop in zip(edges, edges[1:])]
        v = np.concatenate([potential(m, x) for x in blocks])
        psi = np.concatenate([wavefunction(m, [1, 2, 3], x) for x in blocks], axis=1)
        assert np.array_equal(v.view(np.uint8), potential(m, grid).view(np.uint8))
        whole = wavefunction(m, [1, 2, 3], grid)
        assert np.array_equal(psi.view(np.uint8), whole.view(np.uint8))


class TestSimilarity:
    def test_quasi_hermiticity(self, radial_figure, scarf_figure):
        xs = np.linspace(-4.0, 4.0, 200)
        scale = np.max(np.abs(potential(radial_figure, xs)))
        assert quasi_hermiticity_residual(radial_figure, xs) <= 1e-11 * scale
        half = scarf_half_cell(scarf_figure)
        xs = np.linspace(-0.98 * half, 0.98 * half, 200)
        scale = np.max(np.abs(potential(scarf_figure, xs)))
        assert quasi_hermiticity_residual(scarf_figure, xs) <= 1e-11 * scale

    def test_pseudo_hermiticity(self, radial_figure, scarf_figure):
        xs = np.linspace(-4.0, 4.0, 200)
        scale = np.max(np.abs(potential(radial_figure, xs)))
        assert pseudo_hermiticity_residual(radial_figure, xs) <= 1e-11 * scale
        half = scarf_half_cell(scarf_figure)
        xs = np.linspace(-0.98 * half, 0.98 * half, 200)
        scale = np.max(np.abs(potential(scarf_figure, xs)))
        assert pseudo_hermiticity_residual(scarf_figure, xs) <= 1e-11 * scale

    def test_pt_symmetry_radial_and_cos(self, radial_figure, scarf_figure):
        xs = np.linspace(-4.0, 4.0, 200)
        scale = np.max(np.abs(potential(radial_figure, xs)))
        assert pt_symmetry_residual(radial_figure, xs) <= 1e-12 * scale
        cos_model = replace(scarf_figure, branch="cos")
        half = scarf_half_cell(cos_model)
        xs = np.linspace(-0.45 * half, 0.45 * half, 200)
        scale = np.max(np.abs(potential(cos_model, xs)))
        assert pt_symmetry_residual(cos_model, xs) <= 1e-12 * scale

    def test_pt_symmetry_broken_on_sin_branch(self, scarf_figure):
        # a != b: parity flips sin w, so PT fails by an order-one amount
        half = scarf_half_cell(scarf_figure)
        xs = np.linspace(-0.98 * half, 0.98 * half, 200)
        scale = np.max(np.abs(potential(scarf_figure, xs)))
        assert pt_symmetry_residual(scarf_figure, xs) > 0.01 * scale

    def test_pt_symmetry_restored_for_equal_like_indices(self):
        # the sin branch is PT-symmetric exactly when parity maps the
        # model to itself; swapping a and b does that, so compare a == b
        m = PotentialModel("scarf_extended", 1.75, 1.7500001, k=1.25, eps=1.0)
        half = scarf_half_cell(m)
        xs = np.linspace(-0.9 * half, 0.9 * half, 100)
        scale = np.max(np.abs(potential(m, xs)))
        assert pt_symmetry_residual(m, xs) <= 1e-5 * scale

    def test_mismatched_shift_fails_quasi_check(self, radial_figure):
        # doubling eps in the operand potential must not look Hermitian
        wrong = replace(radial_figure, eps=2.0 * radial_figure.eps)
        xs = np.linspace(-3.0, 3.0, 100)
        scale = np.max(np.abs(potential(wrong, xs)))
        assert quasi_hermiticity_residual(wrong, xs) <= 1e-11 * scale
        hybrid = np.max(
            np.abs(
                potential(wrong, xs - 1j * radial_figure.eps / radial_figure.k)
                - potential(replace(radial_figure, eps=0.0), xs)
            )
        )
        assert hybrid > 0.01 * scale
